"""The seeded generators, pinned by digest, and the named family builders.

The benchmark builds its input pools from the seeded generators.  Each
digest is the sha256 of the coefficient strings (`str` of every entry, so an
`int` and an integral `Fraction` read alike) that a few fixed seeds produce.
A change that moves any generated input changes its digest, so no benchmark
workload can move silently.
"""

import hashlib
from math import comb
from random import Random

import pytest

import mvbetti.generate
from mvbetti import compute_betti, is_general_position, parse_arrangement
from mvbetti.generate import (
    GENERAL_POSITION_TRIES,
    boolean_arrangement_text,
    difference_arrangement_text,
    random_affine_arrangement,
    random_complex,
    random_general_position_arrangement,
    random_projective_arrangement,
)

SEEDS = (1, 2, 3)


def _rows(arr) -> list:
    return [" ".join(str(x) for x in (*h.normal, h.constant)) for h in arr.hyperplanes]


def _affine(rng: Random) -> list:
    # The affine cells of the acceptance sweep.
    return [line for n in range(1, 5) for r in range(1, 8)
            for line in _rows(random_affine_arrangement(rng, n, r))]


def _projective(rng: Random) -> list:
    return [line for n in range(1, 4) for r in range(2, 8)
            for line in _rows(random_projective_arrangement(rng, n, r))]


def _general_position(rng: Random) -> list:
    return [line for n, r in ((2, 5), (4, 12))
            for line in _rows(random_general_position_arrangement(rng, n, r))]


def _complexes(rng: Random) -> list:
    lines = []
    for _ in range(32):
        c = random_complex(rng, max_terms=5, max_dim=4)
        lines.append(" ".join(f"{p}:{d}" for p, d in sorted(c.dims.items())))
        lines += [f"{p} " + " ".join(str(x) for x in m.entries) for p, m in sorted(c.diff.items())]
    return lines


GENERATORS = {
    "affine": _affine,
    "projective": _projective,
    "general_position": _general_position,
    "complex": _complexes,
}

DIGESTS = {
    "affine": [
        "743b7ea0d28c00e80ad1edf7e97fc4f292e0fc5c71a19b49bbe6343c3d3cfb2f",
        "88c84bfb735312a46d4077145fad15586e225a7214c667a06a62119985ac9c3c",
        "94a3f0673c0137d463cd6e6685d4f4dcf9c0fb6106c199e3be78b0cfd6bd95c9",
    ],
    "complex": [
        "d2d812df806622e5cddd1018b27a8a0d2ba11189a107e44d8149edb2396d702e",
        "2fa0b40b3c6a30a1e4ca565c30d0696f5c2e76201fa7ce25bc8a82f1530010d6",
        "975fab77d083e68d4f329a74913a87e74e7c0de65ebdd289ddb72dafb63c4494",
    ],
    "general_position": [
        "3d16625408f943a4adb5c7e37bcee181321892ec6cd29431bdd34377e06db33c",
        "4fc4c565986097382672156e6c625eef4d60f69dae79ddee32d577a904496ce6",
        "26d877060b5fcedaaa86982db654e6ff7deec8b91e50d88ef639553b0b4b4c75",
    ],
    "projective": [
        "5ec18821a1e12125e8c9ee8d518ba8476e8a9aa7467f176791f2b32762a9a717",
        "fe2e06240a084fd2ef9a778162b03e4905eb93a693cd517080dad9f7218fb5fc",
        "7c220ff542b3216ad6f535c181e04771e930c3b9ce0c9d53a16f36c07e3780fe",
    ],
}


def _digest(name: str, seed: int) -> str:
    return hashlib.sha256("\n".join(GENERATORS[name](Random(seed))).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_seeded_generators_are_pinned(name):
    assert [_digest(name, seed) for seed in SEEDS] == DIGESTS[name]


def test_general_position_generator_gives_up(monkeypatch):
    # A check that never says yes fails the caller instead of hanging it.
    calls = []
    monkeypatch.setattr(mvbetti.generate, "is_general_position", calls.append)  # None: no
    message = f"of 5 hyperplanes in affine 3-space .* in {GENERAL_POSITION_TRIES} tries"
    with pytest.raises(RuntimeError, match=message):
        random_general_position_arrangement(Random(0), 3, 5)
    assert len(calls) == GENERAL_POSITION_TRIES


def test_general_position_generator_takes_more_hyperplanes_than_the_cap():
    # The general-position check counts every hyperplane, past DEFAULT_CAP = 24.
    arr = random_general_position_arrangement(Random(0), 3, 25)
    assert arr.r == 25 and is_general_position(arr)
    report = compute_betti(arr, cap=25, oracles=False)
    assert report.general_position
    assert report.betti == tuple(comb(25, k) for k in range(4))


FAMILIES = {
    # name: (text of the family on n coordinates, its number of hyperplanes)
    "boolean": (boolean_arrangement_text, lambda n: n),
    "braid": (lambda n: difference_arrangement_text(n, (-1,), (0,)), lambda n: comb(n, 2)),
    "linial": (lambda n: difference_arrangement_text(n, (-1,), (1,)), lambda n: comb(n, 2)),
    "shi": (lambda n: difference_arrangement_text(n, (-1,), (0, 1)), lambda n: 2 * comb(n, 2)),
    "d_n": (lambda n: difference_arrangement_text(n, (-1, 1), (0,)), lambda n: 2 * comb(n, 2)),
    "catalan": (
        lambda n: difference_arrangement_text(n, (-1,), (-1, 0, 1)),
        lambda n: 3 * comb(n, 2),
    ),
    "b_n": (
        lambda n: difference_arrangement_text(n, (-1, 1), (0,), coordinates=True),
        lambda n: n * n,
    ),
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_builders_parse_with_expected_counts(name):
    # `parse_arrangement` rejects duplicate hyperplanes, so each count is of distinct ones.
    text, count = FAMILIES[name]
    for n in range(2, 7):
        arr = parse_arrangement(text(n))
        assert (arr.ambient_dim, arr.r) == (n, count(n))


if __name__ == "__main__":
    # Prints the digests, for a deliberate change of a generator.
    for name in sorted(GENERATORS):
        print(f"    {name!r}: {[_digest(name, seed) for seed in SEEDS]},")
