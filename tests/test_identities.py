"""Metamorphic identities of the Poincare polynomial, through `compute_betti`.

`count_flats` and the oracle sweep agree on every run, so a defect that
both share would go unseen.  These identities relate the answers for
different arrangements instead (Orlik and Terao, Arrangements of
Hyperplanes, 1992, Thm. 2.56 and Prop. 2.51):

* deletion-restriction: P(A, t) = P(A - H, t) + t P(A^H, t);
* coning: P(cA, t) = (1 + t) P(A, t).

The restriction A^H is built here in `Fraction`s, by substituting the pivot
variable of H, not by `linalg.restrict_rows`.
"""

from fractions import Fraction
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from mvbetti import compute_betti
from mvbetti.arrangement import AFFINE, Arrangement, Hyperplane
from mvbetti.generate import random_affine_arrangement


def poincare(arr: Arrangement) -> list:
    """b_0..b_n of the complement, once the pipeline and both oracles agree on it."""
    report = compute_betti(arr)
    assert report.agreement is True
    return list(report.betti)


def random_arrangement(seed: int) -> Arrangement:
    """Affine, n <= 4 and 1 <= r <= 7, often with parallel and concurrent hyperplanes."""
    rng = Random(seed)
    return random_affine_arrangement(
        rng,
        rng.randint(1, 4),
        rng.randint(1, 7),
        parallel=rng.choice((0.0, 0.3, 0.6)),
        central=rng.choice((0.0, 0.3, 0.7)),
        bound=rng.choice((1, 2, 4)),
    )


def restriction(arr: Arrangement, h: Hyperplane) -> Arrangement:
    """A^H in the coordinates of H: x_p solved from H, for its first nonzero a_p.

    Each other hyperplane b.x = d becomes sum_{i != p} (b_i - b_p a_i / a_p) x_i
    = d - b_p c / a_p.  A hyperplane parallel to H leaves a zero normal and
    is dropped; hyperplanes that cut H in the same place are merged.
    """
    a, c = [Fraction(x) for x in h.normal], Fraction(h.constant)
    p = next(i for i, x in enumerate(a) if x)
    out = {}
    for k in arr.hyperplanes:
        if k == h:
            continue
        ratio = k.normal[p] / a[p]
        normal = [b - ratio * x for i, (b, x) in enumerate(zip(k.normal, a)) if i != p]
        if any(normal):
            out.setdefault(Hyperplane(normal, k.constant - ratio * c))
    return Arrangement(arr.ambient_dim - 1, tuple(out), AFFINE)


def cone(arr: Arrangement) -> Arrangement:
    """cA in n + 1 coordinates: a.x = c becomes a.x - c x_0 = 0, plus x_0 = 0 (x_0 last)."""
    n = arr.ambient_dim
    rows = [Hyperplane((*h.normal, -h.constant), 0) for h in arr.hyperplanes]
    rows.append(Hyperplane((0,) * n + (1,), 0))
    return Arrangement(n + 1, tuple(rows), AFFINE)


@given(st.integers(0, 10_000), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_deletion_restriction(seed, pick):
    arr = random_arrangement(seed)
    n = arr.ambient_dim
    h = arr.hyperplanes[pick % arr.r]
    deleted = Arrangement(n, tuple(k for k in arr.hyperplanes if k != h), AFFINE)
    # On a line, H is a point and so is A^H, whose complement is that point.
    restricted = [1] if n == 1 else poincare(restriction(arr, h))
    shifted = [0] + restricted + [0] * (n - len(restricted))
    assert poincare(arr) == [x + y for x, y in zip(poincare(deleted), shifted)]


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_coning(seed):
    arr = random_arrangement(seed)
    p = poincare(arr)
    assert poincare(cone(arr)) == [x + y for x, y in zip(p + [0], [0] + p)]
