"""Flats, subset counts, the intersection poset and the two oracles."""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm
from pathlib import Path
from random import Random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from mvbetti import (
    CapExceededError,
    QMatrix,
    build_intersection_poset,
    compute_betti,
    count_flats,
    is_general_position,
    mobius_betti,
    parse_arrangement,
    whitney_betti,
)
from mvbetti.arrangement import AFFINE, Arrangement, Hyperplane, essentialize
from mvbetti.flats import FlatCounts, _extend, ambient_flat, flat_of_subset
from mvbetti.generate import (
    boolean_arrangement_text,
    difference_arrangement_text,
    random_affine_arrangement,
)
from mvbetti.linalg import rref_entries

from helpers import BRAID_A3, PARALLEL_A2, betti_of_roots, module_imports


@pytest.fixture
def boolean2():
    return parse_arrangement(boolean_arrangement_text(2))


@pytest.fixture
def braid_essential():
    return essentialize(parse_arrangement(BRAID_A3)).essential


@pytest.fixture
def parallel():
    return parse_arrangement(PARALLEL_A2)


def test_flat_of_full_boolean_subset(boolean2):
    flat = flat_of_subset(boolean2, [0, 1])
    assert not flat.is_empty
    assert flat.dimension == 0


def test_flat_of_empty_subset_is_ambient(boolean2):
    flat = flat_of_subset(boolean2, [])
    assert flat.dimension == 2
    assert flat.rows == ()


def test_flat_of_parallel_pair_is_empty(parallel):
    assert flat_of_subset(parallel, [0, 1]).is_empty


def test_flat_of_braid_pairs():
    braid = parse_arrangement(BRAID_A3)
    flats = {flat_of_subset(braid, pair) for pair in ([0, 1], [0, 2], [1, 2])}
    assert len(flats) == 1  # every pair cuts out the same diagonal line
    assert flats.pop().dimension == 1


def test_flat_index_range(boolean2):
    with pytest.raises(Exception):
        flat_of_subset(boolean2, [5])


def test_counts_boolean(boolean2):
    table = count_flats(boolean2)
    assert table.counts == {(1, 1): 2, (2, 0): 1}
    assert table.empty == {}


def test_counts_braid_essential(braid_essential):
    table = count_flats(braid_essential)
    assert table.counts == {(1, 1): 3, (2, 0): 3, (3, 0): 1}
    assert table.empty == {}


def test_counts_parallel(parallel):
    table = count_flats(parallel)
    assert table.counts == {(1, 1): 2}
    assert table.empty == {2: 1}


def test_counts_cap():
    with pytest.raises(CapExceededError):
        count_flats(parse_arrangement(boolean_arrangement_text(3)), cap=2)


def _mobius_of(poset) -> dict:
    """{flat: mu} of the poset's sweep, which has no order of its own."""
    return {flat: mu for flat, _, mu in poset.sweep}


def _codim_mobius(poset) -> list:
    """The sorted (codimension, mu) pairs of the poset's flats."""
    return sorted((poset.ambient_dim - flat.dimension, mu) for flat, _, mu in poset.sweep)


def test_poset_boolean(boolean2):
    poset = build_intersection_poset(boolean2)
    assert _codim_mobius(poset) == [(0, 1), (1, -1), (1, -1), (2, 1)]
    subsets = {(): 1, (0,): -1, (1,): -1, (0, 1): 1}
    assert _mobius_of(poset) == {flat_of_subset(boolean2, s): mu for s, mu in subsets.items()}


def test_poset_single_hyperplane():
    arr = parse_arrangement("affine 2\n1 0 0\n")
    poset = build_intersection_poset(arr)
    assert _mobius_of(poset) == {ambient_flat(2): 1, flat_of_subset(arr, [0]): -1}


def test_poset_braid_essential(braid_essential):
    poset = build_intersection_poset(braid_essential)
    assert _codim_mobius(poset) == [(0, 1), (1, -1), (1, -1), (1, -1), (2, 2)]


def test_mobius_betti_examples(boolean2, braid_essential):
    assert mobius_betti(build_intersection_poset(boolean2)) == (1, 2, 1)
    assert mobius_betti(build_intersection_poset(braid_essential)) == (1, 3, 2)


def test_mobius_betti_empty_arrangement():
    poset = build_intersection_poset(parse_arrangement("affine 3\n"))
    assert mobius_betti(poset) == (1, 0, 0, 0)


def test_whitney_examples(boolean2, braid_essential, parallel):
    assert whitney_betti(build_intersection_poset(boolean2)) == (1, 2, 1)
    assert whitney_betti(build_intersection_poset(parallel)) == (1, 2, 0)
    assert whitney_betti(build_intersection_poset(braid_essential)) == (1, 3, 2)


def test_general_position():
    assert is_general_position(parse_arrangement(boolean_arrangement_text(3)))
    assert not is_general_position(parse_arrangement(PARALLEL_A2))
    assert not is_general_position(essentialize(parse_arrangement(BRAID_A3)).essential)
    # three generic lines in the plane
    assert is_general_position(parse_arrangement("affine 2\n1 0 0\n0 1 0\n1 1 1\n"))
    # Non-essential input is judged in its own ambient dimension: the three
    # planes x=0, y=0, x+y=1 never meet in 3-space, although their
    # essential part, three generic lines, is in general position.
    planes = parse_arrangement("affine 3\n1 0 0 0\n0 1 0 0\n1 1 0 1\n")
    pair = parse_arrangement("affine 3\n1 0 0 0\n0 1 0 0\n")
    assert is_general_position(essentialize(planes).essential)
    assert not is_general_position(planes)
    assert is_general_position(pair)
    assert compute_betti(planes).general_position is False
    assert compute_betti(pair).general_position is True


def test_flats_module_imports_no_rational_forms():
    # Flats stay primitive integer rows; their rational echelon form is built
    # only where it is printed (`mvbetti poset`), so `flats` imports none of it.
    modules, names = module_imports("flats")
    assert "fractions" not in modules
    assert not names & {"Fraction", "QMatrix", "rref_entries", "cached_property"}


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_subset_count_conservation(seed):
    rng = Random(seed)
    arr = random_affine_arrangement(rng, rng.randint(1, 4), rng.randint(1, 6))
    table = count_flats(arr)
    r = arr.r
    for size in range(1, r + 1):
        bucketed = sum(c for (s, _), c in table.counts.items() if s == size)
        assert bucketed + table.empty.get(size, 0) == comb(r, size)


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_oracles_agree_and_mobius_signs(seed):
    rng = Random(seed)
    arr = random_affine_arrangement(rng, rng.randint(1, 4), rng.randint(0, 6))
    poset = build_intersection_poset(arr)
    for codim, mu in _codim_mobius(poset):
        assert mu * (-1) ** codim > 0
    # containment by hyperplane masks agrees with elimination on the rational rref
    n = arr.ambient_dim
    systems = [
        QMatrix(len(f.rows), n + 1, rref_entries(f.rows, f.pivots)) for f, _, _ in poset.sweep
    ]
    for (x, mx, _), a in zip(poset.sweep, systems):
        for (y, my, _), b in zip(poset.sweep, systems):
            stacked = QMatrix(a.rows + b.rows, a.cols, a.entries + b.entries)
            contains = stacked.rank() == a.rows
            assert (x != y and my & mx == my) == (x != y and contains)
    betti = mobius_betti(poset)
    assert betti == whitney_betti(poset)
    assert betti[0] == 1
    # distinct flats reachable as intersections = poset size, and the signed
    # count of the subsets by codimension is the Whitney vector
    seen = set()
    signed = [0] * (n + 1)
    for size in range(0, arr.r + 1):
        for subset in combinations(range(arr.r), size):
            flat = flat_of_subset(arr, subset)
            if not flat.is_empty:
                seen.add(flat)
                signed[n - flat.dimension] += (-1) ** size
    assert len(seen) == len(poset.sweep)
    assert seen == set(_mobius_of(poset))
    assert whitney_betti(poset) == tuple((-1) ** k * w for k, w in enumerate(signed))


def _textbook_mobius(arr: Arrangement, poset) -> dict:
    """{flat: mu} by mu(X) = -sum of mu(Y) over the flats Y strictly containing X.

    Containment is read from hyperplane masks computed here, one
    elimination per (flat, hyperplane), which must equal the sweep's masks;
    the flats are visited by the number of hyperplanes containing them, so
    every Y above X comes first.
    """
    rows = [h.equation_row() for h in arr.hyperplanes]
    flats = [f for f, _, _ in poset.sweep]
    masks = [sum(1 << i for i, row in enumerate(rows) if _extend(f, row) is f) for f in flats]
    assert masks == [mask for _, mask, _ in poset.sweep]
    mu = {}
    for x in sorted(range(len(masks)), key=lambda i: bin(masks[i]).count("1")):
        m = masks[x]
        mu[x] = -sum(mu[y] for y in mu if masks[y] & m == masks[y]) if m else 1
    return {flats[x]: mu[x] for x in range(len(masks))}


FAMILIES = {
    # chi(q) = prod_i (q - (2i - 1))
    "B4": (difference_arrangement_text(4, (-1, 1), (0,), coordinates=True), (1, 3, 5, 7)),
    # chi(q) = q prod_{k=1..n-1} (q - n - k)
    "Catalan 4": (difference_arrangement_text(4, (-1,), (-1, 0, 1)), (0, 5, 6, 7)),
    # chi(q) = q (q - n)^(n - 1)
    "Shi 5": (difference_arrangement_text(5, (-1,), (0, 1)), (0, 5, 5, 5, 5)),
    # chi(q) = (q - n + 1) prod_{i=1..n-1} (q - 2i + 1)
    "D5": (difference_arrangement_text(5, (-1, 1), (0,)), (4, 1, 3, 5, 7)),
}


@pytest.mark.parametrize("name", FAMILIES)
def test_weisner_mobius_matches_textbook_on_families(name):
    text, roots = FAMILIES[name]
    arr = parse_arrangement(text)
    poset = build_intersection_poset(arr)
    assert _mobius_of(poset) == _textbook_mobius(arr, poset)
    assert list(mobius_betti(poset)) == betti_of_roots(roots)


def test_weisner_mobius_matches_textbook_on_random_arrangements():
    rng = Random(16)
    for _ in range(400):
        arr = random_affine_arrangement(
            rng,
            rng.randint(1, 5),
            rng.randint(1, 9),
            parallel=rng.choice((0.0, 0.25, 0.6)),
            central=rng.choice((0.0, 0.25, 0.7)),
            bound=rng.choice((1, 2, 4)),
        )
        poset = build_intersection_poset(arr)
        assert _mobius_of(poset) == _textbook_mobius(arr, poset)


def _degenerate_arrangement(rng: Random, kind: str) -> Arrangement:
    """Up to 8 hyperplanes that meet their lines in shared points or not at all.

    "mixed": small coefficients with many parallel and central hyperplanes.
    "points": points on the line (n = 1), where the ambient space is a line.
    "parallel": one normal direction in n = 2..4, so the essential part is a line.
    "pencil": normals in {-1, 0, 1}^n, most hyperplanes through one point p,
    so lines through p lie on several hyperplanes and meet others at p.
    "pencils": lines in the plane (n = 2) through a few shared points or in
    a few shared directions, so a plane carries concurrent and parallel
    classes together.
    "sheaf": n = 3..4, several hyperplanes through one flat W of codimension
    2, the others often through a point of W.  In n = 3, W is a line cut by
    many hyperplanes; in n = 4 it is a plane that several hyperplanes contain.
    """
    if kind == "pencils":
        return _pencils(rng)
    if kind == "sheaf":
        return _sheaf(rng)
    r = rng.randint(1, 8)
    if kind == "mixed":
        n = rng.randint(1, 4)
        return random_affine_arrangement(
            rng, n, r, parallel=rng.uniform(0.5, 0.9), central=rng.uniform(0.5, 0.9), bound=1
        )
    n = 1 if kind == "points" else rng.randint(2, 4)
    p = [rng.randint(-2, 2) for _ in range(n)]
    direction = [rng.randint(-2, 2) or 1 for _ in range(n)]
    found: dict = {}
    while len(found) < r:
        if kind == "parallel":
            normal = [rng.choice([1, -2, 3]) * x for x in direction]
        elif kind == "points":
            normal = [rng.randint(1, 3)]
        else:
            normal = [rng.randint(-1, 1) for _ in range(n)]
            if not any(normal):
                continue
        through_p = sum(a * x for a, x in zip(normal, p))
        constant = through_p if rng.random() < 0.6 else rng.randint(-9, 9)
        found.setdefault(Hyperplane.canonical(normal, constant))
    return Arrangement(n, tuple(found), AFFINE)


def _pencils(rng: Random) -> Arrangement:
    centers = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rng.randint(1, 3))]
    directions = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, -1)]
    directions = rng.sample(directions, rng.randint(2, len(directions)))
    found: dict = {}
    for _ in range(rng.randint(2, 10)):
        normal = rng.choice(directions)
        if rng.random() < 0.7:
            x, y = rng.choice(centers)
            constant = normal[0] * x + normal[1] * y
        else:
            constant = rng.randint(-4, 4)
        found.setdefault(Hyperplane.canonical(normal, constant))
    return Arrangement(2, tuple(found), AFFINE)


def _sheaf(rng: Random) -> Arrangement:
    n = rng.randint(3, 4)
    while True:
        g = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(2)]
        if QMatrix.from_rows(g).rank() == 2:
            break
    point = [rng.randint(-1, 1) for _ in range(n)]
    through = [sum(a * x for a, x in zip(row, point)) for row in g]
    found: dict = {}
    for _ in range(rng.randint(2, 5)):
        s, t = rng.randint(-2, 2), rng.randint(-2, 2)
        if s or t:
            normal = [s * a + t * b for a, b in zip(*g)]
            found.setdefault(Hyperplane.canonical(normal, s * through[0] + t * through[1]))
    for _ in range(rng.randint(1, 5)):
        normal = [rng.randint(-1, 1) for _ in range(n)]
        if any(normal):
            on_point = sum(a * x for a, x in zip(normal, point))
            constant = on_point if rng.random() < 0.5 else rng.randint(-2, 2)
            found.setdefault(Hyperplane.canonical(normal, constant))
    return Arrangement(n, tuple(found), AFFINE)


@given(
    st.integers(0, 10_000),
    st.sampled_from(["mixed", "points", "parallel", "pencil", "pencils", "sheaf"]),
)
@settings(max_examples=300, deadline=None)
def test_count_flats_matches_every_subset(seed, kind):
    arr = _degenerate_arrangement(Random(seed), kind)
    table = count_flats(arr)
    assert (table.counts, table.empty) == _every_subset(arr)


def _every_subset(arr: Arrangement) -> tuple:
    """(counts, empty) of `count_flats`, from the flat of every nonempty subset."""
    counts: dict = {}
    empty: dict = {}
    for size in range(1, arr.r + 1):
        for subset in combinations(range(arr.r), size):
            flat = flat_of_subset(arr, subset)
            if flat.is_empty:
                empty[size] = empty.get(size, 0) + 1
            else:
                counts[(size, flat.dimension)] = counts.get((size, flat.dimension), 0) + 1
    return counts, empty


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_count_flats_matches_every_subset_above_planes(seed):
    # Five and six dimensions, so restriction runs below the root several times.
    rng = Random(seed)
    arr = random_affine_arrangement(rng, rng.randint(5, 6), rng.randint(1, 10))
    table = count_flats(arr)
    assert (table.counts, table.empty) == _every_subset(arr)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_count_flats_ignores_hyperplane_order(seed):
    rng = Random(seed)
    arr = random_affine_arrangement(
        rng, rng.randint(1, 6), rng.randint(1, 12), parallel=0.4, central=0.5, bound=2
    )
    shuffled = list(arr.hyperplanes)
    rng.shuffle(shuffled)
    table = count_flats(arr)
    again = count_flats(Arrangement(arr.ambient_dim, tuple(shuffled), AFFINE))
    assert (again.counts, again.empty) == (table.counts, table.empty)


def test_count_flats_boolean_24():
    # Every s coordinate hyperplanes meet in a flat of dimension 24 - s.
    table = count_flats(parse_arrangement(boolean_arrangement_text(24)))
    assert table.counts == {(s, 24 - s): comb(24, s) for s in range(1, 25)}
    assert table.empty == {}


def test_count_flats_wide_counts():
    # Counts reach C(100, 50), a 97-bit number, so counts packed in 96-bit
    # slots, or in 64-bit words, would carry into the next size.
    points = parse_arrangement("affine 1\n" + "".join(f"1 {c}\n" for c in range(100)))
    empty = {s: comb(100, s) for s in range(2, 101)}
    assert count_flats(points, cap=100) == FlatCounts({(1, 0): 100}, empty, 1, 100)
    # y = 0, z = 0 and 98 slabs x = c: a subset of a of {y, z} and b slabs is
    # empty iff b >= 2, and otherwise cuts out a flat of dimension 3 - a - b.
    slabs = "affine 3\n0 1 0 0\n0 0 1 0\n" + "".join(f"1 0 0 {c}\n" for c in range(98))
    counts = {(s, 3 - s): sum(comb(2, s - b) * comb(98, b) for b in range(2)) for s in range(1, 4)}
    empty = {s: sum(comb(2, a) * comb(98, s - a) for a in range(3) if s - a >= 2)
             for s in range(2, 101)}
    assert count_flats(parse_arrangement(slabs), cap=100) == FlatCounts(counts, empty, 3, 100)
    # Above planes, packed tables are multiplied by (1 + x)^z for the keys
    # that contain a flat.  A pencil x_1 + c x_2 = 0 in 5-space: any two or
    # more meet in the same 3-space, reached with z = 98 at d >= 3.
    pencil = "affine 5\n" + "".join(f"1 {c} 0 0 0 0\n" for c in range(100))
    counts = {(1, 4): 100} | {(s, 3): comb(100, s) for s in range(2, 101)}
    assert count_flats(parse_arrangement(pencil), cap=100) == FlatCounts(counts, {}, 5, 100)
    # The keys that miss a flat add (1 + x)^(S + m) - (1 + x)^S at None: x_2 = 0
    # and 99 slabs x_1 = c reach m = 98.
    slabs = "affine 5\n0 1 0 0 0 0\n" + "".join(f"1 0 0 0 0 {c}\n" for c in range(99))
    empty = {s: sum(comb(1, a) * comb(99, s - a) for a in range(2) if s - a >= 2)
             for s in range(2, 101)}
    table = FlatCounts({(1, 4): 100, (2, 3): 99}, empty, 5, 100)
    assert count_flats(parse_arrangement(slabs), cap=100) == table


DEEP_DELETION = """
import sys
from mvbetti import count_flats, parse_arrangement
sys.setrecursionlimit(120)
slabs = "".join(f"1 0 0 {c}\\n" for c in range(198))
arr = parse_arrangement("affine 3\\n0 1 0 0\\n0 0 1 0\\n" + slabs)
print(count_flats(arr, cap=1000).counts[(3, 0)])
"""


def _run_script(script: str) -> tuple:
    """Exit code, stdout and stderr of `script` in a fresh interpreter on this package."""
    root = Path(__file__).parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_count_flats_depth_follows_dimension_not_hyperplanes():
    # y = 0, z = 0 and 198 slabs x = c: each slab meets the line y = z = 0
    # in its own point.  Deleting 200 hyperplanes one by one must not
    # recurse, so a recursion limit far below 200 is enough.
    assert _run_script(DEEP_DELETION) == (0, "198\n", "")


DEEP_PENCIL = """
import sys
from mvbetti import build_intersection_poset, mobius_betti, parse_arrangement, whitney_betti
sys.setrecursionlimit(120)
arr = parse_arrangement("affine 2\\n" + "".join(f"1 {k} 0\\n" for k in range(200)))
poset = build_intersection_poset(arr, cap=1000)
print(whitney_betti(poset), mobius_betti(poset))
"""


def test_oracles_depth_does_not_follow_hyperplanes():
    # 200 lines x + k y = 0 through the origin: every subset of two or more
    # meets in the origin, so a walk that recurses once per hyperplane of a
    # subset is 200 calls deep.  The oracles must not recurse at all.
    assert _run_script(DEEP_PENCIL) == (0, "(1, 200, 199) (1, 200, 199)\n", "")


def _lift(rng: Random, arr: Arrangement, n: int) -> Arrangement:
    """`arr` in n >= its dimension coordinates: zero columns, then a unimodular change of coordinates.

    The lifted arrangement is not essential, and its essential part has
    the same intersection lattice as `arr`.
    """
    m = arr.ambient_dim
    # x = U y with U unit upper triangular and its columns permuted, so det U = +-1.
    u = [[1 if i == j else rng.randint(-1, 1) if i < j else 0 for j in range(n)] for i in range(n)]
    cols = rng.sample(range(n), n)
    hyperplanes = []
    for h in arr.hyperplanes:
        a = list(h.normal) + [0] * (n - m)
        normal = [sum(a[i] * u[i][j] for i in range(n)) for j in cols]
        hyperplanes.append(Hyperplane.canonical(normal, h.constant))
    return Arrangement(n, tuple(hyperplanes), AFFINE)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_oracles_ignore_order_and_inessential_directions(seed):
    # compute_betti reads both oracles off the poset of the affine
    # arrangement as given, so their vectors must be the essential part's,
    # padded with zeros, in any hyperplane order.
    rng = Random(seed)
    base = random_affine_arrangement(
        rng, rng.randint(1, 3), rng.randint(1, 7), parallel=0.4, central=0.5, bound=2
    )
    n = base.ambient_dim + rng.randint(1, 2)
    arr = _lift(rng, base, n)
    shuffled = Arrangement(n, tuple(rng.sample(arr.hyperplanes, arr.r)), AFFINE)
    essential = essentialize(arr).essential
    pad = (0,) * (n - essential.ambient_dim)
    poset, again = build_intersection_poset(arr), build_intersection_poset(shuffled)
    ess_poset = build_intersection_poset(essential)
    assert whitney_betti(poset) == whitney_betti(again) == whitney_betti(ess_poset) + pad
    assert len(again.sweep) == len(poset.sweep) and _mobius_of(again) == _mobius_of(poset)
    assert mobius_betti(poset) == mobius_betti(again) == mobius_betti(ess_poset) + pad
    assert mobius_betti(poset) == whitney_betti(poset)


@st.composite
def augmented_systems(draw):
    """Integer systems [A | c] with repeated, dependent and inconsistent rows."""
    n = draw(st.integers(1, 4))
    entry = st.integers(-6, 6)
    rows = draw(st.lists(st.lists(entry, min_size=n + 1, max_size=n + 1), max_size=4))
    extra = []
    for kind in draw(st.lists(st.sampled_from(["repeat", "combination", "shifted"]), max_size=4)):
        if not rows:
            break
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        s, t = draw(entry), draw(entry)
        row = list(a) if kind == "repeat" else [s * x + t * y for x, y in zip(a, b)]
        if kind == "shifted":
            # s*a + t*b with another constant contradicts rows a and b
            row[-1] += draw(st.integers(1, 3))
        extra.append(row)
    return n, draw(st.permutations(rows + extra))


@given(augmented_systems())
@settings(max_examples=300, deadline=None)
def test_integer_elimination_matches_rational_rref(system):
    # The reference rref is sympy's, independent of the package's elimination.
    n, rows = system
    theirs = sympy.Matrix(len(rows), n + 1, [x for row in rows for x in row])
    their_rref, their_pivots = theirs.rref()
    pivots = tuple(their_pivots)
    rank = len(pivots)
    reduced = QMatrix(
        rank, n + 1, [Fraction(int(x.p), int(x.q)) for x in their_rref[: rank * (n + 1)]]
    )
    expected = []
    for i in range(rank):
        row = reduced.row(i)
        ints = [int(x * lcm(*(y.denominator for y in row))) for x in row]
        expected.append(tuple(x // gcd(*ints) for x in ints))
    for order in (rows, rows[::-1]):
        flat = ambient_flat(n)
        for row in order:
            flat = _extend(flat, tuple(row))
        assert flat.rows == tuple(expected)
        assert flat.pivots == pivots
        assert flat.is_empty == (n in pivots)
        assert flat.dimension == (None if n in pivots else n - rank)
        assert QMatrix(len(flat.rows), n + 1, rref_entries(flat.rows, flat.pivots)) == reduced
