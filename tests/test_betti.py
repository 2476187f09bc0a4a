"""The Mayer-Vietoris pipeline: pages, degeneration, Betti readout."""

from itertools import combinations
from math import comb
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvbetti import (
    ConsistencyError,
    ValidationError,
    compute_betti,
    count_flats,
    parse_arrangement,
)
from mvbetti.arrangement import _affine_chart, essentialize
from mvbetti.betti import (
    MVPage,
    degeneration_check,
    first_page,
    graded_from_second_page,
    kunneth_shift,
    last_cohomology_dim,
    localized_flat_cohomology,
    punctured_space_cohomology,
    second_page,
)
from mvbetti.flats import flat_of_subset, is_general_position
from mvbetti.generate import (
    boolean_arrangement_text,
    difference_arrangement_text,
    random_affine_arrangement,
    random_projective_arrangement,
)

from helpers import BRAID_A3, PARALLEL_A2, betti_of_roots


def _first_page_of(text):
    arr = parse_arrangement(text)
    return first_page(count_flats(essentialize(arr).essential))


def test_punctured_space():
    assert punctured_space_cohomology(1) == {-1: 1, 0: 1}
    assert punctured_space_cohomology(2) == {-2: 1, 1: 1}
    for m in range(1, 8):
        assert punctured_space_cohomology(m)[-m] == 1
    with pytest.raises(ValidationError):
        punctured_space_cohomology(0)


def test_localized_flat():
    assert localized_flat_cohomology(2, 1) == {-2: 1, -1: 1}
    assert localized_flat_cohomology(2, None) == {-2: 1}
    assert localized_flat_cohomology(3, 0) == {-3: 1, 2: 1}
    with pytest.raises(ValidationError):
        localized_flat_cohomology(2, 2)


def test_first_page_boolean():
    page = _first_page_of(boolean_arrangement_text(2))
    assert page.dims == {(-1, -2): 1, (0, -2): 2, (0, -1): 2, (-1, 1): 1}


def test_first_page_braid():
    page = _first_page_of(BRAID_A3)
    assert page.row(-2) == {-2: 1, -1: 3, 0: 3}
    assert page.dims[(0, -1)] == 3
    assert page.dims[(-1, 1)] == 3
    assert page.dims[(-2, 1)] == 1


def test_first_page_rejects_empty():
    arr = parse_arrangement("affine 2\n1 0 0\n")
    table = count_flats(arr)
    page = first_page(table)
    assert page.r == 1
    from mvbetti.flats import FlatCounts

    with pytest.raises(ValidationError):
        first_page(FlatCounts({}, {}, 2, 0))


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_first_page_is_sum_of_localized_cohomology(seed):
    # E1 straight from its definition: every nonempty subset I adds the
    # localized cohomology of its flat to column 1 - |I|.
    rng = Random(seed)
    n = rng.randint(1, 4)
    arr = random_affine_arrangement(rng, n, rng.randint(1, 6))
    expected = {}
    for size in range(1, arr.r + 1):
        for subset in combinations(range(arr.r), size):
            flat = flat_of_subset(arr, subset)
            for q, d in localized_flat_cohomology(n, flat.dimension).items():
                expected[(1 - size, q)] = expected.get((1 - size, q), 0) + d
    assert first_page(count_flats(arr)).dims == expected


def test_last_cohomology_examples():
    assert last_cohomology_dim([1, 4, 6, 4]) == 1
    assert last_cohomology_dim([3]) == 3
    assert last_cohomology_dim([1, 3]) == 2


def test_last_cohomology_binomial_rows():
    for r in range(1, 21):
        row = [comb(r, size) for size in range(r, 0, -1)]
        assert last_cohomology_dim(row) == 1


def test_last_cohomology_negative_raises():
    with pytest.raises(ConsistencyError):
        last_cohomology_dim([1, 0])


def test_second_page_names_negative_row():
    # row q=0 reads 3, 1 at p = -1, 0: alternating sum -(3 - 1) < 0
    page = MVPage({(0, -2): 1, (-1, 0): 3, (0, 0): 1}, 1, 2, 2)
    with pytest.raises(ConsistencyError, match=r"row q=0: alternating sum of row \(3, 1\)"):
        second_page(page)


def test_second_page_examples():
    assert second_page(_first_page_of(boolean_arrangement_text(2))).dims == {
        (0, -2): 1,
        (0, -1): 2,
        (-1, 1): 1,
    }
    assert second_page(_first_page_of(BRAID_A3)).dims == {
        (0, -2): 1,
        (0, -1): 3,
        (-1, 1): 2,
    }
    # the parallel pair stays at ambient dimension 2 here: its q=1 row is empty
    arr = parse_arrangement(PARALLEL_A2)
    assert second_page(first_page(count_flats(arr))).dims == {(0, -2): 1, (0, -1): 2}


def test_degeneration_examples():
    for text in (boolean_arrangement_text(2), BRAID_A3):
        assert degeneration_check(second_page(_first_page_of(text)))
    synthetic = MVPage({(0, 0): 1, (2, -1): 1}, 2, 2, 2)
    assert not degeneration_check(synthetic)


def test_graded_readout():
    graded = graded_from_second_page(second_page(_first_page_of(boolean_arrangement_text(2))))
    assert graded == {-2: 1, -1: 2, 0: 1}
    graded = graded_from_second_page(second_page(_first_page_of(BRAID_A3)))
    assert graded == {-2: 1, -1: 3, 0: 2}
    # r=1 in ambient dimension 1: multiplicative group of the line
    graded = graded_from_second_page(second_page(_first_page_of("affine 1\n1 5\n")))
    assert graded == {-1: 1, 0: 1}


def test_graded_rejects_misplaced_entry():
    with pytest.raises(ConsistencyError):
        graded_from_second_page(MVPage({(0, -2): 1, (0, 1): 1}, 2, 2, 3))


def test_kunneth_shift():
    assert kunneth_shift({-2: 1, 0: 3}, 0) == {-2: 1, 0: 3}
    assert kunneth_shift({-2: 1, -1: 3, 0: 2}, 1) == {-3: 1, -2: 3, -1: 2}
    m = 4
    assert kunneth_shift(punctured_space_cohomology(m), m - 1) == {-2 * m + 1: 1, 0: 1}


def test_compute_betti_named_examples():
    braid = compute_betti(parse_arrangement(BRAID_A3))
    assert braid.betti == (1, 3, 2, 0)
    assert braid.essential_rank == 2
    assert braid.shift == 1
    assert braid.agreement

    parallel = compute_betti(parse_arrangement(PARALLEL_A2))
    assert parallel.betti == (1, 2, 0)
    assert parallel.poincare == (1, 2)

    for n in range(1, 5):
        rep = compute_betti(parse_arrangement(boolean_arrangement_text(n)))
        assert rep.betti == tuple(comb(n, k) for k in range(n + 1))
        assert rep.agreement


# (n, arrangement text, roots) of families with chi(q) = prod (q - a) over the
# roots: B_n and D_n exponents from Orlik and Terao (1992), ch. 6; Shi and
# Catalan from Athanasiadis, Adv. Math. 122 (1996).
FACTORED_FAMILIES = [
    *(pytest.param(n, difference_arrangement_text(n, (-1, 1), (0,), coordinates=True),
                   range(1, 2 * n, 2), id=f"B{n}") for n in range(3, 9)),
    *(pytest.param(n, difference_arrangement_text(n, (-1, 1), (0,)),
                   (*range(1, 2 * n - 2, 2), n - 1), id=f"D{n}") for n in range(4, 9)),
    *(pytest.param(n, difference_arrangement_text(n, (-1,), (0, 1)),
                   (0,) + (n,) * (n - 1), id=f"Shi {n}") for n in range(3, 8)),
    *(pytest.param(n, difference_arrangement_text(n, (-1,), (-1, 0, 1)),
                   (0, *range(n + 1, 2 * n)), id=f"Catalan {n}") for n in range(3, 8)),
]


def _family_betti(text: str, n: int):
    # r reaches 64 (B8); both oracles run up to n = 4.
    oracles = n <= 4
    report = compute_betti(parse_arrangement(text), cap=64, oracles=oracles)
    assert report.agreement is (True if oracles else None)
    return list(report.betti)


@pytest.mark.parametrize("n, text, roots", FACTORED_FAMILIES)
def test_named_families_match_closed_forms(n, text, roots):
    assert _family_betti(text, n) == betti_of_roots(roots)


@pytest.mark.parametrize("n, regions", [(2, 2), (3, 7), (4, 36), (5, 246), (6, 2104)])
def test_linial_matches_closed_form(n, regions):
    # chi(q) = q 2^-n sum_k C(n, k) (q - k)^(n - 1) (Postnikov and Stanley,
    # J. Combin. Theory A 91 (2000)); 2^n chi has the coefficient chi2[j] at q^(j + 1).
    chi2 = [sum(comb(n, k) * comb(n - 1, j) * (-k) ** (n - 1 - j) for k in range(n + 1))
            for j in range(n)]
    assert all(c % 2**n == 0 for c in chi2)
    expected = [abs(c) // 2**n for c in reversed(chi2)] + [0]
    betti = _family_betti(difference_arrangement_text(n, (-1,), (1,)), n)
    assert betti == expected
    assert sum(betti) == regions  # |chi(-1)|, the number of real regions


def test_compute_betti_generic_lines():
    # five explicit generic lines in the plane
    text = "affine 2\n1 0 0\n0 1 0\n1 1 1\n1 -1 2\n2 1 5\n"
    rep = compute_betti(parse_arrangement(text))
    assert rep.general_position
    assert rep.betti == (1, 5, 10)


def test_compute_betti_braid_family():
    # the complement of {x_i = x_j} in affine m-space has Poincare polynomial
    # (1+t)(1+2t)...(1+(m-1)t), a classical closed form
    for m in (3, 4, 5):
        rep = compute_betti(parse_arrangement(difference_arrangement_text(m, (-1,), (0,))))
        assert list(rep.betti) == betti_of_roots(range(m))
        assert rep.agreement
        assert rep.shift == 1


def test_compute_betti_central_generic():
    # four planes through the origin in general direction: (1+t)(1+3t+3t^2)
    rep = compute_betti(parse_arrangement("affine 3\n1 0 0 0\n0 1 0 0\n0 0 1 0\n1 1 1 0\n"))
    assert rep.betti == (1, 4, 6, 3)
    assert rep.agreement


def test_compute_betti_empty_arrangement():
    rep = compute_betti(parse_arrangement("affine 3\n"))
    assert rep.betti == (1, 0, 0, 0)
    assert rep.e1 is None and rep.e2 is None
    assert rep.agreement
    # The empty arrangement, also as the decone of one projective
    # hyperplane, is vacuously in general position: b = C(0, k).
    for text in ("affine 3\n", "projective 2\n1 2 3\n"):
        arr = parse_arrangement(text)
        rep = compute_betti(arr)
        assert rep.general_position == is_general_position(_affine_chart(arr, None))
        assert rep.general_position


def test_compute_betti_single_projective_hyperplane():
    rep = compute_betti(parse_arrangement("projective 2\n1 2 3\n"))
    assert rep.betti == (1, 0, 0)


def test_compute_betti_infinity_on_affine_rejected():
    with pytest.raises(ValidationError):
        compute_betti(parse_arrangement(PARALLEL_A2), infinity_index=0)


def test_parity_support():
    for text in (boolean_arrangement_text(3), BRAID_A3, PARALLEL_A2):
        rep = compute_betti(parse_arrangement(text))
        n = rep.essential_rank
        for (p, q) in rep.e2.dims:
            assert q == -n or (q - n) % 2 == 1


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_pipeline_equals_oracles(seed):
    rng = Random(seed)
    arr = random_affine_arrangement(rng, rng.randint(1, 4), rng.randint(1, 6))
    rep = compute_betti(arr)
    assert rep.agreement
    assert rep.betti[0] == 1
    assert all(rep.betti[k] == 0 for k in range(rep.essential_rank + 1, rep.n + 1))
    assert degeneration_check(rep.e2)


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_deconing_invariance(seed):
    rng = Random(seed)
    arr = random_projective_arrangement(rng, rng.randint(1, 3), rng.randint(1, 5))
    reports = [compute_betti(arr, infinity_index=k) for k in range(arr.r)]
    assert len({rep.betti for rep in reports}) == 1
    assert all(rep.agreement for rep in reports)
