"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (run pytest with -s to see them all;
failures also surface as ordinary assertion errors).  All equalities are
exact integer comparisons; the randomized criteria use fixed seeds so the
suite is reproducible, and the stated runtime budgets are asserted.
"""

import time
from math import comb
from random import Random

from mvbetti import (
    HORIZONTAL,
    VERTICAL,
    cohomology_dims,
    compute_betti,
    pages,
    parse_arrangement,
    tensor_double_complex,
    total_complex,
    verify_convergence,
)
from mvbetti.betti import last_cohomology_dim, punctured_space_cohomology
from mvbetti.generate import (
    boolean_arrangement_text,
    random_affine_arrangement,
    random_complex,
    random_general_position_arrangement,
    random_projective_arrangement,
)

from helpers import (
    BRAID_A3,
    PARALLEL_A2,
    column_cohomology,
    degenerates,
    row_cohomology,
)


def _report(num, description):
    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"criterion {num}: {verdict} - {description}")
            return False

    return _Ctx()


_SWEEP = {}


def _oracle_sweep():
    """200 randomized arrangements through the full pipeline (shared by 5 and 8)."""
    if not _SWEEP:
        rng = Random(20260810)
        reports = []
        start = time.monotonic()
        for _ in range(200):
            n = rng.randint(1, 4)
            r = rng.randint(1, 7)
            arr = random_affine_arrangement(rng, n, r)
            reports.append(compute_betti(arr))
        _SWEEP["reports"] = reports
        _SWEEP["elapsed"] = time.monotonic() - start
    return _SWEEP["reports"], _SWEEP["elapsed"]


def test_criterion_1_general_position_binomials():
    with _report(1, "20 general-position arrangements give b_k = C(r, k) in < 5 s"):
        rng = Random(1)
        start = time.monotonic()
        for _ in range(20):
            n = rng.choice([2, 3])
            r = rng.randint(n + 1, 7)
            arr = random_general_position_arrangement(rng, n, r)
            rep = compute_betti(arr)
            assert rep.general_position
            assert rep.betti == tuple(comb(r, k) for k in range(n + 1))
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_punctured_space():
    with _report(2, "punctured m-space cohomology is {-m: 1, m-1: 1} for m = 1..10"):
        for m in range(1, 11):
            assert punctured_space_cohomology(m) == {-m: 1, m - 1: 1}


def test_criterion_3_binomial_row_identity():
    with _report(3, "bottom-row alternating sum equals 1 for r = 1..20"):
        for r in range(1, 21):
            row = [comb(r, 1 - p) for p in range(-(r - 1), 1)]
            assert last_cohomology_dim(row) == 1


def test_criterion_4_named_examples():
    with _report(4, "Boolean, braid and parallel arrangements match the Moebius oracle"):
        for n in range(1, 7):
            rep = compute_betti(parse_arrangement(boolean_arrangement_text(n)))
            expected = tuple(comb(n, k) for k in range(n + 1))
            assert rep.betti == expected
            assert rep.oracle_betti == expected
            assert rep.agreement

        braid = compute_betti(parse_arrangement(BRAID_A3))
        assert braid.betti == (1, 3, 2, 0)
        assert braid.essential_rank == 2
        assert braid.shift == 1
        assert braid.oracle_betti == (1, 3, 2, 0)
        assert braid.agreement

        parallel = compute_betti(parse_arrangement(PARALLEL_A2))
        assert parallel.betti == (1, 2, 0)
        assert parallel.oracle_betti == (1, 2, 0)
        assert parallel.agreement


def test_criterion_5_oracle_equivalence_sweep():
    with _report(5, "200 randomized arrangements: pipeline = both oracles, E2 degenerate, < 60 s"):
        reports, elapsed = _oracle_sweep()
        assert len(reports) == 200
        for rep in reports:
            assert rep.betti == rep.oracle_betti == rep.oracle_whitney
            assert rep.agreement
            assert degenerates(rep.e2.dims)
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_6_deconing_invariance():
    with _report(6, "20 projective arrangements: Betti independent of the infinity choice"):
        rng = Random(6)
        for _ in range(20):
            n = rng.randint(1, 3)
            r = rng.randint(1, 6)
            arr = random_projective_arrangement(rng, n, r)
            bettis = {compute_betti(arr, infinity_index=k).betti for k in range(r)}
            assert len(bettis) == 1


def test_criterion_7_spectral_engine_suite():
    with _report(7, "50 tensor double complexes: E1 matches, both filtrations converge, < 30 s"):
        rng = Random(7)
        start = time.monotonic()
        for _ in range(50):
            a = random_complex(rng, max_terms=5, max_dim=4)
            b = random_complex(rng, max_terms=5, max_dim=4)
            dc = tensor_double_complex(a, b)
            box = dc.support_box()
            r_max = max(2, max(box[1] - box[0], box[3] - box[2]) + 2)
            h = cohomology_dims(total_complex(dc))
            for filtration, oracle in (
                (HORIZONTAL, row_cohomology),
                (VERTICAL, column_cohomology),
            ):
                pt = pages(dc, filtration, r_max)
                assert pt.page(1) == oracle(dc)
                assert verify_convergence(pt, h)
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_8_row_structure():
    with _report(8, "every nonempty first-page row tops out at p = (1-q-n)/2"):
        reports, _ = _oracle_sweep()
        for rep in reports:
            page = rep.e1
            n = rep.essential_rank
            for q in {qq for _, qq in page.dims if qq != -n}:
                p_top = max(p for (p, qq) in page.dims if qq == q)
                assert (1 - q - n) % 2 == 0
                assert p_top == (1 - q - n) // 2
