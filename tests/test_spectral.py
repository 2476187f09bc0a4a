"""Total complexes, page tables and convergence of the generic engine."""

from dataclasses import fields
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvbetti.linalg
from mvbetti import (
    HORIZONTAL,
    VERTICAL,
    Complex,
    DoubleComplex,
    QMatrix,
    ValidationError,
    cohomology_dims,
    pages,
    parse_double_complex,
    tensor_double_complex,
    total_complex,
    verify_convergence,
)
from mvbetti.generate import random_complex

from helpers import (
    column_cohomology,
    kunneth_product,
    module_imports,
    reference_pages,
    row_cohomology,
    square_defects,
)

ONE = QMatrix.from_rows([[1]])
ONE_ONE = QMatrix.from_rows([[1, 1]])


def two_term_identity():
    return Complex({0: 1, 1: 1}, {0: ONE})


def exact_square():
    return tensor_double_complex(two_term_identity(), two_term_identity())


def test_spectral_module_imports_no_rational_forms():
    # The engine assembles, checks and folds each D(n) on the integer
    # numerators that `QMatrix` stores, so it needs no `Fraction` and no
    # per-row conversion to integers.
    modules, names = module_imports("spectral")
    assert "fractions" not in modules
    assert not names & {"Fraction", "integer_row"}


def test_total_single_object():
    tc = total_complex(DoubleComplex({(0, 0): 1}, {}, {}))
    assert tc.dims == {0: 1}
    assert cohomology_dims(tc) == {0: 1}


def test_total_exact_square():
    tc = total_complex(exact_square())
    assert tc.dims == {0: 1, 1: 2, 2: 1}
    assert tc.d(0).rank() == 1 and tc.d(1).rank() == 1
    assert cohomology_dims(tc) == {}


def test_total_empty_support():
    tc = total_complex(DoubleComplex({}, {}, {}))
    assert tc.dims == {}
    assert cohomology_dims(tc) == {}


def block_sum(x: Complex, y: Complex) -> Complex:
    """Direct sum of two complexes, with block-diagonal differentials."""
    dims = {n: x.dim(n) + y.dim(n) for n in set(x.dims) | set(y.dims)}
    diff = {}
    for n in dims:
        dx, dy = x.d(n), y.d(n)
        top = [list(dx.row(i)) + [0] * y.dim(n) for i in range(dx.rows)]
        bottom = [[0] * x.dim(n) + list(dy.row(i)) for i in range(dy.rows)]
        entries = [e for row in top + bottom for e in row]
        diff[n] = QMatrix(dx.rows + dy.rows, dims[n], entries)
    return Complex(dims, diff)


def test_cohomology_additive_over_direct_sum():
    a = random_complex(Random(3))
    b = random_complex(Random(4))
    tot_a = total_complex(tensor_double_complex(a, b))
    tot_b = total_complex(tensor_double_complex(b, b))
    h_a, h_b = cohomology_dims(tot_a), cohomology_dims(tot_b)
    assert h_a and h_b
    summed = block_sum(tot_a, tot_b)
    assert set(tot_a.dims) & set(tot_b.dims)
    h_sum = cohomology_dims(summed)
    for n in set(summed.dims) | set(h_a) | set(h_b):
        assert h_sum.get(n, 0) == h_a.get(n, 0) + h_b.get(n, 0)


def test_double_complex_invariants_enforced():
    cases = [
        # one defect each; the error names the identity and its source cell
        ({(0, 0): 1, (1, 0): 1, (2, 0): 1}, {(0, 0): ONE, (1, 0): ONE}, {},
         "d_horiz o d_horiz != 0 at (0,0)"),
        ({(0, 0): 1, (0, 1): 1, (0, 2): 1}, {}, {(0, 0): ONE, (0, 1): ONE},
         "d_vert o d_vert != 0 at (0,0)"),
        ({(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}, {(0, 0): ONE, (0, 1): ONE},
         {(0, 0): ONE, (1, 0): ONE}, "differentials do not anticommute at (0,0)"),
        # the same defects at a cell other than (0,0), in a degree of two cells
        ({(1, 0): 1, (0, 1): 1, (1, 1): 1, (2, 1): 1}, {(0, 1): ONE, (1, 1): ONE}, {},
         "d_horiz o d_horiz != 0 at (0,1)"),
        ({(0, 1): 1, (1, 0): 1, (1, 1): 1, (1, 2): 1}, {}, {(1, 0): ONE, (1, 1): ONE},
         "d_vert o d_vert != 0 at (1,0)"),
        ({(1, 0): 1, (0, 1): 1, (1, 1): 1, (0, 2): 1, (1, 2): 1},
         {(0, 1): ONE, (0, 2): ONE}, {(0, 1): ONE, (1, 1): ONE},
         "differentials do not anticommute at (0,1)"),
        # two-dimensional cells: the defect is in the second basis vector of
        # the second cell of degree 1, and lands in the second cell of degree 3
        ({(0, 1): 2, (1, 0): 2, (2, 0): 2, (2, 1): 1, (3, 0): 1},
         {(1, 0): QMatrix.identity(2), (2, 0): QMatrix.from_rows([[0, 1]])}, {},
         "d_horiz o d_horiz != 0 at (1,0)"),
    ]
    for dims, d_horiz, d_vert, message in cases:
        assert square_defects(dims, d_horiz, d_vert) == {message}
        with pytest.raises(ValidationError) as err:
            DoubleComplex(dims, d_horiz, d_vert)
        assert str(err.value) == message
    # Several defects: the error names the first nonzero entry of D^2 by
    # degree, then by row, whose cells are sorted by first index.
    dims = {(0, 0): 1, (1, 0): 1, (2, 0): 1, (0, 1): 1, (0, 2): 1}
    d_horiz, d_vert = {(0, 0): ONE, (1, 0): ONE}, {(0, 0): ONE, (0, 1): ONE}
    assert square_defects(dims, d_horiz, d_vert) == {
        "d_horiz o d_horiz != 0 at (0,0)",
        "d_vert o d_vert != 0 at (0,0)",
    }
    with pytest.raises(ValidationError, match=r"^d_vert o d_vert != 0 at \(0,0\)$"):
        DoubleComplex(dims, d_horiz, d_vert)
    with pytest.raises(ValidationError, match="shape"):
        DoubleComplex({(0, 0): 2, (1, 0): 1}, {(0, 0): ONE}, {})
    # A plain complex checks every map's shape, also where an end has
    # dimension 0 or no dimension is given, before it drops such a map.
    for dims, diff, shape in (
        ({0: 2}, {0: QMatrix.from_rows([[1, 0], [0, 1], [1, 1]])}, "3x2, expected 0x2"),
        ({0: 2, 1: 0}, {0: QMatrix.zeros(3, 2)}, "3x2, expected 0x2"),
        ({1: 1}, {3: QMatrix.zeros(1, 2)}, "1x2, expected 0x0"),
        ({0: 1, 1: 1}, {0: ONE, 1: ONE}, "1x1, expected 0x1"),
        ({0: 2, 1: 1}, {0: ONE}, "1x1, expected 1x2"),
    ):
        with pytest.raises(ValidationError, match=rf"^differential at degree \d has shape {shape}$"):
            Complex(dims, diff)
    # Maps with a zero-dimensional end pass and are dropped.
    c = Complex({0: 2, 1: 0}, {0: QMatrix.zeros(0, 2), -1: QMatrix.zeros(2, 0)})
    assert c.diff == {} and c.d(0) == QMatrix.zeros(0, 2)
    # A plain complex locates the first nonzero entry of d(p+1) d(p).
    with pytest.raises(ValidationError, match=r"^d o d != 0 at degree 0$") as err:
        Complex({0: 1, 1: 2, 2: 1}, {0: QMatrix.from_rows([[0], [1]]), 1: ONE_ONE})
    assert err.value.entry == (0, 0, 0)


def test_engine_folds_forward_only(monkeypatch):
    # Ranks and bars come from `pivot_profile`'s forward-only fold; the
    # back-substituting `echelon_insert` is for canonical forms only.
    calls = []
    insert = mvbetti.linalg.echelon_insert
    monkeypatch.setattr(
        mvbetti.linalg, "echelon_insert", lambda *args: calls.append(args) or insert(*args)
    )
    dc = tensor_double_complex(*(random_complex(Random(seed)) for seed in (1, 2)))
    assert cohomology_dims(total_complex(dc))
    for filtration in (HORIZONTAL, VERTICAL):
        assert pages(dc, filtration, _r_max(dc)).bars
    assert calls == []
    # The counter is live: the canonical form does go through it.
    dc.dh(*next(iter(dc.d_horiz))).echelon()
    assert calls


def test_pages_single_object():
    pt = pages(DoubleComplex({(0, 0): 1}, {}, {}), VERTICAL, 4)
    for r in range(5):
        assert pt.page(r) == {(0, 0): 1}
    assert pt.stable_at == 0


def test_pages_exact_square_vanish():
    dc = exact_square()
    for filtration in (HORIZONTAL, VERTICAL):
        pt = pages(dc, filtration, 3)
        assert pt.page(1) == {}
        assert pt.page(2) == {}
        assert verify_convergence(pt, {})


@pytest.mark.parametrize("r_max, stable_at", [(2, 1), (3, 4), (4, 3)])
def test_pages_staircase_d2(r_max, stable_at):
    # (0,1) -dh-> (1,1) <-dv- (1,0) -dh-> (2,0): the vertical d1 kills the
    # middle pair, and d2 from (0,1) to (2,0) kills the rest on page 3.  With
    # r_max = 2 that death lies past the table, so the pages look stable
    # from 1; with r_max = 3 it is the terminal page, which proves nothing.
    cells = {(0, 1): 1, (1, 1): 1, (1, 0): 1, (2, 0): 1}
    dc = DoubleComplex(cells, {(0, 1): ONE, (1, 0): ONE}, {(1, 0): ONE})
    pt = pages(dc, VERTICAL, r_max)
    assert pt.page(0) == cells
    assert pt.page(1) == pt.page(2) == {(0, 1): 1, (2, 0): 1}
    for r in range(3, r_max + 1):
        assert pt.page(r) == {}
    assert pt.page(-1) == pt.page(r_max + 1) == {}
    assert pt.stable_at == stable_at
    horizontal = pages(dc, HORIZONTAL, r_max)
    assert horizontal.page(1) == {} and horizontal.stable_at == 1
    assert cohomology_dims(total_complex(dc)) == {}


def test_pages_independent_of_the_spread():
    # Two cells 10^9 apart and no differential: no bar, so every page is E_0,
    # and nothing is stored or scanned per r.
    dims = {(0, 0): 1, (10**9, 0): 1}
    for filtration in (HORIZONTAL, VERTICAL):
        pt = pages(DoubleComplex(dims, {}, {}), filtration, 10**9 + 2)
        assert pt.stable_at == 0
        assert pt.page(1) == pt.limit() == dims


def test_pages_zero_differentials_degenerate_at_one():
    z = Complex({0: 2, 2: 3}, {})
    dc = tensor_double_complex(z, z)
    pt = pages(dc, VERTICAL, 3)
    assert pt.page(1) == dict(dc.dims)
    assert pt.limit() == dict(dc.dims)
    assert pt.stable_at <= 1


def test_pages_requires_rmax():
    with pytest.raises(ValidationError):
        pages(DoubleComplex({(0, 0): 1}, {}, {}), VERTICAL, 1)


def test_single_column_collapses():
    c = Complex({0: 2, 1: 3, 2: 1}, {0: QMatrix.from_rows([[1, 0], [0, 1], [0, 0]])})
    dc = tensor_double_complex(Complex({0: 1}, {}), c)
    assert all(p == 0 for (p, _) in dc.dims)
    h = cohomology_dims(total_complex(dc))
    pt = pages(dc, VERTICAL, 3)
    for r in (2, 3):
        page = pt.page(r)
        assert all(p == 0 for (p, _) in page)
        assert {q: d for (_, q), d in page.items()} == h
    assert verify_convergence(pt, h)


def test_tensor_single_objects():
    dc = tensor_double_complex(Complex({0: 1}, {}), Complex({0: 1}, {}))
    assert dc.dims == {(0, 0): 1}


def test_tensor_matches_hand_square():
    dc = exact_square()
    assert dc.dims == {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    assert dc.dh(0, 0) == ONE and dc.dh(0, 1) == ONE
    assert dc.dv(0, 0) == ONE and dc.dv(1, 0) == ONE.scale(-1)


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_random_tensor_complexes_full_suite(seed):
    rng = Random(seed)
    a = random_complex(rng, max_terms=4, max_dim=3)
    b = random_complex(rng, max_terms=4, max_dim=3)
    dc = tensor_double_complex(a, b)
    box = dc.support_box()
    width, height = box[1] - box[0] + 1, box[3] - box[2] + 1
    r_max = max(2, max(width, height) + 1)
    h = cohomology_dims(total_complex(dc))
    ha, hb = cohomology_dims(a), cohomology_dims(b)
    assert h == kunneth_product(ha, hb)
    kunneth_grid = {(p, q): x * y for p, x in ha.items() for q, y in hb.items()}
    for filtration, oracle in ((HORIZONTAL, row_cohomology), (VERTICAL, column_cohomology)):
        pt = pages(dc, filtration, r_max)
        assert pt.page(0) == dict(dc.dims)
        assert pt.page(1) == oracle(dc)
        assert verify_convergence(pt, h)
        assert pt.stable_at <= max(width, height) + 1
        euler = {
            sum((-1) ** (p + q) * d for (p, q), d in pt.page(r).items())
            for r in range(r_max + 1)
        }
        assert len(euler) == 1
        for r in range(2, r_max + 1):
            assert pt.page(r) == kunneth_grid


def _basis_change(rng: Random, n: int) -> tuple:
    """(g, g^-1) for a random invertible n x n rational matrix, as QMatrices."""
    g = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in g]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            # Row i of g times t, column i of g^-1 divided by t.
            t = Fraction(rng.choice([-2, -1, 2, 3]), rng.choice([1, 2, 3]))
            g[i] = [t * x for x in g[i]]
            for row in inv:
                row[i] /= t
        else:
            # Row i of g plus t times row j, column j of g^-1 minus t times column i.
            t = rng.choice([-2, -1, 1, 2])
            g[i] = [x + t * y for x, y in zip(g[i], g[j])]
            for row in inv:
                row[j] -= t * row[i]
    return QMatrix.from_rows(g), QMatrix.from_rows(inv)


def zigzag_sum(rng: Random) -> DoubleComplex:
    """Direct sum of random zigzag staircases, in a random basis of each cell.

    A staircase runs down and to the right through one-dimensional cells,
    alternately sources (total degree n) and targets (degree n + 1): a
    source's d_horiz hits the target to its right, and a target is hit by
    the d_vert of the source below it, each with a random nonzero
    coefficient.  Targets map nowhere, so every composite vanishes: d^2 = 0
    and the differentials anticommute.  A direct sum keeps that, and so does
    an invertible change of basis in each cell, which also mixes the
    summands that share a cell.
    """
    dims = {}
    edges = []  # (kind, source cell, source index, target index)

    def add(cell):
        dims[cell] = dims.get(cell, 0) + 1
        return dims[cell] - 1

    for _ in range(rng.randint(1, 4)):
        cell = (rng.randint(-1, 2), rng.randint(-1, 3))
        index, source = add(cell), rng.random() < 0.5
        for _ in range(rng.randint(0, 7)):
            p, q = cell
            nxt = (p + 1, q) if source else (p, q - 1)
            j = add(nxt)
            edges.append(("h", cell, index, j) if source else ("v", nxt, j, index))
            cell, index, source = nxt, j, not source
    entries = {}
    for kind, (p, q), i, j in edges:
        tgt = (p + 1, q) if kind == "h" else (p, q + 1)
        block = entries.setdefault((kind, (p, q)), [[0] * dims[(p, q)] for _ in range(dims[tgt])])
        block[j][i] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))
    change = {cell: _basis_change(rng, d) for cell, d in dims.items()}
    maps = {"h": {}, "v": {}}
    for (kind, (p, q)), block in entries.items():
        tgt = (p + 1, q) if kind == "h" else (p, q + 1)
        maps[kind][(p, q)] = change[tgt][0] @ QMatrix.from_rows(block) @ change[(p, q)][1]
    return DoubleComplex(dims, maps["h"], maps["v"])


def _r_max(dc: DoubleComplex) -> int:
    box = dc.support_box()
    return max(2, box[1] - box[0] + 2, box[3] - box[2] + 2)


@given(st.integers(0, 10_000))
@settings(max_examples=120, deadline=None)
def test_pages_match_reference_on_zigzag_sums(seed):
    dc = zigzag_sum(Random(seed))
    r_max = _r_max(dc)
    h = cohomology_dims(total_complex(dc))
    for filtration in (HORIZONTAL, VERTICAL):
        pt = pages(dc, filtration, r_max)
        table = {(r, *cell): d for r in range(r_max + 1) for cell, d in pt.page(r).items()}
        assert table == reference_pages(dc, filtration, r_max)
        assert verify_convergence(pt, h)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_total_differential_is_the_blockwise_sum(seed):
    # D(n) is assembled from the blocks' integer rows over the lcm of their
    # denominators; the reference places the blocks' Fraction entries.
    dc = zigzag_sum(Random(seed))
    total = total_complex(dc)
    for n in {p + q for p, q in dc.dims}:
        sources = sorted(cell for cell in dc.dims if sum(cell) == n)
        targets = sorted(cell for cell in dc.dims if sum(cell) == n + 1)
        rows = []
        for target in targets:
            for i in range(dc.dims[target]):
                row = []
                for a, b in sources:
                    maps = {(a + 1, b): dc.dh(a, b), (a, b + 1): dc.dv(a, b)}
                    row += maps[target].row(i) if target in maps else [0] * dc.dims[(a, b)]
                rows.append(row)
        width = sum(dc.dims[cell] for cell in sources)
        assert total.d(n) == QMatrix(len(rows), width, [x for row in rows for x in row])


def _perturb_one_entry(rng: Random, dc: DoubleComplex) -> dict:
    """d_horiz and d_vert of dc, one entry of one block changed (a missing block is zero)."""
    maps = {"d_horiz": dict(dc.d_horiz), "d_vert": dict(dc.d_vert)}
    slots = [
        (name, (p, q), target)
        for p, q in dc.dims
        for name, target in (("d_horiz", (p + 1, q)), ("d_vert", (p, q + 1)))
        if target in dc.dims
    ]
    if slots:
        name, cell, target = rng.choice(slots)
        block = maps[name].get(cell, QMatrix.zeros(dc.dims[target], dc.dims[cell]))
        rows = [list(block.row(i)) for i in range(block.rows)]
        rows[rng.randrange(block.rows)][rng.randrange(block.cols)] += rng.choice([-2, -1, 1, 3])
        maps[name][cell] = QMatrix.from_rows(rows)
    return maps


@given(st.integers(0, 10_000), st.booleans())
@settings(max_examples=80, deadline=None)
def test_construction_check_matches_blockwise_reference(seed, perturb):
    # D^2 = 0 on the total differential against the three identities tested
    # block by block: a valid double complex, or one with one entry changed,
    # is rejected exactly when an identity fails, naming a failing one.
    rng = Random(seed)
    if rng.random() < 0.5:
        a = random_complex(rng, max_terms=4, max_dim=3)
        dc = tensor_double_complex(a, random_complex(rng, max_terms=4, max_dim=3))
    else:
        dc = zigzag_sum(rng)
    maps = _perturb_one_entry(rng, dc) if perturb else {"d_horiz": dc.d_horiz, "d_vert": dc.d_vert}
    expected = square_defects(dc.dims, maps["d_horiz"], maps["d_vert"])
    if not expected:
        DoubleComplex(dc.dims, **maps)
        return
    with pytest.raises(ValidationError) as err:
        DoubleComplex(dc.dims, **maps)
    assert str(err.value) in expected


def test_zigzag_sums_have_late_differentials():
    # Over Q a tensor product degenerates at E2 (Kunneth), so only inputs
    # like these reach the d_r with r >= 2 of either filtration.
    late = {HORIZONTAL: 0, VERTICAL: 0}
    for seed in range(40):
        dc = zigzag_sum(Random(seed))
        r_max = _r_max(dc)
        for filtration in late:
            pt = pages(dc, filtration, r_max)
            late[filtration] += any(pt.page(r) != pt.page(r + 1) for r in range(2, r_max))
    assert min(late.values()) >= 5, late


def test_parse_round_trip():
    text = """
    dims
    0 0 1
    1 0 1
    0 1 1
    1 1 1
    dh 0 0
    1
    dh 0 1
    1
    dv 0 0
    1
    dv 1 0
    -1
    """
    dc = parse_double_complex(text)
    # What construction assembles is derived: neither equality nor repr sees it.
    assert dc == exact_square()
    derived = [f.name for f in fields(dc) if not f.init]
    assert derived and not any(name in repr(dc) for name in derived)
    assert dc.dh(0, 0) == ONE
    assert dc.dv(1, 0) == ONE.scale(-1)
    pt = pages(dc, VERTICAL, 3)
    assert pt.page(2) == {}


@pytest.mark.parametrize("blocks", ["dv 0 0\n", "dv 0 0\ndh 0 0\ndv 1 0\n"])
def test_parse_block_from_zero_dimensional_cell(blocks):
    # A tgt x 0 block has no rows to write (each would be a blank line), as
    # the last block or followed by another header.
    dc = parse_double_complex("dims\n0 0 0\n0 1 1\n1 0 1\n" + blocks)
    assert dc.dims == {(0, 1): 1, (1, 0): 1}
    assert not dc.d_horiz and not dc.d_vert
    assert pages(dc, VERTICAL, 2).page(2) == {(0, 1): 1, (1, 0): 1}


def test_parse_errors():
    from mvbetti import ParseError

    with pytest.raises(ParseError, match="dims"):
        parse_double_complex("dh 0 0\n1\n")
    with pytest.raises(ParseError, match="truncated"):
        parse_double_complex("dims\n0 0 1\n1 0 2\ndh 0 0\n1\n")
    with pytest.raises(ParseError, match="expected 1 entries"):
        parse_double_complex("dims\n0 0 1\n1 0 1\ndh 0 0\n1 2\n")
    with pytest.raises(ParseError, match="duplicate dims entry") as err:
        parse_double_complex("dims\n0 0 1\n0 0 2\n")
    assert err.value.line == 3
    # The running total of the dimensions is capped before any matrix is built.
    with pytest.raises(ParseError, match="exceeds the limit") as err:
        parse_double_complex("dims\n0 0 100000\n1 0 100000\n")
    assert err.value.line == 2
    with pytest.raises(ParseError, match="total dimension 1001") as err:
        parse_double_complex("dims\n0 0 600\n1 0 401\n")
    assert err.value.line == 3
    assert parse_double_complex("dims\n0 0 600\n1 0 400\n").dim(1, 0) == 400
    # Dimensions and positions are ASCII digits only: no underscores, no
    # other scripts' digits.
    for field in ("1_0", "\u0661"):
        with pytest.raises(ParseError, match="bad integer") as err:
            parse_double_complex(f"dims\n0 0 {field}\n")
        assert err.value.line == 2
        with pytest.raises(ParseError, match="bad integer") as err:
            parse_double_complex(f"dims\n0 0 1\n{field} 0 1\n")
        assert err.value.line == 3
        for block in (f"dh {field} 0", f"dv 0 {field}"):
            with pytest.raises(ParseError, match="bad position") as err:
                parse_double_complex(f"dims\n0 0 1\n1 0 1\n0 1 1\n{block}\n1\n")
            assert err.value.line == 5
    # Matrix entries are integers or p/q: no exponents, no decimals.
    for field in ("1e10000000", "1.5"):
        with pytest.raises(ParseError, match="bad rational") as err:
            parse_double_complex(f"dims\n0 0 1\n1 0 1\ndh 0 0\n{field}\n")
        assert err.value.line == 5
