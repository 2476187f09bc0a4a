"""Exact rational matrices: stored form, echelon forms, rank, kernels, Kronecker products."""

import tracemalloc
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm
from random import Random

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvbetti import QMatrix
from mvbetti.linalg import (
    echelon_insert,
    integer_kernel_basis,
    integer_row,
    kron,
    pivot_profile,
    restrict_rows,
    rref_entries,
)

from helpers import assert_canonical, at, from_rows, gauss_jordan_rank

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def matrices(draw, max_rows=5, max_cols=5, min_rows=0, min_cols=0):
    rows = draw(st.integers(min_rows, max_rows))
    cols = draw(st.integers(min_cols, max_cols))
    entries = draw(st.lists(rationals, min_size=rows * cols, max_size=rows * cols))
    return QMatrix(rows, cols, entries)


def echelon(m: QMatrix) -> tuple[tuple, tuple]:
    """Primitive integer echelon rows of m's row space and their pivot columns.

    `echelon_insert` folded over m's rows, each scaled to integers.
    """
    rows = pivots = ()
    for i in range(m.rows):
        step = echelon_insert(rows, pivots, integer_row(m.row(i)))
        if step is not None:
            rows, pivots, _ = step
    return rows, pivots


def transpose(m: QMatrix) -> QMatrix:
    rows = [m.row(i) for i in range(m.rows)]
    return QMatrix(m.cols, m.rows, [row[j] for j in range(m.cols) for row in rows])


def column(m: QMatrix, j: int) -> tuple:
    return tuple(m.row(i)[j] for i in range(m.rows))


def pairs(rows) -> list:
    """Dense integer rows as rows of their nonzero (column, value) pairs."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in rows]


def rref(m: QMatrix) -> tuple:
    """(reduced row echelon form, rank, pivot columns) from `echelon` and `rref_entries`."""
    rows, pivots = echelon(m)
    entries = rref_entries(rows, pivots) + [0] * ((m.rows - len(rows)) * m.cols)
    return QMatrix(m.rows, m.cols, entries), len(pivots), pivots


def kernel_basis(m: QMatrix) -> QMatrix:
    """The right kernel basis of `integer_kernel_basis`, one column per free variable."""
    scale, basis = integer_kernel_basis(*echelon(m), m.cols)
    entries = [Fraction(w[i], scale) for i in range(m.cols) for w in basis]
    return QMatrix(m.cols, len(basis), entries)


@pytest.mark.parametrize("bad", [0.1, "3/4", "1e3", Decimal("0.5")])
def test_rejects_non_rational_entries(bad):
    # A float would be stored as its binary expansion and a string parsed by
    # `Fraction`, exponents included; neither is an exact input.
    name = type(bad).__name__
    with pytest.raises(TypeError, match=rf"entry 4 \(row 1, column 1\) is a {name}"):
        QMatrix(2, 3, [1, Fraction(1, 2), 0, 2, bad, 3])
    with pytest.raises(TypeError, match=f"scale factor is a {name}"):
        QMatrix.identity(2).scale(bad)


def stored_entries(m: QMatrix) -> tuple:
    """m.entries, once its stored form is checked.

    One tuple per row of its nonzero (column, numerator) pairs, `int`
    numerators in strictly increasing columns below `cols`, over a positive
    `int` den, in lowest terms.
    """
    assert type(m.data) is tuple and len(m.data) == m.rows
    nums = []
    for row in m.data:
        assert type(row) is tuple and all(type(pair) is tuple and len(pair) == 2 for pair in row)
        columns = [j for j, _ in row]
        assert all(type(j) is int for j in columns)
        assert all(a < b for a, b in zip([-1] + columns, columns + [m.cols]))
        assert all(type(x) is int and x for _, x in row)
        nums += [x for _, x in row]
    assert type(m.den) is int and m.den > 0 and gcd(m.den, *nums) == 1
    return m.entries


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_integer_form_matches_fraction_reference(data):
    rows, cols = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    xs = data.draw(st.lists(rationals, min_size=rows * cols, max_size=rows * cols))
    a = QMatrix(rows, cols, xs)
    assert stored_entries(a) == tuple(xs) and all(type(x) is Fraction for x in a.entries)
    for i in range(rows):
        assert a.row(i) == tuple(xs[i * cols : (i + 1) * cols])
        assert all(at(a, i, j) == xs[i * cols + j] for j in range(cols))
    k = data.draw(rationals)
    assert stored_entries(a.scale(k)) == tuple(k * x for x in xs)
    b = data.draw(matrices(min_rows=cols, max_rows=cols, max_cols=4))
    ys, p = b.entries, b.cols
    product = [
        sum((xs[i * cols + t] * ys[t * p + j] for t in range(cols)), Fraction(0))
        for i in range(rows)
        for j in range(p)
    ]
    assert stored_entries(a @ b) == tuple(product)
    c = data.draw(matrices(max_rows=3, max_cols=3))
    zs = c.entries
    blocks = [
        xs[i * cols + j] * zs[r * c.cols + s]
        for i in range(rows)
        for r in range(c.rows)
        for j in range(cols)
        for s in range(c.cols)
    ]
    assert stored_entries(kron(a, c)) == tuple(blocks)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_every_constructor_gives_the_canonical_form(data):
    # Equality and hashing compare the stored pairs, so each constructor must
    # leave no zero pair, no column out of order and no common factor.
    a = data.draw(matrices())
    b = data.draw(matrices(min_rows=a.cols, max_rows=a.cols))
    c = data.draw(matrices(max_rows=3, max_cols=3))
    k = data.draw(st.one_of(st.just(0), rationals))
    size = a.rows * a.cols
    nums = data.draw(st.lists(st.integers(-6, 6), min_size=size, max_size=size))
    den = data.draw(st.integers(1, 12))
    built = (
        a @ b,
        kron(a, c),
        kron(c, a),
        a.scale(k),
        a.scale(0),
        QMatrix.from_integers(a.rows, a.cols, nums, den),
        QMatrix.zeros(a.rows, a.cols),
        QMatrix.identity(a.cols),
    )
    for m in built:
        stored_entries(m)
        assert_canonical(m)


@given(matrices(), rationals.filter(bool))
@settings(max_examples=60, deadline=None)
def test_integer_form_is_canonical(m, k):
    for same in (m.scale(k).scale(1 / k), m @ QMatrix.identity(m.cols)):
        assert same == m and hash(same) == hash(m)
    zero = QMatrix.zeros(m.rows, m.cols)
    assert m.scale(0) == zero and hash(m.scale(0)) == hash(zero) and zero.den == 1
    # A value: immutable, slotted, equal only to another QMatrix.
    with pytest.raises(AttributeError):
        m.data = ()
    assert not hasattr(m, "__dict__")
    assert m != (m.rows, m.cols, m.data, m.den)
    assert len({m, same}) == 1


def test_rref_identity():
    eye = QMatrix.identity(2)
    reduced, rank, pivots = rref(eye)
    assert reduced == eye
    assert rank == 2
    assert pivots == (0, 1)


def test_rref_dependent_rows():
    m = from_rows([[1, 2], [2, 4]])
    reduced, rank, pivots = rref(m)
    assert reduced == from_rows([[1, 2], [0, 0]])
    assert rank == 1
    assert pivots == (0,)


def test_rank_of_known_factor_product():
    # 5x7 built from full-rank 5x3 and 3x7 factors; blocks of the identity
    # make the factor ranks evident by construction.
    left = from_rows(
        [
            [1, 0, 0],
            [0, 1, 0],
            [0, 0, 1],
            [2, 3, -1],
            [1, 1, 1],
        ]
    )
    right = from_rows(
        [
            [1, 0, 0, 2, -1, 3, 0],
            [0, 1, 0, 1, 1, 0, 5],
            [0, 0, 1, -2, 0, 7, 1],
        ]
    )
    assert left.rank() == 3 and right.rank() == 3
    assert (left @ right).rank() == 3


def test_kernel_trivial_and_full():
    k = kernel_basis(QMatrix.identity(2))
    assert (k.rows, k.cols) == (2, 0)
    k = kernel_basis(QMatrix(1, 3, [0, 0, 0]))
    assert (k.rows, k.cols) == (3, 3)
    assert k.rank() == 3


def test_kernel_explicit():
    m = from_rows([[1, 1, 0], [0, 1, 1]])
    k = kernel_basis(m)
    assert k.cols == 1
    assert column(k, 0) == (Fraction(1), Fraction(-1), Fraction(1))
    assert (m @ k).is_zero()


def test_degenerate_shapes():
    a = QMatrix(0, 3, [])
    b = QMatrix(3, 0, [])
    assert a.rank() == 0 and b.rank() == 0
    assert (a @ b) == QMatrix(0, 0, [])
    assert (b @ a) == QMatrix.zeros(3, 3)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rank_nullity_and_transpose(m):
    rank = m.rank()
    assert rank <= min(m.rows, m.cols)
    assert rank + kernel_basis(m).cols == m.cols
    assert rank == transpose(m).rank()


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rref_idempotent_and_kernel_exact(m):
    reduced, rank, pivots = rref(m)
    again, rank2, pivots2 = rref(reduced)
    assert (again, rank2, pivots2) == (reduced, rank, pivots)
    assert echelon(reduced) == echelon(m)
    assert len(pivots) == rank
    k = kernel_basis(m)
    assert (m @ k).is_zero()
    assert k.rank() == k.cols


@given(matrices(max_rows=3, max_cols=3), matrices(max_rows=3, max_cols=3))
@settings(max_examples=40, deadline=None)
def test_kron_rank_multiplies(a, b):
    assert kron(a, b).rank() == a.rank() * b.rank()


@st.composite
def matrices_with_zero_lines(draw):
    """Matrices up to 6x8 with some rows and columns zeroed and some rows repeated."""
    m = draw(matrices(max_rows=6, max_cols=8))
    zero_rows = draw(st.sets(st.integers(0, 5)))
    zero_cols = draw(st.sets(st.integers(0, 7)))
    rows = [
        [0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
        for i, row in enumerate(map(m.row, range(m.rows)))
    ]
    if rows and m.rows < 6 and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), list(draw(st.sampled_from(rows))))
    return QMatrix(len(rows), m.cols, [x for row in rows for x in row])


@given(matrices_with_zero_lines())
@settings(max_examples=100, deadline=None)
def test_rref_against_sympy(m):
    theirs = sympy.Matrix(m.rows, m.cols, [sympy.Rational(x) for x in m.entries])
    reduced, rank, pivots = rref(m)
    their_rref, their_pivots = theirs.rref()
    assert pivots == tuple(their_pivots)
    assert rank == theirs.rank()
    assert m.rank() == theirs.rank()
    assert gauss_jordan_rank(m) == theirs.rank()
    assert [sympy.Rational(x) for x in reduced.entries] == list(their_rref)
    kernel = kernel_basis(m)
    their_kernel = theirs.nullspace()
    assert (kernel.rows, kernel.cols) == (m.cols, len(their_kernel))
    for j, theirs_j in enumerate(their_kernel):
        assert [sympy.Rational(x) for x in column(kernel, j)] == list(theirs_j)


def flipped_integer_rows(m: QMatrix, flip_rows: bool, flip_cols: bool) -> list:
    """The rows of m as integers, with the rows, the columns or both reversed."""
    ints = [integer_row(m.row(i)) for i in range(m.rows)]
    if flip_cols:
        ints = [row[::-1] for row in ints]
    return ints[::-1] if flip_rows else ints


@given(matrices_with_zero_lines(), st.booleans(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_pivot_profile_gives_every_leading_corner_rank(m, flip_rows, flip_cols):
    # Reversing the rows, the columns or both turns the other three corners
    # of m into leading corners.
    added = pivot_profile(pairs(flipped_integer_rows(m, flip_rows, flip_cols)), m.cols)
    assert len(added) == m.rows
    theirs = sympy.Matrix(m.rows, m.cols, [sympy.Rational(x) for x in m.entries])
    if flip_cols:
        theirs = theirs[:, ::-1]
    if flip_rows:
        theirs = theirs[::-1, :]
    assert sorted(j for j in added if j is not None) == list(theirs.rref()[1])
    for i in range(m.rows + 1):
        for j in range(m.cols + 1):
            ours = sum(1 for q in added[:i] if q is not None and q < j)
            assert ours == theirs[:i, :j].rank(), (i, j)


@st.composite
def sparse_matrices(draw, max_rows=16, max_cols=20):
    """Matrices up to 16x20 with about 10-20% of their entries nonzero, most of them not units."""
    rows, cols = draw(st.integers(0, max_rows)), draw(st.integers(0, max_cols))
    size = rows * cols
    nonzero = draw(
        st.dictionaries(
            st.integers(0, size - 1),
            st.integers(-6, 6).filter(bool),
            min_size=size // 10,
            max_size=size // 5,
        )
        if size
        else st.just({})
    )
    return QMatrix(rows, cols, [nonzero.get(k, 0) for k in range(size)])


@st.composite
def kronecker_matrices(draw):
    """kron(A, I) or kron(I, B), up to 16x20: the block shapes of a tensor double complex."""
    a = draw(sparse_matrices(max_rows=4, max_cols=5).filter(lambda m: m.rows and m.cols))
    eye = QMatrix.identity(draw(st.integers(1, 4)))
    return kron(a, eye) if draw(st.booleans()) else kron(eye, a)


@given(st.one_of(sparse_matrices(), kronecker_matrices()), st.booleans(), st.booleans())
# Row 2 is rescaled by the pivot 2 of row 0, which fills in its column 2;
# clearing that takes a rescale by row 1's pivot 3, and column 3 is left.
@example(from_rows([[2, 0, 1, 0], [0, 0, 3, 1], [1, 0, 0, -1]]), False, False)
@settings(max_examples=100, deadline=None)
def test_pivot_profile_on_sparse_and_kronecker_matrices(m, flip_rows, flip_cols):
    ints = flipped_integer_rows(m, flip_rows, flip_cols)
    added = pivot_profile(pairs(ints), m.cols)
    assert len(added) == m.rows
    for i in range(m.rows + 1):
        for j in range(m.cols + 1):
            corner = QMatrix(i, j, [x for row in ints[:i] for x in row[:j]])
            ours = sum(1 for q in added[:i] if q is not None and q < j)
            assert ours == gauss_jordan_rank(corner), (i, j)


def test_pivot_profile_keeps_its_pivot_rows_primitive():
    # Pivot columns do not depend on the scale of a pivot row, but entry size
    # does: without dividing each stored row by its gcd, cross-multiplication
    # lengthens the entries row after row, and this dense 20x20 fold takes
    # megabytes and seconds instead of kilobytes and milliseconds.
    rng = Random(3)
    rows = [[rng.randint(-9, 9) for _ in range(20)] for _ in range(20)]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        added = pivot_profile(pairs(rows), 20)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert sum(1 for q in added if q is not None) == gauss_jordan_rank(from_rows(rows))
    assert peak < 200_000


def test_pivot_profile_divides_the_free_rows_it_keeps():
    # A row whose first column has no pivot row yet is stored without a
    # scan, and must still be divided by its gcd.  Each staircase row here
    # carries the prime factor 2^2203 - 1 and a pivot of either sign; the
    # dense rows after them are cleared through all 30 pivots.  Kept whole,
    # those pivots would scale a dense row by the factor at almost every
    # step, its entries would grow to tens of thousands of bits, and the
    # fold would take over 100 kB instead of a few kB.
    n, big = 30, 2**2203 - 1
    rng = Random(5)
    rows = []
    for i in range(n):
        row = [0] * n
        row[i] = rng.choice((-1, 1)) * big * rng.randint(2, 9)
        if i + 1 < n:
            row[i + 1] = big * rng.randint(1, 9)
        rows.append(row)
    rows += [[rng.randint(1, 9) for _ in range(n)] for _ in range(3)]
    rows = pairs(rows)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        added = pivot_profile(rows, n)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert added == list(range(n)) + [None] * 3
    assert peak < 40_000


def near_2_200(x: int) -> int:
    """A nonzero x moved out to about +-2^200, keeping its sign; 0 stays 0."""
    return x + 2**200 if x > 0 else x - 2**200 if x < 0 else 0


@given(matrices_with_zero_lines(), st.booleans(), st.booleans(), st.booleans())
# Rows 0 and 1 start in free columns: row 0 is stored divided by -2, as
# (1, 2, 0, -3), and clears row 2 to zero.  Row 3 is cleared at column 1 by
# 2 times row 1 (3 divides 6) and adds column 3; row 4 is scaled by 3 first
# (3 does not divide 2) and adds column 2; row 5 is empty.  Scanned from one
# column late, row 2 would add column 2.
@example(
    from_rows([[-2, -4, 0, 6], [0, 3, 1, 0], [1, 2, 0, -3], [0, 6, 2, 5], [0, 2, 0, 1], [0] * 4]),
    False, False, False,
)
@settings(max_examples=100, deadline=None)
def test_pivot_profile_matches_the_canonical_fold(m, flip_rows, flip_cols, huge):
    # The forward-only fold adds the same pivot per row as folding the
    # canonical (back-substituted) `echelon_insert`, on dense rows as on
    # the rows a `QMatrix` stores.
    ints = flipped_integer_rows(m, flip_rows, flip_cols)
    if huge:
        ints = [[near_2_200(x) for x in row] for row in ints]
    rows = pivots = ()
    added = []
    for row in ints:
        step = echelon_insert(rows, pivots, row)
        if step is None:
            added.append(None)
            continue
        rows, pivots, q = step
        added.append(q)
    assert pivot_profile(pairs(ints), m.cols) == added
    big = from_rows(ints)
    assert pivot_profile(big.data, big.cols) == added
    assert big.rank() == len(pivots)


def _coprime_signed(v) -> tuple:
    """Rationals scaled to coprime integers, the first nonzero one positive."""
    scale = lcm(*(x.denominator for x in v))
    ints = [int(x * scale) for x in v]
    g = gcd(*ints)
    if g and next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints) if g else tuple(ints)


@st.composite
def restriction_cases(draw):
    """(primitive rows, a nonzero row h, a column where h is nonzero); rows often vanish there."""
    width = draw(st.integers(2, 6))
    entries = st.lists(st.integers(-4, 4), min_size=width, max_size=width)
    h = tuple(draw(entries.filter(any)))
    pivot = draw(st.sampled_from([j for j, x in enumerate(h) if x]))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        row = draw(entries)
        if draw(st.booleans()):
            row[pivot] = 0
        rows.append(_coprime_signed([Fraction(x) for x in row]))
    return rows, h, pivot


@given(restriction_cases())
# Rows that contain h, miss it, vanish at the pivot and flip sign.
@example(([(1, 2, 0, 3), (1, 2, 0, 5), (0, 1, 1, 0), (2, -1, 1, 1)], (1, 2, 0, 3), 0))
@settings(max_examples=300, deadline=None)
def test_restrict_rows_matches_fraction_restriction(case):
    # Read each row on the kernel basis e_f - (h[f] / h[p]) e_p (f != p) of h.
    rows, h, p = case
    basis = [[Fraction(i == f) - (Fraction(h[f], h[p]) if i == p else 0) for i in range(len(h))]
             for f in range(len(h)) if f != p]
    on_basis = ([sum(x * y for x, y in zip(row, k)) for k in basis] for row in rows)
    assert restrict_rows(rows, h, p) == [_coprime_signed(v) for v in on_basis]
