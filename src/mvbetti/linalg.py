"""Exact linear algebra over the rationals, and the integer row steps.

Every rank and kernel in this package is exact; there is no floating point
anywhere.  A `QMatrix` is stored as sparse integer rows over one positive
denominator in lowest terms (the storage form of fraction-free elimination,
Bareiss, Math. Comp. 22, 1968): each row is the tuple of its nonzero
(column, numerator) pairs, in column order.  It takes only `int` and
`Fraction` entries and hands out `Fraction`s on demand.  Products,
Kronecker products and scaling run on the pairs and reduce the denominator
once.  Matrices are immutable and degenerate shapes (0xk, kx0) are legal,
behaving as rank-0 maps.

Hyperplanes, flats and the elimination all live on integer rows.  A row is
canonical when it is `primitive`: divided by the gcd of its entries and
signed so that its first nonzero entry is positive.  `restrict_rows` writes
a list of rows in the coordinates of another row's hyperplane by integer
cross-multiplication, one pivot for the whole list, and makes each one
canonical through `primitive`; deconing and the flat count both restrict
through it.
Rows are reduced by the same cross-multiplication, two ways.
`pivot_profile` folds (column, value) rows forward only and records the
pivot column each row adds: the rank of every leading corner block at once.
It keeps its pivot rows as pairs too, so clearing a column touches only the
pivot row's nonzero entries.  A row whose first column has no pivot row yet
is stored straight from its pairs, made primitive; any other row is scanned
from its first column, and scaled only at a pivot that does not divide its
entry there.  `QMatrix.rank` folds a matrix's stored rows.
`echelon_insert` keeps the primitive echelon rows of a row space (its rref
rows scaled to coprime integers with positive pivots, a unique form) that
flats and kernels need, as tuples with every column.  It runs in two
halves: `echelon_reduce` clears the pivot columns of a row of integers, one
per column, and hands the raw reduced row on, and `back_substitute` makes
it primitive, the one normalisation, and clears the new pivot column from
the other rows.  The flat sweep runs the second half only when the first
finds a new nonempty flat, so an empty cut is never normalised.
`rref_entries` and `integer_kernel_basis` read the reduced rows and a
kernel basis off them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable


@dataclass(frozen=True, slots=True, init=False, repr=False)
class QMatrix:
    """Immutable matrix of rationals: sparse integer rows over one denominator.

    `data[i]` is the tuple of row i's nonzero (column, numerator) pairs, in
    column order, each numerator an `int`, and `den` the positive `int`
    denominator, in lowest terms: gcd(den, *numerators) == 1, so a zero
    matrix has den == 1.  That form is unique, so equal matrices have equal
    fields, and the frozen dataclass compares and hashes them by value.
    `entries` and `row` build `Fraction`s on demand; the elimination folds
    `data` itself, which has the pivots of the matrix.
    """

    rows: int
    cols: int
    data: tuple
    den: int

    def __init__(self, rows: int, cols: int, entries: Iterable):
        """The matrix with the given row-major entries, each an `int` or a `Fraction`."""
        entries = tuple(entries)
        _check_shape(rows, cols, len(entries))
        for k, x in enumerate(entries):
            if not isinstance(x, (int, Fraction)):
                raise TypeError(
                    f"entry {k} (row {k // cols}, column {k % cols}) is a "
                    f"{type(x).__name__}, not an int or Fraction"
                )
        # The lcm of reduced denominators leaves the numerators coprime to it.
        den = lcm(*(x.denominator for x in entries))
        nums = [x.numerator * (den // x.denominator) for x in entries]
        self._set(rows, cols, _pairs(rows, cols, nums), den)

    def _set(self, rows: int, cols: int, data: tuple, den: int) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "den", den)

    @classmethod
    def _of(cls, rows: int, cols: int, data: tuple, den: int = 1) -> "QMatrix":
        """The matrix data / den, both already checked and in lowest terms."""
        m = cls.__new__(cls)
        m._set(rows, cols, data, den)
        return m

    @classmethod
    def _lowest(cls, rows: int, cols: int, data: tuple, den: int) -> "QMatrix":
        """The matrix data / den, with both divided by gcd(den, *numerators)."""
        if den != 1:
            g = gcd(den, *(x for row in data for _, x in row))
            if g != 1:
                data = tuple([tuple([(j, x // g) for j, x in row]) for row in data])
                den //= g
        return cls._of(rows, cols, data, den)

    @classmethod
    def from_integers(cls, rows: int, cols: int, nums: Iterable, den: int = 1) -> "QMatrix":
        """The matrix with row-major entries nums[k] / den: `int` numerators, `den` > 0."""
        nums = tuple(nums)
        _check_shape(rows, cols, len(nums))
        if den < 1:
            raise ValueError(f"denominator {den} is not positive")
        return cls._lowest(rows, cols, _pairs(rows, cols, nums), den)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "QMatrix":
        return cls._of(rows, cols, ((),) * rows)

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls._of(n, n, tuple([((i, 1),) for i in range(n)]))

    @property
    def entries(self) -> tuple:
        """The entries as `Fraction`s, row-major."""
        return tuple([x for i in range(self.rows) for x in self.row(i)])

    def row(self, i: int) -> tuple:
        pairs = dict(self.data[i])
        return tuple([Fraction(pairs.get(j, 0), self.den) for j in range(self.cols)])

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"QMatrix({self.rows}x{self.cols}: [{body}])"

    def is_zero(self) -> bool:
        return not any(self.data)

    def scale(self, k) -> "QMatrix":
        if not isinstance(k, (int, Fraction)):
            raise TypeError(f"scale factor is a {type(k).__name__}, not an int or Fraction")
        if not k:
            return QMatrix.zeros(self.rows, self.cols)
        a = k.numerator
        data = tuple([tuple([(j, a * x) for j, x in row]) for row in self.data])
        return QMatrix._lowest(self.rows, self.cols, data, self.den * k.denominator)

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        b = other.data
        data = []
        for row in self.data:
            out = {}
            for k, x in row:
                for j, y in b[k]:
                    out[j] = out.get(j, 0) + x * y
            data.append(tuple(sorted([(j, z) for j, z in out.items() if z])))
        return QMatrix._lowest(self.rows, other.cols, tuple(data), self.den * other.den)

    def rank(self) -> int:
        return sum(q is not None for q in pivot_profile(self.data, self.cols))


def _pairs(rows: int, cols: int, nums) -> tuple:
    """Row-major integers `nums` as one tuple of (column, value) pairs per row."""
    return tuple(
        [tuple([(j, x) for j, x in enumerate(nums[i * cols : i * cols + cols]) if x])
         for i in range(rows)]
    )


def _check_shape(rows: int, cols: int, count: int) -> None:
    if rows < 0 or cols < 0:
        raise ValueError(f"negative shape {rows}x{cols}")
    if count != rows * cols:
        raise ValueError(f"{rows}x{cols} matrix needs {rows * cols} entries, got {count}")


def integer_row(row) -> list:
    """A row of rationals as integers, scaled by the lcm of its denominators."""
    scale = lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row]


def _primitive(v, sign) -> tuple:
    """v divided by sign * gcd(v)."""
    g = sign * gcd(*v)
    return tuple(v) if g == 1 else tuple([x // g for x in v])


def primitive(v) -> tuple:
    """v divided by the gcd of its entries, signed so its first nonzero entry is positive."""
    for x in v:
        if x:
            return _primitive(v, -1 if x < 0 else 1)
    return tuple(v)


def restrict_rows(rows: Iterable, h, pivot: int) -> list:
    """Each of `rows` restricted to the hyperplane of the row `h`, which is nonzero at `pivot`.

    Every row is read as a homogeneous equation, the last column the affine
    one.  The integer kernel basis of h has one vector per column f other
    than the pivot p, h[p] at f and -h[f] at p (`integer_kernel_basis`), so
    a restricted equation has the entries h[p] row[f] - row[p] h[f],
    column p left out, made `primitive`.  When row[p] is 0 that is the row
    without column p, which is primitive already.  All zero means the
    hyperplane of `row` contains that of h, a zero direction part
    (0, ..., 0, 1) that it misses it, and otherwise it cuts it in a
    hyperplane; two rows cut it in the same place exactly when their
    restrictions are equal.  The rows are primitive tuples, and so are the
    restrictions, returned in order.
    """
    a, q = h[pivot], pivot + 1
    out = []
    for row in rows:
        b = row[pivot]
        if not b:
            out.append(row[:pivot] + row[q:])
            continue
        v = [a * x - b * y for x, y in zip(row, h)]
        del v[pivot]
        out.append(primitive(v))
    return out


def echelon_reduce(rows: tuple, pivots: tuple, row) -> tuple[list | tuple, int] | None:
    """(v, q): the integer `row` reduced by primitive echelon `rows` with pivot columns `pivots`.

    The row's entries in the pivot columns are cleared by integer
    cross-multiplication with the rows, and v is what is left, as it is:
    not yet primitive, its first nonzero entry in column q; None if the
    row lies in their span.  Each row is zero in the other rows' pivot
    columns, so no clearing refills a column already cleared.  This is the
    first half of `echelon_insert`; q tells the caller whether the second,
    `back_substitute`, which makes v primitive, is needed at all.
    """
    v = row
    for other, j in zip(rows, pivots):
        x = v[j]
        if x:
            a = other[j]
            v = [a * vi - x * oi for vi, oi in zip(v, other)]
    for q, x in enumerate(v):
        if x:
            return v, q
    return None


def back_substitute(rows: tuple, pivots: tuple, v, q: int) -> tuple[tuple, tuple]:
    """The primitive echelon rows and pivots of `rows` with the reduced row v, pivot q, added.

    v comes from `echelon_reduce`, and is made primitive here, with its
    pivot positive.  Its pivot column q is cleared from the other rows by
    integer cross-multiplication, which keeps the form canonical, and v
    goes in at its place in pivot order.
    """
    v = _primitive(v, -1 if v[q] < 0 else 1)
    b = v[q]
    out = []
    at = 0
    for other, j in zip(rows, pivots):
        # Only rows pivoting left of q can be nonzero in column q.
        if j < q:
            at += 1
            y = other[q]
            if y:
                other = _primitive([b * oi - y * vi for oi, vi in zip(other, v)], 1)
        out.append(other)
    out.insert(at, v)
    return tuple(out), pivots[:at] + (q,) + pivots[at:]


def echelon_insert(rows: tuple, pivots: tuple, row) -> tuple[tuple, tuple, int] | None:
    """Add the integer `row` to primitive echelon `rows` with pivot columns `pivots`.

    `echelon_reduce`, then `back_substitute`: None if the row lies in the
    rows' span, else the new rows and pivot columns, in pivot order, and
    the pivot column the row adds.
    """
    step = echelon_reduce(rows, pivots, row)
    return None if step is None else (*back_substitute(rows, pivots, *step), step[1])


def pivot_profile(rows: Iterable, width: int) -> list:
    """The pivot column each (column, value) row adds to the rows before it, or None.

    Each row is the sequence of its nonzero (column, value) pairs, in
    strictly increasing column order, every column below `width`; so its
    first pair holds its first nonzero column, and an empty row is zero.
    Every echelon form of a row space has the same pivot columns, so the
    fold keeps an echelon form with no back-substitution: one pivot row per
    pivot column q, the list of its nonzero (column, value) pairs, zero
    left of q, so its first pair is (q, a) with a > 0.  A row whose first
    column has no pivot row adds that column as it is: it is divided by its
    gcd, signed so the pivot is positive, and stored.  Any other row is
    spread into a list of `width` integers and scanned from its first
    column on.  At a nonzero entry x in a pivot column, x / a times the
    pivot row's pairs are taken off when a divides x; otherwise the row is
    scaled by a and x times the pairs are taken off.  Either way the column
    is cleared, the columns left of it stay zero, only the pairs are
    subtracted, and the row is a positive multiple of what scaling at
    every step would give, so the pivots and the stored rows do not depend
    on which steps divide.  The first nonzero column with no pivot row is
    the pivot the row adds, and the rest of the row is stored as above.
    The rank of every leading corner rows[:i] x columns[:j] is the number
    of rows before i whose pivot lies left of column j (the rank profile
    of Dumas, Pernet and Sultan, ISSAC 2015).
    """
    echelon, added = {}, []
    for row in rows:
        if not row:
            added.append(None)
            continue
        first, x = row[0]
        if first not in echelon:
            g = gcd(*[y for _, y in row]) if x > 0 else -gcd(*[y for _, y in row])
            echelon[first] = [(c, y // g) for c, y in row]
            added.append(first)
            continue
        v = [0] * width
        for c, x in row:
            v[c] = x
        # v changes in place, so the scan reads each entry as cleared so far.
        for j in range(first, width):
            x = v[j]
            if not x:
                continue
            pairs = echelon.get(j)
            if pairs is None:
                g = gcd(*v[j:]) if x > 0 else -gcd(*v[j:])
                echelon[j] = [(c, y // g) for c, y in enumerate(v[j:], j) if y]
                added.append(j)
                break
            a = pairs[0][1]
            if x % a:
                v[j:] = [a * y for y in v[j:]]
            else:
                x //= a
            for c, y in pairs:
                v[c] -= x * y
        else:
            added.append(None)
    return added


def integer_kernel_basis(rows: tuple, pivots: tuple, width: int) -> tuple[int, list]:
    """(scale, basis): an integer kernel basis of primitive echelon `rows`.

    One vector per free column f, in column order: scale, the lcm of the
    pivots, times the solution with f-th coordinate 1 and the other free
    coordinates 0.
    """
    scale = lcm(*(row[j] for row, j in zip(rows, pivots)))
    basis = []
    for f in range(width):
        if f in pivots:
            continue
        w = [0] * width
        w[f] = scale
        for row, j in zip(rows, pivots):
            w[j] = -row[f] * (scale // row[j])
        basis.append(w)
    return scale, basis


def rref_entries(rows: tuple, pivots: tuple) -> list:
    """Row-major entries of primitive echelon `rows`, each divided by its pivot."""
    return [
        Fraction(x, p) if x % p else x // p
        for row, j in zip(rows, pivots)
        for p in (row[j],)
        for x in row
    ]


def kron(a: QMatrix, b: QMatrix) -> QMatrix:
    """Kronecker product; basis vector e_i (x) f_k maps to index i*b.rows + k."""
    w = b.cols
    data = tuple([tuple([(j * w + s, x * y) for j, x in ra for s, y in rb])
                  for ra in a.data for rb in b.data])
    return QMatrix._lowest(a.rows * b.rows, a.cols * w, data, a.den * b.den)
