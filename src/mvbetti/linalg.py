"""Exact dense linear algebra over the rationals.

Scalars are `fractions.Fraction`, so every rank and kernel in this package is
exact; there is no floating point anywhere.  Matrices are immutable and
degenerate shapes (0xk, kx0) are legal, behaving as rank-0 maps.  Pivot selection in `rref` is deterministic: leftmost nonzero column,
topmost candidate row.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


def _frac(x) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


class QMatrix:
    """Immutable dense matrix of rationals, stored row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        entries = tuple(_frac(x) for x in entries)
        if rows < 0 or cols < 0:
            raise ValueError(f"negative shape {rows}x{cols}")
        if len(entries) != rows * cols:
            raise ValueError(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("QMatrix is immutable")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "QMatrix":
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        if any(len(row) != nc for row in rows):
            raise ValueError("ragged rows")
        return cls(nr, nc, [x for row in rows for x in row])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "QMatrix":
        return cls(rows, cols, [ZERO] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls(n, n, [ONE if i == j else ZERO for i in range(n) for j in range(n)])

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_lists(self) -> list:
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"QMatrix({self.rows}x{self.cols}: [{body}])"

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def transpose(self) -> "QMatrix":
        return QMatrix(
            self.cols,
            self.rows,
            [self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)],
        )

    def scale(self, k) -> "QMatrix":
        k = _frac(k)
        return QMatrix(self.rows, self.cols, [k * x for x in self.entries])

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        n, m, p = self.rows, self.cols, other.cols
        out = [ZERO] * (n * p)
        a, b = self.entries, other.entries
        for i in range(n):
            ia = i * m
            io = i * p
            for k in range(m):
                x = a[ia + k]
                if x:
                    kb = k * p
                    for j in range(p):
                        y = b[kb + j]
                        if y:
                            out[io + j] += x * y
        return QMatrix(n, p, out)

    def rows_slice(self, i0: int, i1: int) -> "QMatrix":
        return QMatrix(i1 - i0, self.cols, self.entries[i0 * self.cols : i1 * self.cols])

    def cols_slice(self, j0: int, j1: int) -> "QMatrix":
        out = []
        for i in range(self.rows):
            out.extend(self.entries[i * self.cols + j0 : i * self.cols + j1])
        return QMatrix(self.rows, j1 - j0, out)

    def rref(self) -> tuple["QMatrix", int, tuple]:
        """Reduced row echelon form; returns (reduced, rank, pivot_columns)."""
        m = self.row_lists()
        nr, nc = self.rows, self.cols
        pivots = []
        pr = 0
        for c in range(nc):
            if pr == nr:
                break
            pivot = next((i for i in range(pr, nr) if m[i][c]), None)
            if pivot is None:
                continue
            if pivot != pr:
                m[pr], m[pivot] = m[pivot], m[pr]
            prow = m[pr]
            pv = prow[c]
            if pv != 1:
                inv = ONE / pv
                for j in range(c, nc):
                    if prow[j]:
                        prow[j] *= inv
            for i in range(nr):
                f = m[i][c]
                if f and i != pr:
                    row = m[i]
                    for j in range(c, nc):
                        if prow[j]:
                            row[j] -= f * prow[j]
            pivots.append(c)
            pr += 1
        reduced = QMatrix(nr, nc, [x for row in m for x in row])
        return reduced, len(pivots), tuple(pivots)

    def rank(self) -> int:
        return self.rref()[1]

    def kernel_basis(self) -> "QMatrix":
        """Basis of the right kernel {x : self @ x = 0}, one column per free variable."""
        reduced, rank, pivots = self.rref()
        pivot_set = set(pivots)
        free = [j for j in range(self.cols) if j not in pivot_set]
        cols = []
        for f in free:
            v = [ZERO] * self.cols
            v[f] = ONE
            for i, p in enumerate(pivots):
                v[p] = -reduced.at(i, f)
            cols.append(v)
        return QMatrix(
            self.cols, len(free), [cols[j][i] for i in range(self.cols) for j in range(len(free))]
        )


def kron(a: QMatrix, b: QMatrix) -> QMatrix:
    """Kronecker product; basis vector e_i (x) f_k maps to index i*b.rows + k."""
    rows, cols = a.rows * b.rows, a.cols * b.cols
    out = [ZERO] * (rows * cols)
    for i in range(a.rows):
        for j in range(a.cols):
            x = a.at(i, j)
            if not x:
                continue
            for k in range(b.rows):
                base = (i * b.rows + k) * cols + j * b.cols
                for l in range(b.cols):
                    y = b.at(k, l)
                    if y:
                        out[base + l] = x * y
    return QMatrix(rows, cols, out)
