"""Reference answers that share no code with the package under test.

Betti numbers come from closed forms where one exists (Boolean, general
position, braid) and otherwise from Whitney's formula, evaluated here by a
depth-first walk over hyperplane subsets with its own incremental
elimination.  Double-complex checks take ranks with their own elimination
too: row and column cohomology of the stored differentials, and Kuenneth for
the total cohomology of a tensor product.  Only the inputs' coefficients are
read from the package's objects.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm


def binomial_betti(r: int, n: int) -> tuple:
    """b_k = C(r, k): general position, including the Boolean arrangement (r = n)."""
    return tuple(comb(r, k) for k in range(n + 1))


def braid_betti(n: int) -> tuple:
    """Braid arrangement x_i = x_j in n-space: Poincare polynomial prod_{j<n} (1 + j t)."""
    poly = [1]
    for j in range(1, n):
        poly = [a + j * b for a, b in zip(poly + [0], [0] + poly)]
    return tuple(poly + [0] * (n + 1 - len(poly)))


def _integer_row(row) -> list:
    """The rational row scaled to integers."""
    row = [Fraction(x) for x in row]
    scale = lcm(*(x.denominator for x in row))
    return [int(x * scale) for x in row]


def _reduce(basis: list, row: list) -> list:
    """Clear the pivot columns of integer `row` against echelon rows (pivot, vector).

    Elimination is fraction-free: row <- row * v[p] - row[p] * v, divided by
    the gcd of its entries.  Row j of the basis was itself reduced against
    rows 0..j-1, so it is zero in their pivot columns and reducing in
    insertion order clears every pivot column.
    """
    for pivot, vec in basis:
        f = row[pivot]
        if f:
            p = vec[pivot]
            row = [x * p - f * y for x, y in zip(row, vec)]
            g = gcd(*row)
            if g > 1:
                row = [x // g for x in row]
    return row


def whitney_betti(rows: list, n: int) -> tuple:
    """b_k = (-1)^k * sum of (-1)^|I| over subsets I meeting in codimension k.

    `rows` are augmented equations [a_1 .. a_n, c].  A subset whose
    intersection is empty is pruned with all its supersets, which contribute
    nothing.
    """
    acc = [0] * (n + 1)
    acc[0] = 1
    rows = [_integer_row(row) for row in rows]

    def visit(basis, start, sign):
        for i in range(start, len(rows)):
            row = _reduce(basis, rows[i])
            pivot = next((j for j in range(n) if row[j]), None)
            if pivot is None:
                if row[n]:
                    continue  # empty intersection
                grown = basis
            else:
                grown = basis + [(pivot, row)]
            acc[len(grown)] -= sign
            visit(grown, i + 1, -sign)

    visit([], 0, 1)
    return tuple(a if k % 2 == 0 else -a for k, a in enumerate(acc))


def affine_betti(hyperplanes, n: int) -> tuple:
    return whitney_betti([list(h.normal) + [h.constant] for h in hyperplanes], n)


def projective_betti(hyperplanes, n: int) -> tuple:
    """Betti numbers of a projective complement in P^n.

    The cone over it is a central arrangement in (n+1)-space whose
    complement is C* times the projective one, so its Poincare polynomial
    is (1 + t) times the answer.
    """
    cone = whitney_betti([list(h.normal) + [0] for h in hyperplanes], n + 1)
    quotient = []
    carry = 0
    for c in cone[:-1]:
        carry = c - carry
        quotient.append(carry)
    if cone[-1] != carry:
        raise ValueError(f"cone polynomial {cone} is not divisible by 1 + t")
    return tuple(quotient)


def rank(mat) -> int:
    """Rank of a package matrix, by elimination over its entries."""
    basis = []
    for i in range(mat.rows):
        row = _reduce(basis, _integer_row(mat.entries[i * mat.cols:(i + 1) * mat.cols]))
        pivot = next((j for j, x in enumerate(row) if x), None)
        if pivot is not None:
            basis.append((pivot, row))
    return len(basis)


def complex_cohomology(cx) -> dict:
    out = {}
    for p, d in cx.dims.items():
        h = d - rank(cx.d(p)) - rank(cx.d(p - 1))
        if h:
            out[p] = h
    return out


def row_cohomology(dc) -> dict:
    """dim H^p(C^{*,q}): the first page of the horizontal filtration."""
    out = {}
    for (p, q), d in dc.dims.items():
        h = d - rank(dc.dh(p, q)) - rank(dc.dh(p - 1, q))
        if h:
            out[(p, q)] = h
    return out


def column_cohomology(dc) -> dict:
    """dim H^q(C^{p,*}): the first page of the vertical filtration."""
    out = {}
    for (p, q), d in dc.dims.items():
        h = d - rank(dc.dv(p, q)) - rank(dc.dv(p, q - 1))
        if h:
            out[(p, q)] = h
    return out


def kunneth(a, b) -> dict:
    """Total cohomology of the tensor product of two complexes."""
    out = {}
    for p, x in complex_cohomology(a).items():
        for q, y in complex_cohomology(b).items():
            out[p + q] = out.get(p + q, 0) + x * y
    return {k: v for k, v in out.items() if v}
