"""Spectral sequences of bounded double complexes of rational vector spaces.

The two usual filtrations of the total complex both converge to its
cohomology for bounded (single-quadrant-translatable) support.  Page
dimensions are counted exactly from one elimination of each differential.
With decreasing filtration F on T = Tot, n = p + q and s the filtration
index of (p, q) (p for `vertical`, q for `horizontal`), let

    rho(n, a, b) = rank(F^a T^n --d--> T^{n+1} / F^b T^{n+1}),
    dim E_r^{p,q} = dim C^{p,q} - rho(n, s, s+r) + rho(n, s+1, s+r)
                    - rho(n-1, s-r+1, s+1) + rho(n-1, s-r+1, s),

since Z_r^a = {x in F^a : d x in F^{a+r}} is the kernel of the map ranked
by rho(n, a, a+r), and B_r^s mod F^{s+1} is the image of F^{s-r+1} mod
F^{s+1} meeting F^s.

Both Tot^n and Tot^{n+1} list their cells by first index.  So for
`vertical`, F^a is a suffix of the columns of d(n) and the complement of
F^b a prefix of its rows; for `horizontal`, F^a is a prefix of the columns
and the complement of F^b a suffix of the rows.  Reversing the columns in
the first case, and the rows in the second, makes every block ranked by rho
a leading corner.  `linalg.pivot_profile` folds the rows in that order
(forward only) and records the pivot column each row adds; by the rank
profile theorem it cites, a leading corner's rank is the number of pivots
(row, column) inside it.  Its pivot rows are sparse, so clearing a column
touches only the nonzero entries of a pivot row, and a row that starts in
a column with no pivot row yet is stored from its pairs, with no scan; the
D(n) of a tensor double complex is mostly zeros, its blocks Kronecker
products with identities.  A pivot's column
lies in a cell of filtration index s and its row in one of index s', so
rho(n, a, b) counts the pivots of d(n) with s >= a and s' < b.  That is
zero for b <= a, because d preserves the filtration, so s' >= s: the
pivot is a bar of length L = s' - s, a persistence pair (Zomorodian and
Carlsson, 2005).  The two differences of rho count the bars of d(n)
leaving (p,q) and those of d(n-1) arriving there, each with L < r, so

    dim E_r^{p,q} = dim C^{p,q} - #{bars at (p,q), either end, with L < r}:

a bar records a nonzero d_L, and both its cells lose one dimension from
page L + 1 on.  A `PageTable` stores just E_0 and those death pages, and
reads any page off them, so nothing is stored per r.  Only dimensions are
exposed, not bases or induced differentials.  The rows folded are the
(column, numerator) rows d(n) stores (`QMatrix.data`, d(n) times its one
denominator), which have the same pivots, and the D^2 check is an integer
product of those rows, so no `Fraction` is built on the way.
`cohomology_dims` ranks D(n) by a fold of its own, not by its bars, which
`verify_convergence` checks.

A `DoubleComplex` assembles Tot and D = d_h + d_v once, at construction,
and the `Complex` constructor checks D^2 = 0, the only d o d check.  D^2
maps (p, q) to (p+2, q) by d_h^2, to (p+1, q+1) by d_h d_v + d_v d_h and to
(p, q+2) by d_v^2, so D^2 = 0 is exactly those three identities.  It
keeps that complex and the cell of each coordinate of Tot^n, the one
layout of Tot: `total_complex` returns the complex, and the D^2 error and
the page engine's bars read their cells off the same list.

Conventions: `vertical` filters by column (first index); its first page is
the columnwise cohomology H^q(C^{p,*}).  `horizontal` filters by row (second
index); its first page is the rowwise cohomology H^p(C^{*,q}).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from math import lcm

from .arrangement import MAX_DIMENSION, content_lines, parse_integer, parse_rational, quoted
from .errors import ParseError, ValidationError
from .linalg import QMatrix, kron, pivot_profile

HORIZONTAL = "horizontal"
VERTICAL = "vertical"


def _clean_dims(dims: dict) -> dict:
    return {key: d for key, d in dims.items() if d}


@dataclass(frozen=True)
class Complex:
    """Bounded cochain complex of rational vector spaces.

    dims[p] is the dimension in degree p (nonzero entries only);
    diff[p] maps degree p to degree p+1 and squares to zero.
    """

    dims: dict
    diff: dict

    def __post_init__(self):
        object.__setattr__(self, "dims", _clean_dims(self.dims))
        for p, m in self.diff.items():
            tgt, src = self.dim(p + 1), self.dim(p)
            if (m.rows, m.cols) != (tgt, src):
                raise ValidationError(
                    f"differential at degree {p} has shape {m.rows}x{m.cols}, expected {tgt}x{src}"
                )
        diff = {p: m for p, m in self.diff.items() if m.rows and m.cols}
        object.__setattr__(self, "diff", diff)
        for p, m in diff.items():
            nxt = diff.get(p + 1)
            if nxt is None:
                continue
            for i, row in enumerate((nxt @ m).data):
                if row:
                    raise ValidationError(f"d o d != 0 at degree {p}", entry=(p, i, row[0][0]))

    def dim(self, p: int) -> int:
        return self.dims.get(p, 0)

    def d(self, p: int) -> QMatrix:
        m = self.diff.get(p)
        if m is None:
            return QMatrix.zeros(self.dim(p + 1), self.dim(p))
        return m


@dataclass(frozen=True)
class DoubleComplex:
    """Bounded bigraded complex with anticommuting differentials.

    dims[(p, q)] holds the nonzero dimensions; d_horiz[(p, q)] maps (p, q) to
    (p+1, q) and d_vert[(p, q)] to (p, q+1).  Missing differentials are zero
    maps.  Construction assembles the total complex and checks D^2 = 0 on
    it, which is d_h^2 = d_v^2 = d_h d_v + d_v d_h = 0 (module docstring).  A
    failure names the identity and the source cell of the first nonzero
    entry of D^2 by degree.  Derived fields, out of equality and repr:
    `_total` is the checked Tot, and `_cells[n][k]` the cell (p, q) that
    holds coordinate k of Tot^n, whose cells come in order of p.
    """

    dims: dict
    d_horiz: dict
    d_vert: dict
    _total: Complex = field(init=False, repr=False, compare=False)
    _cells: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "dims", _clean_dims(self.dims))
        # One walk over the blocks checks each shape, keeps the nonzero blocks
        # between nonzero cells as (source cell, target cell, block), every d_horiz
        # block before the d_vert ones, and folds each kept block's denominator into
        # den[n], the lcm over the blocks starting in degree n.
        blocks, den = [], {}
        for name, (dp, dq) in (("d_horiz", (1, 0)), ("d_vert", (0, 1))):
            kept = {}
            for (p, q), m in getattr(self, name).items():
                src = self.dims.get((p, q), 0)
                tgt = self.dims.get((p + dp, q + dq), 0)
                if (m.rows, m.cols) != (tgt, src):
                    raise ValidationError(
                        f"{name} at ({p},{q}) has shape {m.rows}x{m.cols}, expected {tgt}x{src}"
                    )
                if src and tgt and not m.is_zero():
                    kept[(p, q)] = m
                    blocks.append(((p, q), (p + dp, q + dq), m))
                    den[p + q] = lcm(den.get(p + q, 1), m.den)
            object.__setattr__(self, name, kept)
        cells, offsets = {}, {}
        for cell in sorted(self.dims):
            n = sum(cell)
            offsets[cell] = len(cells.setdefault(n, []))
            cells[n] += [cell] * self.dims[cell]
        object.__setattr__(self, "_cells", cells)
        total = {n: len(at) for n, at in cells.items()}
        # D(n): Tot^n -> Tot^{n+1} as (column, numerator) rows, block by block, over
        # den[n].  Stored blocks are nonzero, so D(n) is zero exactly when no block
        # starts there.  It is stored as built, so it must be canonical.  Lowest
        # terms: a prime that divides den[n] exactly e times divides some block's
        # denominator exactly e times, so it divides neither one of that block's
        # numerators nor the factor den[n] // block.den.  Column order: a row in cell
        # (p, q) of Tot^{n+1} takes d_horiz from (p - 1, q) and d_vert from (p, q - 1),
        # and Tot^n lists cells by p, so placing the blocks in walk order, every
        # d_horiz block first, keeps each row's columns increasing.
        rows = {n: [[] for _ in range(total[n + 1])] for n in den}
        for source, target, block in blocks:
            n, src, base = sum(source), offsets[source], offsets[target]
            k = den[n] // block.den
            for i, pairs in enumerate(block.data, base):
                rows[n][i] += [(src + j, k * x) for j, x in pairs]
        diff = {
            n: QMatrix._of(total[n + 1], total[n], tuple(map(tuple, rows[n])), den[n])
            for n in sorted(rows)
        }
        try:
            object.__setattr__(self, "_total", Complex(total, diff))
        except ValidationError as err:
            # Column j lies in the source cell (p, q), row i in (p + k, q + 2 - k),
            # and that block of D^2 is the identity _DEFECTS[k].
            n, i, j = err.entry
            p = cells[n][j][0]
            k = cells[n + 2][i][0] - p
            raise ValidationError(f"{_DEFECTS[k]} at ({p},{n - p})") from None

    def dim(self, p: int, q: int) -> int:
        return self.dims.get((p, q), 0)

    def dh(self, p: int, q: int) -> QMatrix:
        m = self.d_horiz.get((p, q))
        return m if m is not None else QMatrix.zeros(self.dim(p + 1, q), self.dim(p, q))

    def dv(self, p: int, q: int) -> QMatrix:
        m = self.d_vert.get((p, q))
        return m if m is not None else QMatrix.zeros(self.dim(p, q + 1), self.dim(p, q))

    def support_box(self) -> tuple:
        """(min_p, max_p, min_q, max_q) of the support; None for empty support."""
        if not self.dims:
            return None
        ps = [p for p, _ in self.dims]
        qs = [q for _, q in self.dims]
        return min(ps), max(ps), min(qs), max(qs)


_DEFECTS = ("d_vert o d_vert != 0", "differentials do not anticommute", "d_horiz o d_horiz != 0")


def total_complex(dc: DoubleComplex) -> Complex:
    """Tot^n = sum of C^{p,q} with p+q = n, differential d_horiz + d_vert.

    Returns the complex that `dc` assembled and checked at construction.
    """
    return dc._total


def cohomology_dims(c: Complex) -> dict:
    """dim H^n = dim C^n - rank d^n - rank d^{n-1}, nonzero entries only."""
    ranks = {n: m.rank() for n, m in c.diff.items()}
    out = {}
    for n, d in c.dims.items():
        h = d - ranks.get(n, 0) - ranks.get(n - 1, 0)
        if h:
            out[n] = h
    return out


@dataclass(frozen=True)
class PageTable:
    """Dimensions of pages E_r^{p,q} for r = 0..r_max under one filtration, as bars.

    `dims` is E_0 and `bars[(p, q)]` lists, sorted, the page L + 1 from which
    each bar of length L with an end at (p, q) takes one dimension (module
    docstring), so a page costs one pass over the cells whatever r_max is.
    stable_at is the least r whose page equals every later computed page
    (r_max + 1 when stability was not observed within r_max).
    """

    r_max: int
    dims: dict
    bars: dict

    @property
    def stable_at(self) -> int:
        # Pages change exactly at the death pages; the last one <= r_max is
        # where they settle.  A single terminal page is no evidence of it.
        last = max((r for rs in self.bars.values() for r in rs if r <= self.r_max), default=0)
        return self.r_max + 1 if last == self.r_max else last

    def page(self, r: int) -> dict:
        if not 0 <= r <= self.r_max:
            return {}
        out = {}
        for cell, dim in self.dims.items():
            dim -= bisect_right(self.bars.get(cell, ()), r)
            if dim:
                out[cell] = dim
        return out

    def limit(self) -> dict:
        # Pages change only at death pages, so page r_max is the page at the last one <= r_max.
        return self.page(self.r_max)


def _filtration_bars(dc: DoubleComplex, filtration: str) -> dict:
    """{(p, q): sorted death pages} of `filtration`, from the bars of each D(n).

    The rows of D(n) are folded once, vertical top-down with each row
    reversed, horizontal bottom-up (module docstring); the source or target
    cells are reversed with them, so row i's pivot j joins source cell j to
    target cell i.  A bar of length L takes one dimension from both cells
    from page L + 1 on.
    """
    axis = 0 if filtration == VERTICAL else 1
    bars: dict = {}
    for n, d in dc._total.diff.items():
        rows, sources, targets = d.data, dc._cells[n], dc._cells[n + 1]
        if axis == 0:
            last = d.cols - 1
            rows = [[(last - c, x) for c, x in reversed(row)] for row in rows]
            sources = sources[::-1]
        else:
            rows, targets = rows[::-1], targets[::-1]
        for tgt, j in zip(targets, pivot_profile(rows, d.cols)):
            if j is not None:
                src = sources[j]
                r = tgt[axis] - src[axis] + 1
                bars.setdefault(src, []).append(r)
                bars.setdefault(tgt, []).append(r)
    return {cell: sorted(rs) for cell, rs in bars.items()}


def pages(dc: DoubleComplex, filtration: str, r_max: int) -> PageTable:
    """Page dimensions E_r^{p,q} for r = 0..r_max under the chosen filtration."""
    if r_max < 2:
        raise ValidationError("r_max must be at least 2")
    if filtration not in (HORIZONTAL, VERTICAL):
        raise ValidationError(f"unknown filtration {filtration!r}")
    return PageTable(r_max, dc.dims, _filtration_bars(dc, filtration))


def verify_convergence(pt: PageTable, h: dict) -> bool:
    """Do the limit-page dimensions sum to the total cohomology in each degree?"""
    sums = {}
    for (p, q), d in pt.limit().items():
        sums[p + q] = sums.get(p + q, 0) + d
    return sums == {n: d for n, d in h.items() if d}


def tensor_double_complex(a: Complex, b: Complex) -> DoubleComplex:
    """Double complex of the tensor product of two bounded complexes.

    dims(p, q) = dim a^p * dim b^q, d_horiz = d_a (x) id and
    d_vert = (-1)^p id (x) d_b, which anticommutes by construction.
    """
    dims = {}
    d_horiz = {}
    d_vert = {}
    for p, da in a.dims.items():
        for q, db in b.dims.items():
            dims[(p, q)] = da * db
            if p in a.diff:
                d_horiz[(p, q)] = kron(a.diff[p], QMatrix.identity(db))
            if q in b.diff:
                sign = QMatrix.identity(da).scale(-1 if p % 2 else 1)
                d_vert[(p, q)] = kron(sign, b.diff[q])
    return DoubleComplex(dims, d_horiz, d_vert)


def parse_double_complex(text: str) -> DoubleComplex:
    """Parse the double-complex text format.

    A `dims` header is followed by `p q dim` triples of integers
    (`arrangement.parse_integer`); each `dh p q` or `dv p q` line is followed
    by the dense rational matrix of that block, one row per line (target
    dimension rows of source dimension entries), each entry an integer or
    `p/q` (`arrangement.parse_rational`).  A block from a zero-dimensional
    cell has no rows: its empty rows would be blank lines, which are
    skipped, so the next line starts a new block.  Omitted differentials
    are zero.
    `#` starts a comment, blank lines are ignored (`arrangement.content_lines`).
    The dimensions may add up to at most `MAX_DIMENSION`.
    """
    lines = list(content_lines(text))
    if not lines or lines[0][1] != "dims":
        raise ParseError("expected `dims` header", line=lines[0][0] if lines else 1)
    dims = {}
    total = 0
    idx = 1
    while idx < len(lines):
        lineno, line = lines[idx]
        fields = line.split()
        if fields[0] in ("dh", "dv"):
            break
        if len(fields) != 3:
            raise ParseError("expected `p q dim` triple", line=lineno)
        p, q, d = (parse_integer(f, f"bad integer in {quoted(line)}", lineno) for f in fields)
        if d < 0:
            raise ParseError("dimension must be nonnegative", line=lineno)
        if (p, q) in dims:
            raise ParseError(f"duplicate dims entry for ({p},{q})", line=lineno)
        total += d
        if total > MAX_DIMENSION:
            raise ParseError(
                f"total dimension {total} exceeds the limit {MAX_DIMENSION}", line=lineno
            )
        dims[(p, q)] = d
        idx += 1
    d_horiz = {}
    d_vert = {}
    while idx < len(lines):
        lineno, line = lines[idx]
        fields = line.split()
        if len(fields) != 3 or fields[0] not in ("dh", "dv"):
            raise ParseError("expected `dh p q` or `dv p q` block header", line=lineno)
        p, q = (parse_integer(f, f"bad position in {quoted(line)}", lineno) for f in fields[1:])
        src = dims.get((p, q), 0)
        tgt = dims.get((p + 1, q) if fields[0] == "dh" else (p, q + 1), 0)
        idx += 1
        rows = []
        for _ in range(tgt if src else 0):
            if idx >= len(lines):
                raise ParseError(f"matrix block for {quoted(line)} is truncated", line=lineno)
            row_line, row_text = lines[idx]
            row_fields = row_text.split()
            if len(row_fields) != src:
                raise ParseError(f"expected {src} entries, got {len(row_fields)}", line=row_line)
            rows.append([parse_rational(f, row_line) for f in row_fields])
            idx += 1
        mat = QMatrix(tgt, src, [x for row in rows for x in row])
        target = d_horiz if fields[0] == "dh" else d_vert
        if (p, q) in target:
            raise ParseError(f"duplicate block {quoted(line)}", line=lineno)
        target[(p, q)] = mat
    return DoubleComplex(dims, d_horiz, d_vert)
