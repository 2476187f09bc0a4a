"""Shared independent oracles used by several test modules.

These deliberately avoid the code paths they are checking: cohomology of
rows/columns comes straight from ranks of the stored differentials, never
from the page calculator, and those ranks come from `gauss_jordan_rank`
here, not from `QMatrix.rank`, which is the fold the page engine reads its
bars from.  `flat_of` is no oracle: it is the flat of one subset, by the
package's own `_extend`, for the tests that walk every subset; it is None
for a subset that does not meet.
`degenerates` is the definition of degeneration from E2 on, which the E2
readout no longer evaluates: it checks a position rule that implies it.
"""

import ast
from fractions import Fraction
from functools import cache
from pathlib import Path

from mvbetti import HORIZONTAL, DoubleComplex, Flat, QMatrix
from mvbetti.flats import _extend, ambient_flat


PACKAGE = Path(__file__).parent.parent / "src" / "mvbetti"


def module_imports(name: str, directory: Path = PACKAGE) -> tuple[set, set]:
    """(modules, names) that `<directory>/<name>.py` imports, read with `ast`."""
    source = directory / f"{name}.py"
    modules, names = set(), set()
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module)
            names.update(alias.name for alias in node.names)
    return modules, names


def flat_of(arr, subset) -> Flat | None:
    """Flat of the selected hyperplanes (empty subset: ambient space), one `_extend` each.

    None when they do not meet: the walk stops at the first empty cut.
    """
    flat = ambient_flat(arr.ambient_dim)
    for i in subset:
        flat = _extend(flat, arr.hyperplanes[i].equation_row())
        if flat is None:
            break
    return flat


def from_rows(rows) -> QMatrix:
    """The matrix with the given rows of `int`s or `Fraction`s, all of one length."""
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    if any(len(row) != nc for row in rows):
        raise ValueError("ragged rows")
    return QMatrix(nr, nc, [x for row in rows for x in row])


def at(m: QMatrix, i: int, j: int) -> Fraction:
    """Entry (i, j) of m, read off its stored (column, numerator) pairs."""
    return Fraction(dict(m.data[i]).get(j, 0), m.den)


def assert_canonical(m: QMatrix) -> None:
    """m equals, with an equal hash, the matrix its own entries build."""
    again = QMatrix(m.rows, m.cols, m.entries)
    assert m == again and hash(m) == hash(again)


def gauss_jordan_rank(m: QMatrix) -> int:
    """Rank of m by Gauss-Jordan elimination on its `Fraction` entries."""
    rows = [list(m.row(i)) for i in range(m.rows)]
    rank = 0
    for j in range(m.cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        top = [x / rows[pivot][j] for x in rows[pivot]]
        rows[pivot] = rows[rank]
        rows[rank] = top
        for i, row in enumerate(rows):
            if i != rank and row[j]:
                rows[i] = [x - row[j] * y for x, y in zip(row, top)]
        rank += 1
    return rank


def row_cohomology(dc: DoubleComplex) -> dict:
    """dim H^p(C^{*,q}) at each support position, from horizontal ranks."""
    out = {}
    for (p, q) in dc.dims:
        h = dc.dim(p, q) - gauss_jordan_rank(dc.dh(p, q)) - gauss_jordan_rank(dc.dh(p - 1, q))
        if h:
            out[(p, q)] = h
    return out


def column_cohomology(dc: DoubleComplex) -> dict:
    """dim H^q(C^{p,*}) at each support position, from vertical ranks."""
    out = {}
    for (p, q) in dc.dims:
        h = dc.dim(p, q) - gauss_jordan_rank(dc.dv(p, q)) - gauss_jordan_rank(dc.dv(p, q - 1))
        if h:
            out[(p, q)] = h
    return out


def reference_pages(dc: DoubleComplex, filtration: str, r_max: int) -> dict:
    """Page table {(r, p, q): dim} from ranks of explicitly assembled blocks.

    This is the column filtration taken from the definition.  Let

        rho(n, a, b) = rank(F^a T^n --d--> T^{n+1} / F^b T^{n+1}),

    the rank of the block of the total differential from the cells of
    degree n with first index >= a to the cells of degree n+1 with first
    index < b, built cell by cell from d_horiz and d_vert.  Then, with
    n = p + q,

        dim E_r^{p,q} = dim C^{p,q} - rho(n, p, p+r) + rho(n, p+1, p+r)
                        - rho(n-1, p-r+1, p+1) + rho(n-1, p-r+1, p).

    The first two ranks give dim Z_r^p mod F^{p+1}, since Z_r^a = {x in
    F^a : d x in F^{a+r}} is the kernel of the map ranked by rho(n, a, a+r).
    The last two give dim B_r^p mod F^{p+1}: the image of Z_{r-1}^{p-r+1}
    mod F^{p+1} is the image of F^{p-r+1} mod F^{p+1} meeting F^p.  Each
    block is ranked on its own, so no pivot or bar of `mvbetti.spectral` is
    reused.  The horizontal filtration is the column filtration of the
    transpose: cells (q, p), with d_horiz and d_vert swapped.
    """
    dims, dh, dv = dc.dims, dc.d_horiz, dc.d_vert
    if filtration == HORIZONTAL:
        dims = {(q, p): d for (p, q), d in dims.items()}
        dh, dv = ({(q, p): m for (p, q), m in maps.items()} for maps in (dv, dh))

    def component(src, tgt):
        p, q = src
        return {(p + 1, q): dh, (p, q + 1): dv}.get(tgt, {}).get(src)

    @cache
    def rho(n, a, b):
        cols = sorted(c for c in dims if sum(c) == n and c[0] >= a)
        rows = sorted(c for c in dims if sum(c) == n + 1 and c[0] < b)
        entries = []
        for tgt in rows:
            for i in range(dims[tgt]):
                for src in cols:
                    m = component(src, tgt)
                    entries.extend(m.row(i) if m is not None else [0] * dims[src])
        height = sum(dims[tgt] for tgt in rows)
        return gauss_jordan_rank(QMatrix(height, sum(dims[src] for src in cols), entries))

    out = {}
    for (p, q), d in dims.items():
        n = p + q
        for r in range(r_max + 1):
            dim = (
                d
                - rho(n, p, p + r)
                + rho(n, p + 1, p + r)
                - rho(n - 1, p - r + 1, p + 1)
                + rho(n - 1, p - r + 1, p)
            )
            if dim:
                out[(r, q, p) if filtration == HORIZONTAL else (r, p, q)] = dim
    return out


def square_defects(dims: dict, d_horiz: dict, d_vert: dict) -> set:
    """Error message of each identity that fails at a cell, block by block.

    At each source cell (p, q) this composes the stored blocks entry by entry
    (missing blocks are zero), with its own sums of products, and tests
    d_h o d_h = 0 into (p+2, q), d_v o d_h + d_h o d_v = 0 into (p+1, q+1)
    and d_v o d_v = 0 into (p, q+2).  Each failure is named as
    `DoubleComplex` names it.
    """
    out = set()
    for (p, q), n in dims.items():
        h, v = (p + 1, q), (p, q + 1)
        first_h, first_v = d_horiz.get((p, q)), d_vert.get((p, q))
        checks = (
            ("d_horiz o d_horiz != 0", (p + 2, q), [(d_horiz.get(h), h, first_h)]),
            (
                "differentials do not anticommute",
                (p + 1, q + 1),
                [(d_vert.get(h), h, first_h), (d_horiz.get(v), v, first_v)],
            ),
            ("d_vert o d_vert != 0", (p, q + 2), [(d_vert.get(v), v, first_v)]),
        )
        for message, target, paths in checks:
            pairs = [(a, b, dims.get(mid, 0)) for a, mid, b in paths if a and b]
            for i in range(dims.get(target, 0)):
                for j in range(n):
                    if sum(at(a, i, k) * at(b, k, j) for a, b, m in pairs for k in range(m)):
                        out.add(f"{message} at ({p},{q})")
    return out


def kunneth_product(ha: dict, hb: dict) -> dict:
    out = {}
    for p, x in ha.items():
        for q, y in hb.items():
            out[p + q] = out.get(p + q, 0) + x * y
    return {k: v for k, v in out.items() if v}


def degenerates(dims: dict) -> bool:
    """No d_r with r >= 2 can join two entries of the page `dims`.

    d_r moves (p, q) to (p + r, q - r + 1): it raises the total degree by one
    while moving at least two columns right.
    """
    return not any(
        p2 - p1 >= 2 and p2 + q2 == p1 + q1 + 1 for p1, q1 in dims for p2, q2 in dims
    )


def betti_of_roots(roots) -> list:
    """b_k of a complement with chi(q) = prod (q - a): the coefficients of prod (1 + a t)."""
    poly = [1]
    for a in roots:
        poly = [x + a * y for x, y in zip(poly + [0], [0] + poly)]
    return poly


BRAID_A3 = "affine 3\n1 -1 0 0\n1 0 -1 0\n0 1 -1 0\n"
PARALLEL_A2 = "affine 2\n1 0 0\n1 0 1\n"
