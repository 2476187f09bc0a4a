"""Intersections of hyperplane subsets, the intersection poset, and oracles.

A flat is the intersection of a subset of the hyperplanes, stored as the
primitive integer echelon rows of its augmented linear system: the rows of
the reduced row echelon form with zero rows stripped, each scaled to coprime
integers with a positive pivot.  That form is unique, so two flats are equal
exactly when their rows are identical.  Flats are built one hyperplane at a
time by exact fraction-free integer elimination from the canonical integer
hyperplanes; no rational arithmetic runs while subsets are walked.  On top
of flats this module builds

* the count table: how many subsets of each size cut out a flat of each
  dimension, with empty intersections tallied separately.  Subsets are
  walked down to lines only: restricted to a line the hyperplanes either
  contain it, miss it, or cut it in points, so everything below a line is
  counted by binomials.  The table carries no spectral grading
  (`betti.first_page` places each bucket), and general position is read
  off it,
* the intersection poset with its Moebius function, ordered by hyperplane
  masks, and
* two independent combinatorial Betti oracles (Moebius-sum and signed
  inclusion-exclusion over subsets) used to cross-check the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd, lcm
from operator import mul

from .arrangement import AFFINE, Arrangement
from .errors import CapExceededError, ValidationError
from .linalg import QMatrix

DEFAULT_CAP = 24


@dataclass(frozen=True)
class Flat:
    """An affine subspace cut out by hyperplanes, in canonical form.

    `rows` are the primitive integer echelon rows of the augmented equations
    [a_1 ... a_n | c]: the stripped reduced row echelon form, each row scaled
    to coprime integers with a positive pivot, in pivot order.  `pivots` are
    their pivot columns, derived from `rows` and left out of equality.
    `dimension` is None exactly when the constant column n is a pivot (empty
    flat).  `system` gives the same equations as an exact rational rref.
    """

    rows: tuple
    dimension: int | None
    pivots: tuple = field(compare=False)

    @property
    def is_empty(self) -> bool:
        return self.dimension is None

    def _rref_entries(self) -> tuple:
        """Row-major entries of the exact rref: each row divided by its pivot."""
        return tuple(
            Fraction(x, p) if x % p else x // p
            for row, j in zip(self.rows, self.pivots)
            for p in (row[j],)
            for x in row
        )

    @property
    def system(self) -> QMatrix:
        """The stripped reduced row echelon form [A | c] over the rationals."""
        cols = len(self.rows[0]) if self.rows else self.dimension + 1
        return QMatrix(len(self.rows), cols, self._rref_entries())


def ambient_flat(n: int) -> Flat:
    return Flat((), n, ())


def _extend(flat: Flat, row) -> Flat:
    """Intersect `flat` with the hyperplane of the integer row [a_1 ... a_n | c].

    The row is reduced against each pivot row by integer cross-multiplication
    and divided by its gcd.  If it reduces to zero the hyperplane contains the
    flat, which is returned as is; otherwise it becomes a pivot row (a pivot in
    the constant column makes the intersection empty) and its pivot column is
    cleared from the other rows, which keeps the canonical form.
    """
    v = row
    for other, j in zip(flat.rows, flat.pivots):
        x = v[j]
        if x:
            a = other[j]
            v = [a * vi - x * oi for vi, oi in zip(v, other)]
    for q, x in enumerate(v):
        if x:
            break
    else:
        return flat
    v = _primitive(v, -1 if x < 0 else 1)
    b = v[q]
    rows = []
    at = 0
    for other, j in zip(flat.rows, flat.pivots):
        # Only rows pivoting left of q can be nonzero in column q.
        if j < q:
            at += 1
            y = other[q]
            if y:
                other = _primitive([b * oi - y * vi for oi, vi in zip(other, v)], 1)
        rows.append(other)
    rows.insert(at, v)
    pivots = flat.pivots[:at] + (q,) + flat.pivots[at:]
    empty = flat.is_empty or q == len(v) - 1
    return Flat(tuple(rows), None if empty else flat.dimension - 1, pivots)


def _primitive(v, sign) -> tuple:
    """v divided by sign * gcd(v)."""
    g = sign * gcd(*v)
    return tuple(v) if g == 1 else tuple([x // g for x in v])


def _integer_rows(arr: Arrangement) -> list:
    # Arrangement keeps every hyperplane canonical: coprime integer coefficients.
    return [tuple(x.numerator for x in h.equation_row()) for h in arr.hyperplanes]


def _require_affine(arr: Arrangement):
    if arr.kind != AFFINE:
        raise ValidationError("flats are computed for affine arrangements; decone first")


def flat_of_subset(arr: Arrangement, subset) -> Flat:
    """Flat of the intersection of the selected hyperplanes (empty subset: ambient space)."""
    _require_affine(arr)
    rows = _integer_rows(arr)
    flat = ambient_flat(arr.ambient_dim)
    for i in subset:
        if not 0 <= i < arr.r:
            raise ValidationError(f"hyperplane index {i} out of range for r={arr.r}")
        flat = _extend(flat, rows[i])
    return flat


@dataclass(frozen=True)
class FlatCounts:
    """Hyperplane subsets counted by size and by the dimension of their flat.

    counts[(s, d)] is the number of size-s subsets whose flat has dimension d;
    empty[s] counts the size-s subsets with empty intersection.  For every
    size s the buckets plus empty[s] add up to binomial(r, s).  The table is
    purely combinatorial; it holds no spectral position.
    """

    counts: dict
    empty: dict
    n: int
    r: int


def _line_basis(line: Flat, n: int) -> tuple:
    """Integer kernel basis (u, v) of a line's augmented system.

    u is the line's direction (constant coordinate 0) and v an affine part
    (constant coordinate nonzero); both are integer multiples of the
    solutions with the free coordinate or the constant set to 1.
    """
    f = next(j for j in range(n) if j not in line.pivots)
    scale = lcm(*(row[j] for row, j in zip(line.rows, line.pivots)))
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    u[f] = v[n] = scale
    for row, j in zip(line.rows, line.pivots):
        u[j] = -row[f] * (scale // row[j])
        v[j] = -row[n] * (scale // row[j])
    return u, v


def _meet(row, u, v) -> tuple:
    """Where the hyperplane `row` meets the line with kernel basis (u, v).

    With a = row.u and b = row.v: (0, 0) means the hyperplane contains the
    line, a = 0 alone that it is parallel to it, and otherwise it meets the
    line in one point.  The pair is returned as (b, a) divided by gcd(a, b)
    with a > 0 (b > 0 when a = 0), so two hyperplanes meet the line in the
    same point exactly when their pairs are equal.
    """
    a = sum(map(mul, row, u))
    b = sum(map(mul, row, v))
    g = gcd(a, b)
    if not g:
        return (0, 0)
    if a < 0 or (a == 0 and b < 0):
        g = -g
    return (b // g, a // g)


def count_flats(arr: Arrangement, cap: int = DEFAULT_CAP) -> FlatCounts:
    """Enumerate all nonempty hyperplane subsets and bucket their flats.

    Enumeration is depth-first in lexicographic order, extending each subset
    by larger indices only and reusing the flat of the prefix; distinct
    prefixes reaching the same flat share work through a memo keyed by the
    flat's integer rows.  Once a prefix has empty intersection all of its
    extensions are counted directly as empty.

    Below a line the walk is replaced by binomials, so no flat of dimension 0
    is ever built.  Of the S = r - start hyperplanes that may still be added,
    z contain the line, the parallel ones miss it, and the rest fall into
    classes of c_P hyperplanes meeting it in the same point P (`_meet`,
    computed once per line and hyperplane).  Adding k of them gives the line
    itself C(z, k) times, a point sum_P [C(z + c_P, k) - C(z, k)] times, and
    the empty set in the other C(S, k) cases.  When the ambient space is a
    line (n = 1) the whole table comes from the root.
    """
    _require_affine(arr)
    r, n = arr.r, arr.ambient_dim
    if r > cap:
        raise CapExceededError(r, cap)
    rows = _integer_rows(arr)
    counts: dict = {}
    empty: dict = {}
    memo: dict = {}
    line_keys: dict = {}

    def close_line(flat, start, size):
        entry = line_keys.get(flat.rows)
        if entry is None:
            entry = line_keys[flat.rows] = (*_line_basis(flat, n), [None] * r)
        u, v, keys = entry
        z = 0
        points: dict = {}
        for i in range(start, r):
            key = keys[i]
            if key is None:
                key = keys[i] = _meet(rows[i], u, v)
            if key[1]:
                points[key] = points.get(key, 0) + 1
            elif not key[0]:
                z += 1
        s = r - start
        for k in range(1, s + 1):
            on_line = comb(z, k)
            on_point = sum(comb(z + c, k) for c in points.values()) - len(points) * on_line
            sz = size + k
            if on_line:
                counts[(sz, 1)] = counts.get((sz, 1), 0) + on_line
            if on_point:
                counts[(sz, 0)] = counts.get((sz, 0), 0) + on_point
            missed = comb(s, k) - on_line - on_point
            if missed:
                empty[sz] = empty.get(sz, 0) + missed

    def visit(flat, start, size):
        if flat.dimension == 1:
            close_line(flat, start, size)
            return
        succ = memo.get(flat.rows)
        if succ is None:
            succ = memo[flat.rows] = [None] * r
        sz = size + 1
        for i in range(start, r):
            nxt = succ[i]
            if nxt is None:
                nxt = succ[i] = _extend(flat, rows[i])
            if nxt.is_empty:
                empty[sz] = empty.get(sz, 0) + 1
                remaining = r - 1 - i
                for k in range(1, remaining + 1):
                    empty[sz + k] = empty.get(sz + k, 0) + comb(remaining, k)
            else:
                key = (sz, nxt.dimension)
                counts[key] = counts.get(key, 0) + 1
                visit(nxt, i + 1, sz)

    visit(ambient_flat(n), 0, 0)
    return FlatCounts(counts, empty, n, r)


@dataclass(frozen=True)
class IntersectionPoset:
    """Nonempty flats closed under intersection, ordered by reverse inclusion.

    flats[0] is the ambient space (the unique minimum); strictly_below[i]
    lists the indices of flats strictly containing flats[i].  The Moebius
    values satisfy mu[0] = 1 and mu[x] = -sum(mu[y] for y strictly below x).
    """

    flats: tuple
    codim: tuple
    mobius: tuple
    strictly_below: tuple

    @property
    def ambient_dim(self) -> int:
        return self.flats[0].dimension


def build_intersection_poset(arr: Arrangement, cap: int = DEFAULT_CAP) -> IntersectionPoset:
    """Close {ambient} under intersection with hyperplanes, one codimension at a time.

    Each flat X is keyed by the bitmask H_X of the hyperplanes containing it:
    Y contains X iff H_Y is a subset of H_X.  X is extended only by the i not
    in H_X, and the i that give the same child are the bits it adds to H_X.
    """
    _require_affine(arr)
    r, n = arr.r, arr.ambient_dim
    if r > cap:
        raise CapExceededError(r, cap)
    rows = _integer_rows(arr)
    ambient = ambient_flat(n)
    found = {ambient.rows: (ambient, 0)}
    frontier = [ambient]
    while frontier:
        children = {}
        for f in frontier:
            mask = found[f.rows][1]
            for i in range(r):
                if mask >> i & 1:
                    continue
                g = _extend(f, rows[i])
                if not g.is_empty:
                    # H_g is H_f plus every i whose hyperplane cuts f in g; no parent adds more.
                    children.setdefault(g.rows, [g, mask])[1] |= 1 << i
        found.update((key, tuple(child)) for key, child in children.items())
        frontier = [g for g, _ in children.values()]
    order = sorted(found.values(), key=lambda fk: (n - fk[0].dimension, fk[0]._rref_entries()))
    flats, keys = zip(*order)
    # Sorted by codimension, so the flats containing flats[i] come before it.
    below = tuple(
        tuple(j for j in range(i) if keys[j] & key == keys[j]) for i, key in enumerate(keys)
    )
    mobius = []
    for i in range(len(flats)):
        mobius.append(1 if not below[i] else -sum(mobius[j] for j in below[i]))
    return IntersectionPoset(flats, tuple(n - f.dimension for f in flats), tuple(mobius), below)


def mobius_betti(poset: IntersectionPoset) -> tuple:
    """Betti numbers via the classical Moebius-function formula.

    b_k is the sum of |mu(ambient, x)| over flats x of codimension k; this is
    the Orlik-Solomon decomposition of the complement's cohomology, used here
    purely as an oracle.
    """
    n = poset.ambient_dim
    betti = [0] * (n + 1)
    for codim, mu in zip(poset.codim, poset.mobius):
        betti[codim] += abs(mu)
    return tuple(betti)


def whitney_betti(arr: Arrangement, cap: int = DEFAULT_CAP) -> tuple:
    """Betti numbers by signed inclusion-exclusion over hyperplane subsets.

    b_k = (-1)^k * sum over subsets I with nonempty intersection of
    codimension k of (-1)^|I|, the empty subset contributing to k = 0.
    """
    _require_affine(arr)
    r, n = arr.r, arr.ambient_dim
    if r > cap:
        raise CapExceededError(r, cap)
    rows = _integer_rows(arr)
    acc = [0] * (n + 1)
    acc[0] = 1
    memo: dict = {}

    def visit(flat, start, sign):
        succ = memo.get(flat.rows)
        if succ is None:
            succ = memo[flat.rows] = [None] * r
        for i in range(start, r):
            nxt = succ[i]
            if nxt is None:
                nxt = succ[i] = _extend(flat, rows[i])
            if nxt.is_empty:
                continue
            acc[n - nxt.dimension] -= sign
            visit(nxt, i + 1, -sign)

    visit(ambient_flat(n), 0, 1)
    return tuple(acc[k] if k % 2 == 0 else -acc[k] for k in range(n + 1))


def _general_position(counts: FlatCounts, n: int) -> bool:
    """Every k-subset (k <= n) meets in codimension k; every (n+1)-subset is empty.

    Read off a count table, which may come from the essential part (ambient
    dimension counts.n) of an arrangement in affine n-space.
    """
    r = counts.r
    for k in range(1, min(r, n) + 1):
        if counts.counts.get((k, counts.n - k), 0) != comb(r, k):
            return False
    return r <= n or counts.empty.get(n + 1, 0) == comb(r, n + 1)


def is_general_position(arr: Arrangement, cap: int = DEFAULT_CAP) -> bool:
    """General position in the arrangement's own ambient space, read off `count_flats`."""
    return _general_position(count_flats(arr, cap), arr.ambient_dim)
