"""Intersections of hyperplane subsets, the intersection poset, and oracles.

A flat is the intersection of a subset of the hyperplanes, stored as the
primitive integer echelon rows of its augmented linear system (see
`linalg`), a unique form, so two flats are equal exactly when their rows
are identical.  Flats are built one hyperplane at a time from the canonical
integer hyperplanes by `linalg.echelon_insert`, the package's one
elimination, and restricted by `linalg.integer_kernel_basis`; no rational
arithmetic runs while subsets are walked.  On top of flats this module builds

* the count table: how many subsets of each size cut out a flat of each
  dimension, with empty intersections tallied separately.  Subsets are
  walked down to planes only.  Restricted to a plane X, each hyperplane
  that may still be added contains X (z of them), misses it, or cuts a
  line l of X (c_l of them per line); two lines meet in a point P or are
  parallel.  With m_P the hyperplanes on the lines through P and p_l the
  points on l, adding k of them leaves X C(z, k) times, a line
  sum_l [C(z + c_l, k) - C(z, k)] times, a point
  sum_P C(z + m_P, k) - sum_l p_l [C(z + c_l, k) - C(z, k)] - #P C(z, k)
  times, and the empty set otherwise.  That table depends only on X and
  the next index, so it is memoized on (X's rows, start).  The count
  table carries no spectral grading (`betti.first_page` places each
  bucket), and general position is read off it,
* the intersection poset with its Moebius function, ordered by hyperplane
  masks, and
* two independent combinatorial Betti oracles (Moebius-sum and signed
  inclusion-exclusion over subsets) used to cross-check the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, gcd
from operator import mul

from .arrangement import AFFINE, Arrangement
from .errors import CapExceededError, ValidationError
from .linalg import QMatrix, echelon_insert, integer_kernel_basis, primitive, rref_entries

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

    @property
    def system(self) -> QMatrix:
        """The stripped reduced row echelon form [A | c] over the rationals."""
        cols = len(self.rows[0]) if self.rows else self.dimension + 1
        return QMatrix(len(self.rows), cols, rref_entries(self.rows, self.pivots))


def ambient_flat(n: int) -> Flat:
    return Flat((), n, ())


def _extend(flat: Flat, row) -> Flat:
    """Intersect `flat` with the hyperplane of the integer row [a_1 ... a_n | c].

    A row in the span of the flat's rows is a hyperplane containing the
    flat, which is returned as is; a pivot in the constant column n makes
    the intersection empty.
    """
    step = echelon_insert(flat.rows, flat.pivots, row)
    if step is None:
        return flat
    rows, pivots = step
    empty = pivots[-1] == len(row) - 1
    return Flat(rows, None if empty else flat.dimension - 1, pivots)


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


def _restrict(row, basis) -> tuple:
    """The hyperplane `row` restricted to the flat with kernel basis `basis`.

    Its dot products with the basis vectors, divided by their gcd and signed
    so that the first nonzero one is positive.  All zero means the hyperplane
    contains the flat, a zero direction part (0, ..., 0, 1) that it misses
    the flat, and otherwise it cuts the flat in a hyperplane of the flat:
    for a line a point, for a plane a line.  Two hyperplanes cut the flat in
    the same place exactly when their keys are equal.
    """
    return primitive([sum(map(mul, row, w)) for w in basis])


def _cross(a, b):
    """The point where the lines a and b of a plane meet, or None if they are parallel.

    Lines are keys (a_1, a_2, b) of `_restrict` on a plane, that is the
    equations a_1 t_1 + a_2 t_2 + b w = 0 in the plane's coordinates.  Their
    cross product (t_1, t_2, w) is divided by its gcd and signed with w > 0,
    so every pair of lines through one point gives the same key.
    """
    w = a[0] * b[1] - a[1] * b[0]
    if not w:
        return None
    t1 = a[1] * b[2] - a[2] * b[1]
    t2 = a[2] * b[0] - a[0] * b[2]
    g = gcd(t1, t2, w)
    if w < 0:
        g = -g
    return (t1 // g, t2 // g, w // g)


def _closed_table(keys, d: int) -> list:
    """Subtree counts below a flat X of dimension d <= 2, from its restricted keys.

    `keys` are the `_restrict` keys of the S hyperplanes that may still be
    added.  Entry k - 1 of the result gives, for the subsets of k of them,
    how many leave X itself, a flat of dimension d - 1, one of dimension
    d - 2 and the empty set.  With z hyperplanes containing X and classes of
    c_l hyperplanes cutting X in the same hyperplane l of X:

    * X itself: C(z, k);
    * l: C(z + c_l, k) - C(z, k), summed over l;
    * on a plane, a point P where the lines through P carry m_P hyperplanes
      and p_l points lie on l: sum_P C(z + m_P, k)
      - sum_l p_l [C(z + c_l, k) - C(z, k)] - #P C(z, k);
    * empty: the rest of C(S, k).

    The sums run over histograms of c_l and m_P, not over single lines and
    points.
    """
    tally: dict = {}
    for key in keys:
        tally[key] = tally.get(key, 0) + 1
    z = tally.pop((0,) * (d + 1), 0)
    tally.pop((0,) * d + (1,), None)
    points: dict = {}
    if d == 2:
        lines = list(tally)
        for i, a in enumerate(lines):
            for b in lines[i + 1:]:
                p = _cross(a, b)
                if p is not None:
                    points.setdefault(p, set()).update((a, b))
    on_points = dict.fromkeys(tally, 0)
    multiplicities: dict = {}  # m -> number of points P with m_P = m
    for through in points.values():
        m = 0
        for line in through:
            on_points[line] += 1
            m += tally[line]
        multiplicities[m] = multiplicities.get(m, 0) + 1
    classes: dict = {}  # c -> [number of classes l with c_l = c, sum of their p_l]
    for line, c in tally.items():
        entry = classes.setdefault(c, [0, 0])
        entry[0] += 1
        entry[1] += on_points[line]
    s = len(keys)
    # Past z plus the largest class or point multiplicity only the empty set is left.
    top = min(s, z + max((*classes, *multiplicities), default=0))
    table = []
    for k in range(1, top + 1):
        base = comb(z, k)
        cut = low = 0
        for c, (count, incidences) in classes.items():
            extra = comb(z + c, k) - base
            cut += count * extra
            low -= incidences * extra
        for m, count in multiplicities.items():
            low += count * comb(z + m, k)
        low -= len(points) * base
        table.append((base, cut, low, comb(s, k) - base - cut - low))
    table += [(0, 0, 0, comb(s, k)) for k in range(top + 1, s + 1)]
    return table


def count_flats(arr: Arrangement, cap: int = DEFAULT_CAP) -> FlatCounts:
    """Enumerate all nonempty hyperplane subsets and bucket their flats.

    Enumeration is depth-first in lexicographic order, extending each subset
    by larger indices only and reusing the flat of the prefix; distinct
    prefixes reaching the same flat share work through a memo keyed by the
    flat's integer rows.  Once a prefix has empty intersection all of its
    extensions are counted directly as empty.

    The walk stops at every plane: what the subtree below a prefix adds
    depends only on the prefix's flat X and the next index `start`.  For a
    plane X the S = r - start hyperplanes that may still be added are
    restricted to X (`_restrict`): each contains X, misses it, or cuts a
    line of X, and two lines of X meet in a point or are parallel
    (`_cross`).  With z hyperplanes containing X, c_l cutting the line l,
    m_P on the lines through the point P and p_l points on l, adding k of
    them gives X C(z, k) times, a line sum_l [C(z + c_l, k) - C(z, k)]
    times, a point sum_P C(z + m_P, k) - sum_l p_l [C(z + c_l, k) - C(z, k)]
    - #P C(z, k) times, and the empty set in the rest of C(S, k).
    `_closed_table` computes that table, a list indexed by the number of
    hyperplanes added; it is memoized on (X's rows, start) and folded in
    shifted by the prefix size.  So no flat of dimension 1 or 0 is ever
    built.  When the ambient space is a line or a plane (n <= 2) the whole
    table comes from the root, the line's by the same formulas without
    points.
    """
    _require_affine(arr)
    r, n = arr.r, arr.ambient_dim
    if r > cap:
        raise CapExceededError(r, cap)
    rows = _integer_rows(arr)
    counts: dict = {}
    empty: dict = {}
    memo: dict = {}
    closed: dict = {}

    def close(flat, start, size):
        table = closed.get((flat.rows, start))
        if table is None:
            # Directions of the flat, then an affine part: column n is never a pivot.
            _, basis = integer_kernel_basis(flat.rows, flat.pivots, n + 1)
            keys = [_restrict(row, basis) for row in rows[start:]]
            table = closed[(flat.rows, start)] = _closed_table(keys, flat.dimension)
        d = flat.dimension
        for sz, (same, cut, low, none) in enumerate(table, size + 1):
            if same:
                counts[(sz, d)] = counts.get((sz, d), 0) + same
            if cut:
                counts[(sz, d - 1)] = counts.get((sz, d - 1), 0) + cut
            if low:
                counts[(sz, d - 2)] = counts.get((sz, d - 2), 0) + low
            if none:
                empty[sz] = empty.get(sz, 0) + none

    def visit(flat, start, size):
        if flat.dimension <= 2:
            close(flat, start, size)
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
    order = sorted(
        found.values(), key=lambda fk: (n - fk[0].dimension, rref_entries(fk[0].rows, fk[0].pivots))
    )
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
