"""Intersections of hyperplane subsets, the intersection poset, and oracles.

A flat is the intersection of a subset of the hyperplanes, stored as the
primitive integer echelon rows of its augmented linear system (see
`linalg`), a unique form, so two flats are equal exactly when their rows
are identical.  Flats are built one hyperplane at a time from the
hyperplanes' primitive integer rows (`Hyperplane.equation_row`) by
`linalg.echelon_insert`, the package's one elimination; a hyperplane is
restricted to another by the same integer cross-multiplication
(`linalg.restrict`).  No rational arithmetic runs while subsets are
counted.  On top of flats this module builds

* the count table: how many subsets of each size cut out a flat of each
  dimension, with empty intersections tallied separately.  It is counted
  by deletion and restriction on the restricted equations: the subsets of
  a flat X's hyperplanes without the first one h, plus, one size up, those
  with h, which are the subsets of the others restricted to the flat
  X ∩ h.  Two hyperplanes that cut X in the same place restrict to the
  same primitive key, so the count below X depends only on X's dimension
  and the multiset of keys, and is memoized on them.  The recursion stops
  at planes.  Restricted to a plane X, each hyperplane contains X (z of
  them), misses it, or cuts a line l of X (c_l of them per line); two lines
  meet in a point P or are parallel.  With m_P the hyperplanes on the lines
  through P and p_l the points on l, adding k of them leaves X C(z, k)
  times, a line sum_l [C(z + c_l, k) - C(z, k)] times, a point
  sum_P C(z + m_P, k) - sum_l p_l [C(z + c_l, k) - C(z, k)] - #P C(z, k)
  times, and the empty set otherwise.  The count table carries no spectral
  grading (`betti.first_page` places each bucket), and general position is
  read off it,
* the intersection poset: the one sweep over the hyperplanes (by
  `_extend`) that finds the nonempty flats, each with the mask of the
  hyperplanes containing it and its Moebius value, summed during that sweep
  (Weisner: mu(Y) = -sum of mu(X) over the flats X ≠ Y with X ∩ H_i = Y, at
  the last H_i containing Y); it is kept in the order found, and
* two combinatorial Betti oracles read off that poset to cross-check the
  pipeline: the Moebius sum of |mu(X)| and Whitney's signed sum of mu(X)
  by codimension, which agree exactly when every mu(X) has the sign
  (-1)^codim X; the sweep is their one route to `count_flats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, gcd

from .arrangement import AFFINE, Arrangement
from .errors import CapExceededError, ValidationError
from .linalg import echelon_insert, restrict

DEFAULT_CAP = 24


@dataclass(frozen=True)
class Flat:
    """An affine subspace cut out by hyperplanes, in canonical form.

    `rows` are the primitive integer echelon rows of the augmented equations
    [a_1 ... a_n | c]: the stripped reduced row echelon form, each row scaled
    to coprime integers with a positive pivot, in pivot order.  `pivots` are
    their pivot columns, derived from `rows` and left out of equality.
    `dimension` is None exactly when the constant column n is a pivot (empty
    flat).
    """

    rows: tuple
    dimension: int | None
    pivots: tuple = field(compare=False)

    @property
    def is_empty(self) -> bool:
        return self.dimension is None


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
    rows, pivots, _ = step
    empty = pivots[-1] == len(row) - 1
    return Flat(rows, None if empty else flat.dimension - 1, pivots)


def _require_affine(arr: Arrangement):
    if arr.kind != AFFINE:
        raise ValidationError("flats are computed for affine arrangements; decone first")


def _walk_rows(arr: Arrangement, cap: int) -> list:
    """The hyperplanes' integer rows, after the checks every flat walk makes first.

    The arrangement must be affine, then have at most `cap` hyperplanes.
    """
    _require_affine(arr)
    if arr.r > cap:
        raise CapExceededError(arr.r, cap)
    return [h.equation_row() for h in arr.hyperplanes]


def flat_of_subset(arr: Arrangement, subset) -> Flat:
    """Flat of the intersection of the selected hyperplanes (empty subset: ambient space)."""
    _require_affine(arr)
    flat = ambient_flat(arr.ambient_dim)
    for i in subset:
        if not 0 <= i < arr.r:
            raise ValidationError(f"hyperplane index {i} out of range for r={arr.r}")
        flat = _extend(flat, arr.hyperplanes[i].equation_row())
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


def _cross(a, b):
    """The point where the lines a and b of a plane meet, or None if they are parallel.

    Lines are keys (a_1, a_2, b) of `linalg.restrict` on a plane, that is the
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


def _closed_table(keys, d: int) -> dict:
    """`_subset_table` of a flat X of dimension d <= 2, from binomials.

    `keys` are the `linalg.restrict` keys of the S hyperplanes that may
    still be added.  For the subsets of k of them the result counts how many
    leave X itself, a flat of dimension d - 1, one of dimension d - 2 and the
    empty set, keyed (k, dimension) with dimension None for the empty set.
    With z hyperplanes containing X and classes of c_l hyperplanes cutting
    X in the same hyperplane l of X:

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
    table = {(0, d): 1}
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
        for dim, c in zip((d, d - 1, d - 2, None), (base, cut, low, comb(s, k) - base - cut - low)):
            if c:
                table[(k, dim)] = c
    table.update(((k, None), comb(s, k)) for k in range(top + 1, s + 1))
    return table


def _subset_table(d: int, keys: tuple, memo: dict) -> dict:
    """T(d, keys): the subsets of `keys` counted by size and by the dimension of their flat.

    `keys` are the sorted `linalg.restrict` keys of hyperplanes restricted to a
    flat X of dimension d, in X's own coordinates (d direction columns,
    then the affine column).  The result maps (size, dimension) to a count,
    with dimension None for an empty intersection; the empty subset gives
    X itself.  With h = keys[0] and the rest after it, T(d, keys) is
    T(d, rest) plus, one size up, what the subsets holding h add:
    T(d, rest) itself if h contains X (all zero), every subset of the rest
    as empty if h misses X (0, ..., 0, 1), and otherwise T(d - 1, rest
    restricted to the hyperplane h of X).

    The table depends only on d and the multiset of keys, so it is memoized
    on (d, keys).  The deletions run as a loop, from the longest memoized
    suffix of `keys` to the front; only restrictions recurse, so the depth
    is at most d - 2.
    """
    if d <= 2:
        table = memo.get((d, keys))
        if table is None:
            table = memo[(d, keys)] = _closed_table(keys, d)
        return table
    start = len(keys)
    table = {(0, d): 1}
    for i in range(len(keys)):
        known = memo.get((d, keys[i:]))
        if known is not None:
            start, table = i, known
            break
    contains = (0,) * (d + 1)
    misses = (0,) * d + (1,)
    for i in range(start - 1, -1, -1):
        h, rest = keys[i], keys[i + 1:]
        if h == contains:
            below = table
        elif h == misses:
            below = {(k, None): comb(len(rest), k) for k in range(len(rest) + 1)}
        else:
            pivot = next(j for j, x in enumerate(h) if x)
            cut = tuple(sorted(restrict(row, h, pivot) for row in rest))
            below = _subset_table(d - 1, cut, memo)
        table = dict(table)
        for (size, dim), c in below.items():
            table[(size + 1, dim)] = table.get((size + 1, dim), 0) + c
        memo[(d, keys[i:])] = table
    return table


def count_flats(arr: Arrangement, cap: int = DEFAULT_CAP) -> FlatCounts:
    """Count the nonempty hyperplane subsets by size and by the dimension of their flat.

    By deletion and restriction (Orlik and Terao, Arrangements of
    Hyperplanes, 1992, section 2.3), applied to the whole table: the
    subsets without a hyperplane h are those of the arrangement with h
    deleted, and the subsets with h are, one size up, those of the other
    hyperplanes restricted to h.  `_subset_table` runs that recursion on
    the restricted equations, each in its flat's own coordinates, from the
    root state (n, the sorted canonical hyperplane rows).  Restricted to a
    flat, two hyperplanes that cut it in the same place have the same key,
    so the count below a flat depends only on its dimension and the
    multiset of keys, and equal multisets, such as every coordinate
    subspace of a Boolean arrangement or the braid flats that show the same
    smaller arrangement, are counted once.  Flats of dimension 2 or less
    are counted from binomials by `_closed_table`; so no flat of dimension
    1 or 0 is ever built, and for n <= 2 the whole table comes from the
    root.
    """
    rows = _walk_rows(arr, cap)
    r, n = arr.r, arr.ambient_dim
    # Hyperplane rows are primitive with the first nonzero entry positive: keys already.
    table = _subset_table(n, tuple(sorted(rows)), {})
    counts = {key: c for key, c in table.items() if key[0] and key[1] is not None}
    empty = {size: c for (size, dim), c in table.items() if dim is None}
    return FlatCounts(counts, empty, n, r)


@dataclass(frozen=True)
class IntersectionPoset:
    """Nonempty flats closed under intersection, ordered by reverse inclusion.

    `sweep` holds (flat, mask, mu) in the order the sweep found the flats:
    bit i of mask is set iff hyperplane i contains the flat, so Y contains X
    iff mask(Y) is a subset of mask(X), and mu is its Moebius value, with
    mu = 1 on the ambient space and mu[x] = -sum(mu[y] for y strictly
    containing x).  No order is imposed on the flats; a caller that prints
    them sorts them itself.
    """

    ambient_dim: int
    sweep: tuple


def build_intersection_poset(arr: Arrangement, cap: int = DEFAULT_CAP) -> IntersectionPoset:
    """Every nonempty flat with its Moebius value, by one sweep over the hyperplanes in input order.

    Each flat X is keyed by the bitmask H_X of the hyperplanes containing it:
    Y contains X iff H_Y is a subset of H_X.  After hyperplanes 0..i-1 the
    dict holds every nonempty intersection of them; step i extends a snapshot
    of it by H_i, so the flats made at step i are not cut by H_i again.  The
    mask of Y = X ∩ H_i is complete: the flat X' cut out by the earlier
    hyperplanes containing Y is in the snapshot and X' ∩ H_i = Y, so every
    earlier bit of Y arrives through X', and every later bit arrives when Y
    meets a hyperplane that contains it.

    Moebius values follow Weisner's theorem (Stanley, EC1, Cor. 3.9.3) on the
    lattice of flats containing Y, with the atom H_i ⊇ Y: mu(Y) = -sum of
    mu(X) over the flats X ≠ Y with X ∩ H_i = Y.  Step i sums mu(f) over the
    snapshot flats f with f ∩ H_i = Y ≠ f and sets mu(Y) to minus the sum.
    The last step that reaches Y is i = max(H_Y), and then each such X has
    H_X ⊊ H_Y without i, so X is cut out by hyperplanes before i: it is in
    the snapshot, and its own last step is past, so mu(X) is final.
    """
    rows = _walk_rows(arr, cap)
    n = arr.ambient_dim
    ambient = ambient_flat(n)
    found = {ambient.rows: [ambient, 0, 1]}
    for i, row in enumerate(rows):
        bit, sums = 1 << i, {}
        for f, mask, mu in list(found.values()):
            g = _extend(f, row)
            if g is f:
                found[f.rows][1] |= bit
            elif not g.is_empty:
                found.setdefault(g.rows, [g, 0, 0])[1] |= mask | bit
                sums[g.rows] = sums.get(g.rows, 0) + mu
        for key, total in sums.items():
            found[key][2] = -total
    return IntersectionPoset(n, tuple(map(tuple, found.values())))


def mobius_betti(poset: IntersectionPoset) -> tuple:
    """Betti numbers via the classical Moebius-function formula.

    b_k is the sum of |mu(ambient, x)| over flats x of codimension k; this is
    the Orlik-Solomon decomposition of the complement's cohomology, used here
    purely as an oracle.  It reads the sweep as found.
    """
    n = poset.ambient_dim
    betti = [0] * (n + 1)
    for flat, _, mu in poset.sweep:
        betti[n - flat.dimension] += abs(mu)
    return tuple(betti)


def whitney_betti(poset: IntersectionPoset) -> tuple:
    """Betti numbers by signed inclusion-exclusion over hyperplane subsets.

    b_k = (-1)^k * sum over subsets I with nonempty intersection of
    codimension k of (-1)^|I|, the empty subset contributing to k = 0.  The
    subsets that cut out a flat X add up to mu(X) (Whitney's theorem), so
    b_k is (-1)^k times the sum of mu(X) over the flats of codimension k,
    read off the sweep as found.
    """
    n = poset.ambient_dim
    acc = [0] * (n + 1)
    for flat, _, mu in poset.sweep:
        acc[n - flat.dimension] += mu
    return tuple(-a if k % 2 else a for k, a in enumerate(acc))


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
