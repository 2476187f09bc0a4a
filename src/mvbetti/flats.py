"""Intersections of hyperplane subsets, the intersection poset, and oracles.

A flat is the intersection of a subset of the hyperplanes, stored as the
primitive integer echelon rows of its augmented linear system (see
`linalg`), a unique form, so two flats are equal exactly when their rows
are identical.  Flats are built one hyperplane at a time from the
hyperplanes' primitive integer rows (`Hyperplane.equation_row`) by the
two halves of `linalg.echelon_insert`, the canonical elimination step: a
cut whose reduced row has its pivot in the constant column is empty, no
flat, and skips the back-substitution.  Hyperplanes are restricted to
another by the same integer cross-multiplication (`linalg.restrict_rows`).
No rational arithmetic runs while subsets are counted.  On top of flats
this module builds

* the count table: how many subsets of each size cut out a flat of each
  dimension, with empty intersections tallied separately, as one
  polynomial in x per dimension (its coefficient of x^s counts size-s
  subsets) packed in one integer.  Hyperplanes that contain a flat X or
  miss it enter X's table in closed form; over those that cut X, deletion
  and restriction give T(rest) + x T(cut), the subsets without the first
  one h and those with h, the subsets of the rest restricted to X ∩ h.
  Two hyperplanes cut X in the same place exactly when they restrict to
  the same primitive key, so T depends only on dim X and the multiset of
  cutting keys, and is memoized on them.  Planes are closed forms in
  powers of (1 + x).  The table carries no spectral grading
  (`betti.first_page` places each bucket); general position is read off it,
* the intersection poset: the one sweep over the hyperplanes (by
  `_extend`) that finds the nonempty flats, each with its Moebius value,
  summed during that sweep (Weisner: mu(Y) = -sum of mu(X) over the flats
  X ≠ Y with X ∩ H_i = Y, at the last H_i containing Y); it is kept in the
  order found, and
* two combinatorial Betti oracles read off that poset to cross-check the
  pipeline: the Moebius sum of |mu(X)| and Whitney's signed sum of mu(X)
  by codimension, which agree exactly when every mu(X) has the sign
  (-1)^codim X; the sweep is their one route to `count_flats`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from math import comb, gcd

from .arrangement import AFFINE, Arrangement
from .errors import CapExceededError, ValidationError
from .linalg import back_substitute, echelon_reduce, restrict_rows

DEFAULT_CAP = 24


@dataclass(frozen=True)
class Flat:
    """An affine subspace cut out by hyperplanes, in canonical form.

    `rows` are the primitive integer echelon rows of the augmented equations
    [a_1 ... a_n | c]: the stripped reduced row echelon form, each row scaled
    to coprime integers with a positive pivot, in pivot order.  `pivots` are
    their pivot columns, derived from `rows` and left out of equality.  A
    flat is never empty: no pivot lies in the constant column n, and the
    ambient space alone has no rows.
    """

    rows: tuple
    dimension: int
    pivots: tuple = field(compare=False)


def ambient_flat(n: int) -> Flat:
    return Flat((), n, ())


def _extend(flat: Flat, row) -> Flat | None:
    """Intersect `flat` with the hyperplane of the integer row [a_1 ... a_n | c].

    A row in the span of the flat's rows is a hyperplane containing the
    flat, which is returned as is.  A reduced row with its pivot in the
    constant column n makes the intersection empty: None, with no
    back-substitution.
    """
    step = echelon_reduce(flat.rows, flat.pivots, row)
    if step is None:
        return flat
    v, q = step
    if q == len(row) - 1:
        return None
    rows, pivots = back_substitute(flat.rows, flat.pivots, v, q)
    return Flat(rows, flat.dimension - 1, pivots)


def _walk_rows(arr: Arrangement, cap: int) -> list:
    """The hyperplanes' integer rows, after the checks every flat walk makes first.

    The arrangement must be affine, then have at most `cap` hyperplanes.
    """
    if arr.kind != AFFINE:
        raise ValidationError("flats are computed for affine arrangements; decone first")
    if arr.r > cap:
        raise CapExceededError(arr.r, cap)
    return [h.equation_row() for h in arr.hyperplanes]


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

    Lines are keys (a_1, a_2, b) of `linalg.restrict_rows` on a plane, that
    is the equations a_1 t_1 + a_2 t_2 + b w = 0 in the plane's coordinates.
    Their cross product (t_1, t_2, w) is divided by its gcd and signed with
    w > 0, so every pair of lines through one point gives the same key.
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


def _closed_table(keys, d: int, w: int, powers: list) -> dict:
    """`_subset_table` of a flat X of dimension d <= 2, from powers of (1 + x).

    `keys` are the `linalg.restrict_rows` keys of the S hyperplanes that may
    still be added, all cutting X (`_subset_table` peels the rest), and
    powers[N] is (1 + x)^N packed in slots of w bits.  With classes of c_l
    of them cutting X in the same hyperplane l of X, the subsets leave

    * X itself: 1;
    * l: (1 + x)^c_l - 1, summed over l;
    * on a plane, a point P where the lines through P carry m_P hyperplanes:
      (1 + x)^m_P - 1 less the terms of those lines, summed over P;
    * the empty set: the rest of (1 + x)^S.

    A line takes at least one key and a point two, so their polynomials are
    divisible by x and x^2, and are stored divided (see `_subset_table`).
    Each point is summed once, from the first of its lines in key order:
    that line is crossed (`_cross`) with every later one, so it meets every
    other line through P, and the crossings group by P into m_P while the
    terms of P's lines are taken off.  Points a later line meets are skipped
    when an earlier line summed them.
    """
    tally: dict = {}
    for key in keys:
        tally[key] = tally.get(key, 0) + 1
    lines = [(line, c, powers[c] - 1) for line, c in tally.items()]
    low, done = 0, {}
    for i, (a, c, extra) in enumerate(lines if d == 2 else ()):
        through = {}
        for b, cb, eb in lines[i + 1:]:
            p = _cross(a, b)
            if p is not None and p not in done:
                through[p] = through.get(p, c) + cb
                low -= eb
        if through:
            low -= len(through) * (1 + extra)
            for m in through.values():
                low += powers[m]
            done.update(through)
    cut = sum(extra for _, _, extra in lines)
    empty = powers[len(keys)] - 1 - cut - low
    return {d: 1, d - 1: cut >> w, d - 2: low >> 2 * w, None: empty}


def _subset_table(d: int, keys: tuple, memo: dict, w: int, powers: list) -> dict:
    """T(d, keys): the subsets of `keys` counted by size and by the dimension of their flat.

    `keys` are the sorted `linalg.restrict_rows` keys of hyperplanes
    restricted to a flat X of dimension d, in X's own coordinates (d
    direction columns, then the affine column).  T maps a dimension e to
    the polynomial whose coefficient of x^s counts the size-s subsets with
    a flat of dimension e, divided by x^(d - e), as such a subset has at
    least d - e members, and None to that of the empty intersections,
    undivided; the empty subset gives X itself.  Packed in slots of w bits
    (see `count_flats`), a factor x is a shift by one slot.

    Sorted keys start with the z that contain X (all zero), then the m that
    miss it (0, ..., 0, 1), peeled at once: with T the table of the S keys
    that cut X, the misses add (1 + x)^(S + m) - (1 + x)^S at None, and the
    contains multiply all of T by (1 + x)^z, a packed product that is exact
    because its inputs and output are nonnegative subset counts below 2^w,
    so no slot carries.  With h = keys[0] cutting X, deletion and
    restriction read T(d, keys) = T(d, rest) + x T(d - 1, rest restricted
    to the hyperplane h of X), one `restrict_rows` call for the whole rest,
    whose one power of x less absorbs the x on every dimension but None.
    T of the cutting keys depends only on d and their multiset, so it is
    memoized on (d, keys).  The deletions run as a loop, from the longest
    memoized suffix to the front; only restrictions recurse, so the depth
    is at most d - 2.  A run of equal keys restricts once.
    """
    cutting = bisect_right(keys, (0,) * d + (1,))
    z = bisect_right(keys, (0,) * (d + 1), 0, cutting)
    keys, m = keys[cutting:], cutting - z
    if d <= 2:
        table = memo.get((d, keys))
        if table is None:
            table = memo[(d, keys)] = _closed_table(keys, d, w, powers)
    else:
        start = len(keys)
        table = {d: 1}
        for i in range(len(keys)):
            known = memo.get((d, keys[i:]))
            if known is not None:
                start, table = i, known
                break
        below = None
        for i in range(start - 1, -1, -1):
            h, rest = keys[i], keys[i + 1:]
            if below is not None and h == rest[0]:
                # The cut of the step before plus h's own zero key: one more factor 1 + x.
                below = {dim: poly + (poly << w) for dim, poly in below.items()}
            else:
                pivot = 0
                while not h[pivot]:
                    pivot += 1
                cut = tuple(sorted(restrict_rows(rest, h, pivot)))
                below = _subset_table(d - 1, cut, memo, w, powers)
            table = dict(table)
            for dim, poly in below.items():
                table[dim] = table.get(dim, 0) + (poly if dim is not None else poly << w)
            memo[(d, keys[i:])] = table
    if m:
        table = dict(table)
        table[None] = table.get(None, 0) + powers[len(keys) + m] - powers[len(keys)]
    if z:
        table = {dim: poly * powers[z] for dim, poly in table.items()}
    return table


def count_flats(arr: Arrangement, cap: int = DEFAULT_CAP) -> FlatCounts:
    """Count the nonempty hyperplane subsets by size and by the dimension of their flat.

    By deletion and restriction (Orlik and Terao, Arrangements of
    Hyperplanes, 1992, section 2.3) on the whole table, which
    `_subset_table` runs on the restricted equations, each in its flat's
    own coordinates, from the root state (n, the sorted canonical
    hyperplane rows).  Equal key multisets, such as every coordinate
    subspace of a Boolean arrangement or the braid flats that show the same
    smaller arrangement, are counted once, and flats of dimension 2 or less
    by `_closed_table`; so no flat of dimension 1 or 0 is ever built, and
    for n <= 2 the whole table comes from the root.

    A polynomial is packed in one integer, its coefficient of x^s in the w
    bits from bit s w on.  A final coefficient counts subsets of one size
    among r, so it is at most C(r, r // 2) < 2^w for w the bit length of
    C(r, r // 2), and no slot carries into the next; partial sums may be
    negative, which exact integers carry through.  The table is unpacked
    once, at the end.
    """
    rows = _walk_rows(arr, cap)
    r, n = arr.r, arr.ambient_dim
    w, powers = comb(r, r // 2).bit_length(), [1]
    for _ in range(r):
        powers.append(powers[-1] + (powers[-1] << w))
    # Hyperplane rows are primitive with the first nonzero entry positive: keys already.
    table = _subset_table(n, tuple(sorted(rows)), {}, w, powers)
    counts, empty, mask = {}, {}, (1 << w) - 1
    for dim, poly in table.items():
        for size in range(0 if dim is None else n - dim, r + 1):
            c = poly & mask
            if c and size:
                if dim is None:
                    empty[size] = c
                else:
                    counts[(size, dim)] = c
            poly >>= w
    return FlatCounts(counts, empty, n, r)


@dataclass(frozen=True)
class IntersectionPoset:
    """Nonempty flats closed under intersection, ordered by reverse inclusion.

    `sweep` holds (flat, mu) in the order the sweep found the flats: mu is
    the flat's Moebius value, with mu = 1 on the ambient space and
    mu[x] = -sum(mu[y] for y strictly containing x).  No order is imposed on
    the flats; a caller that prints them sorts them itself.
    """

    ambient_dim: int
    sweep: tuple


def build_intersection_poset(arr: Arrangement, cap: int = DEFAULT_CAP) -> IntersectionPoset:
    """Every nonempty flat with its Moebius value, by one sweep over the hyperplanes in input order.

    After hyperplanes 0..i-1 the dict holds every nonempty intersection of
    them.  Step i collects the cuts of those flats by H_i in a dict of its
    own and merges it in afterwards, so the flats made at step i are not cut
    by H_i again.

    Moebius values follow Weisner's theorem (Stanley, EC1, Cor. 3.9.3) on the
    lattice of flats containing Y, with the atom H_i ⊇ Y: mu(Y) = -sum of
    mu(X) over the flats X ≠ Y with X ∩ H_i = Y.  Step i sums mu(f) over the
    flats f found before it with f ∩ H_i = Y ≠ f and sets mu(Y) to minus the
    sum.  With H_X the set of hyperplanes containing X, the last step that
    reaches Y is i = max(H_Y), and then each such X has H_X ⊊ H_Y without i,
    so X is cut out by hyperplanes before i: it was found before step i, and
    its own last step is past, so mu(X) is final.
    """
    rows = _walk_rows(arr, cap)
    n = arr.ambient_dim
    ambient = ambient_flat(n)
    found = {ambient.rows: (ambient, 1)}
    for row in rows:
        step = {}
        for f, mu in found.values():
            g = _extend(f, row)
            if g is not None and g is not f:
                g, total = step.get(g.rows, (g, 0))
                step[g.rows] = (g, total - mu)
        found.update(step)
    return IntersectionPoset(n, tuple(found.values()))


def mobius_betti(poset: IntersectionPoset) -> tuple:
    """Betti numbers via the classical Moebius-function formula.

    b_k is the sum of |mu(ambient, x)| over flats x of codimension k; this is
    the Orlik-Solomon decomposition of the complement's cohomology, used here
    purely as an oracle.  It reads the sweep as found.
    """
    n = poset.ambient_dim
    betti = [0] * (n + 1)
    for flat, mu in poset.sweep:
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
    for flat, mu in poset.sweep:
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


def is_general_position(arr: Arrangement) -> bool:
    """General position in the arrangement's own ambient space.

    Read off `count_flats` of all r hyperplanes, with no cap.
    """
    return _general_position(count_flats(arr, arr.r), arr.ambient_dim)
