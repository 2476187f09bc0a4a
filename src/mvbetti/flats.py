"""Intersections of hyperplane subsets, the intersection poset, and oracles.

A flat is the intersection of a subset of the hyperplanes, stored as the
reduced row echelon form of its augmented linear system with zero rows
stripped, so two flats are equal exactly when their canonical systems are
identical.  On top of flats this module builds

* the count table feeding the spectral-sequence pipeline: how many subsets
  of each size cut out a flat of each dimension, with empty intersections
  tallied separately; general position is read off this table,
* the intersection poset with its Moebius function, ordered by hyperplane
  masks, and
* two independent combinatorial Betti oracles (Moebius-sum and signed
  inclusion-exclusion over subsets) used to cross-check the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .arrangement import AFFINE, Arrangement
from .errors import CapExceededError, ValidationError
from .linalg import QMatrix, vstack

DEFAULT_CAP = 24


@dataclass(frozen=True)
class Flat:
    """An affine subspace cut out by hyperplanes, in canonical form.

    `system` is the stripped rref of the augmented equations; `dimension` is
    None exactly when the system is inconsistent (empty flat).
    """

    system: QMatrix
    dimension: int | None

    @property
    def is_empty(self) -> bool:
        return self.dimension is None

    @staticmethod
    def from_equations(mat: QMatrix) -> "Flat":
        """Canonical flat of the system [A | c] with n = mat.cols - 1 variables."""
        n = mat.cols - 1
        reduced, rank, pivots = mat.rref()
        system = reduced.rows_slice(0, rank)
        if n in pivots:
            return Flat(system, None)
        return Flat(system, n - rank)


def ambient_flat(n: int) -> Flat:
    return Flat(QMatrix(0, n + 1, []), n)


def _extend(flat: Flat, equation_row: list) -> Flat:
    stacked = vstack([flat.system, QMatrix(1, flat.system.cols, equation_row)])
    return Flat.from_equations(stacked)


def _require_affine(arr: Arrangement):
    if arr.kind != AFFINE:
        raise ValidationError("flats are computed for affine arrangements; decone first")


def flat_of_subset(arr: Arrangement, subset) -> Flat:
    """Flat of the intersection of the selected hyperplanes (empty subset: ambient space)."""
    _require_affine(arr)
    n = arr.ambient_dim
    rows = []
    for i in subset:
        if not 0 <= i < arr.r:
            raise ValidationError(f"hyperplane index {i} out of range for r={arr.r}")
        rows.append(arr.hyperplanes[i].equation_row())
    if not rows:
        return ambient_flat(n)
    return Flat.from_equations(QMatrix(len(rows), n + 1, [x for row in rows for x in row]))


@dataclass(frozen=True)
class FlatCounts:
    """Counts of hyperplane subsets bucketed by spectral position.

    counts[(p, q)] is the number of nonempty subsets I with |I| = 1-p whose
    flat has dimension (n-q-1)/2; empty[s] counts the size-s subsets with
    empty intersection.  For every size s the buckets plus empty[s] add up to
    binomial(r, s).
    """

    counts: dict
    empty: dict
    n: int
    r: int


def count_flats(arr: Arrangement, cap: int = DEFAULT_CAP) -> FlatCounts:
    """Enumerate all nonempty hyperplane subsets and bucket their flats.

    Enumeration is depth-first in lexicographic order, extending each subset
    by larger indices only and reusing the flat of the prefix; distinct
    prefixes reaching the same flat share work through memoization.  Once a
    prefix has empty intersection all of its extensions are counted directly
    as empty.
    """
    _require_affine(arr)
    r, n = arr.r, arr.ambient_dim
    if r > cap:
        raise CapExceededError(r, cap)
    rows = [h.equation_row() for h in arr.hyperplanes]
    counts: dict = {}
    empty: dict = {}
    memo: dict = {}

    def visit(flat, start, size):
        for i in range(start, r):
            key = (flat.system, i)
            nxt = memo.get(key)
            if nxt is None:
                nxt = _extend(flat, rows[i])
                memo[key] = nxt
            sz = size + 1
            if nxt.is_empty:
                empty[sz] = empty.get(sz, 0) + 1
                remaining = r - 1 - i
                for k in range(1, remaining + 1):
                    empty[sz + k] = empty.get(sz + k, 0) + comb(remaining, k)
            else:
                pq = (1 - sz, n - 2 * nxt.dimension - 1)
                counts[pq] = counts.get(pq, 0) + 1
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
    rows = [h.equation_row() for h in arr.hyperplanes]
    ambient = ambient_flat(n)
    found = {ambient.system: (ambient, 0)}
    frontier = [ambient]
    while frontier:
        children = {}
        for f in frontier:
            mask = found[f.system][1]
            for i in range(r):
                if mask >> i & 1:
                    continue
                g = _extend(f, rows[i])
                if not g.is_empty:
                    # H_g is H_f plus every i whose hyperplane cuts f in g; no parent adds more.
                    children.setdefault(g.system, [g, mask])[1] |= 1 << i
        found.update((system, tuple(child)) for system, child in children.items())
        frontier = [g for g, _ in children.values()]
    order = sorted(found.values(), key=lambda fk: (n - fk[0].dimension, fk[0].system.entries))
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
    rows = [h.equation_row() for h in arr.hyperplanes]
    acc = [0] * (n + 1)
    acc[0] = 1
    memo: dict = {}

    def visit(flat, start, sign):
        for i in range(start, r):
            key = (flat.system, i)
            nxt = memo.get(key)
            if nxt is None:
                nxt = _extend(flat, rows[i])
                memo[key] = nxt
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
        # size k, dimension counts.n - k
        if counts.counts.get((1 - k, 2 * k - counts.n - 1), 0) != comb(r, k):
            return False
    return r <= n or counts.empty.get(n + 1, 0) == comb(r, n + 1)


def is_general_position(arr: Arrangement, cap: int = DEFAULT_CAP) -> bool:
    """General position in the arrangement's own ambient space, read off `count_flats`."""
    return _general_position(count_flats(arr, cap), arr.ambient_dim)
