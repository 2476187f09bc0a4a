"""De Rham Betti numbers of arrangement complements via Mayer-Vietoris.

The relative Mayer-Vietoris spectral sequence of the localization along the
union of the hyperplanes has as first page the sum, over nonempty subsets I
of hyperplanes, of the direct-image cohomology of the localization along the
flat of I, placed in column p = 1 - |I|.  That cohomology is one-dimensional
in degrees -n and n-2d-1 for a flat of dimension d in affine n-space (just
-n for an empty intersection), so the first page is a fold of
`localized_flat_cohomology` over the subset count table of `count_flats`.
Each fixed-q row of that page is exact except at its last position, which
makes the second page computable by alternating sums.  Each row's surviving
entry sits at the one position 2p = 1 - q - n, where no later differential
reaches another entry, so the sequence degenerates at E2 and the graded
limit reads off the Betti numbers; `graded_from_second_page` checks that
rule and holds the proof.

Grading convention: the direct image to a point concentrates global de Rham
cohomology in degrees -n..0; the topological Betti number b_k is the
dimension in degree k - n.  Non-essential arrangements are reduced to their
essential part first and the answer is shifted back (Kuenneth), which leaves
the b_k unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

from .arrangement import Arrangement, _affine_chart, essentialize
from .errors import ConsistencyError, ValidationError
from .flats import (
    DEFAULT_CAP,
    FlatCounts,
    _general_position,
    build_intersection_poset,
    count_flats,
    mobius_betti,
    whitney_betti,
)


def punctured_space_cohomology(m: int) -> dict:
    """Direct-image cohomology of affine m-space minus a point: {-m: 1, m-1: 1}."""
    if m < 1:
        raise ValidationError("punctured space needs dimension >= 1")
    return {-m: 1, m - 1: 1}


def kunneth_shift(graded: dict, shift: int) -> dict:
    """Tensoring with the cohomology of affine `shift`-space moves degree i to i-shift."""
    return {i - shift: d for i, d in graded.items()}


def localized_flat_cohomology(n: int, flat_dim: int | None) -> dict:
    """Direct-image cohomology of affine n-space localized along one flat.

    A nonempty flat of dimension d factors the complement as (punctured
    (n-d)-space) x (affine d-space), giving {-n: 1, n-2d-1: 1}; an empty
    intersection contributes plain affine space, {-n: 1}.
    """
    if flat_dim is None:
        return {-n: 1}
    if not 0 <= flat_dim <= n - 1:
        raise ValidationError(f"flat dimension {flat_dim} out of range for ambient {n}")
    return kunneth_shift(punctured_space_cohomology(n - flat_dim), flat_dim)


@dataclass(frozen=True)
class MVPage:
    """Dimension table of one page of the Mayer-Vietoris spectral sequence."""

    dims: dict
    page: int
    n: int
    r: int


def first_page(counts: FlatCounts) -> MVPage:
    """First page: the sum over nonempty subsets I of the localized cohomology of flat(I).

    A subset of size s sits in column p = 1 - s and adds
    `localized_flat_cohomology(n, dim flat(I))` to that column, an empty
    intersection counting with dimension None.  Every subset adds its
    degree -n piece, so the q = -n row is binomial(r, 1-p) exactly when the
    table accounts for every subset.
    """
    n, r = counts.n, counts.r
    if r < 1:
        raise ValidationError("spectral sequence needs at least one hyperplane")
    buckets = [*counts.counts.items(), *(((s, None), c) for s, c in counts.empty.items())]
    dims = {}
    for (size, flat_dim), c in buckets:
        for q, d in localized_flat_cohomology(n, flat_dim).items():
            dims[(1 - size, q)] = dims.get((1 - size, q), 0) + c * d
    return MVPage(dims, 1, n, r)


def last_cohomology_dim(row: Sequence[int]) -> int:
    """Dimension of the final cohomology of a row exact except at its end.

    For 0 -> V_0 -> ... -> V_s exact away from V_s, the cokernel at V_s has
    dimension (-1)^s * sum_i (-1)^i dim V_i.  A negative value would
    contradict the exactness assumption and is raised as an inconsistency.
    """
    if not row:
        raise ValidationError("empty row")
    s = len(row) - 1
    total = sum(v if i % 2 == 0 else -v for i, v in enumerate(row))
    value = total if s % 2 == 0 else -total
    if value < 0:
        raise ConsistencyError(
            f"alternating sum of row {tuple(row)} is negative ({value}); "
            "the row cannot be exact except at its last position"
        )
    return value


def second_page(page1: MVPage) -> MVPage:
    """Second page: each row collapses to its last cohomology.

    The q = -n row always leaves a single 1 at p = 0; every other nonempty
    row leaves its alternating sum at its greatest occupied position.  A
    negative sum is raised as a `ConsistencyError` naming the row q.
    """
    if page1.page != 1:
        raise ValidationError("second_page consumes a first page")
    n = page1.n
    rows: dict = {}
    for (p, q), d in page1.dims.items():
        rows.setdefault(q, {})[p] = d
    dims = {}
    for q, row in sorted(rows.items()):
        p_lo, p_hi = min(row), max(row)
        try:
            value = last_cohomology_dim([row.get(p, 0) for p in range(p_lo, p_hi + 1)])
        except ConsistencyError as exc:
            raise ConsistencyError(f"row q={q}: {exc}") from None
        if q == -n:
            dims[(0, q)] = value
        elif value:
            dims[(p_hi, q)] = value
    return MVPage(dims, 2, n, page1.r)


def graded_from_second_page(page2: MVPage) -> dict:
    """Graded limit of the sequence: degrees -n..0.

    Checks one position rule, and degeneration and one row per degree follow
    from it.  The bottom row holds the single entry 1 at (0, -n); any other
    entry (p, q) sits at 2p = 1 - q - n (essentiality of the arrangement) and
    lands in degree i = p + q = 1 - n - p, inside (-n, 0].  So p fixes both
    q and i: distinct rows land in distinct degrees.  A d_r from (p, q) to
    (p + r, q - r + 1) raises the degree by one, but between two such
    entries it lowers it by r, which would need -r = 1.  The bottom entry has
    no partner either: that would need an entry at p >= 2 or in degree
    -n - 1.  No d_r with r >= 2 is nonzero, and E2 is the limit.  Each entry
    off the rule is a `ConsistencyError` naming its row q.
    """
    n = page2.n
    if page2.page != 2:
        raise ValidationError("graded_from_second_page consumes a second page")
    out = {}
    for (p, q), d in sorted(page2.dims.items()):
        if q == -n:
            if p != 0 or d != 1:
                raise ConsistencyError(f"bottom row q={q}: entry {d} at p={p}, expected 1 at p=0")
            continue
        expected = 1 - q - n
        if expected % 2 or p != expected // 2:
            raise ConsistencyError(
                f"surviving entry of row q={q} at p={p}, expected p={expected}/2"
            )
        i = p + q
        if not -n < i <= 0:
            raise ConsistencyError(f"entry of row q={q} lands in degree {i}, outside {1 - n}..0")
        out[i] = d
    out[-n] = 1
    return out


@dataclass(frozen=True)
class BettiReport:
    """Everything one run of the pipeline produced."""

    kind: str
    n: int
    r: int
    betti: tuple
    e1: MVPage | None
    e2: MVPage | None
    shift: int
    general_position: bool
    oracle_betti: tuple | None
    oracle_whitney: tuple | None
    agreement: bool | None

    @property
    def graded(self) -> dict:
        """Direct-image grading: dimension at degree i = b_{i+n}."""
        return {k - self.n: b for k, b in enumerate(self.betti) if b}

    @property
    def essential_rank(self) -> int:
        """Ambient dimension of the essential part: n less the Kuenneth shift."""
        return self.n - self.shift

    @property
    def poincare(self) -> tuple:
        """Poincare polynomial coefficients: `betti` without trailing zeros, b_0 always kept."""
        return self.betti[: max((k for k, b in enumerate(self.betti) if b), default=0) + 1]


def compute_betti(
    arr: Arrangement,
    *,
    infinity_index: int | None = None,
    cap: int = DEFAULT_CAP,
    oracles: bool = True,
) -> BettiReport:
    """Betti numbers b_0..b_n of the complement of an arrangement.

    Projective input is deconed first (default infinity hyperplane: the last
    one listed).  The affine arrangement is essentialized, the count table of
    its flats feeds the two spectral pages, the E2 readout checks the
    position rule that makes E2 the limit, and the graded limit is shifted
    back to the original ambient dimension.  With `oracles` one poset sweep
    of the affine arrangement itself, not of its essential part, gives the
    Moebius and Whitney Betti numbers to compare with.  When the count table
    shows general position the binomial formula b_k = C(r, k) is verified
    against the result.
    """
    affine = _affine_chart(arr, infinity_index)
    n, r = affine.ambient_dim, affine.r

    if r == 0:
        betti = tuple([1] + [0] * n)
        e1 = e2 = None
        shift = n
        general = True
    else:
        reduction = essentialize(affine)
        shift = reduction.shift
        counts = count_flats(reduction.essential, cap)
        e1 = first_page(counts)
        e2 = second_page(e1)
        graded = kunneth_shift(graded_from_second_page(e2), shift)
        betti = tuple(graded.get(k - n, 0) for k in range(n + 1))
        general = _general_position(counts, n)
        if general:
            expected = tuple(comb(r, k) for k in range(n + 1))
            if betti != expected:
                raise ConsistencyError(
                    f"general-position arrangement gave betti {betti}, expected {expected}"
                )

    oracle_mobius = oracle_whitney = None
    agreement = None
    if oracles:
        poset = build_intersection_poset(affine, cap)
        oracle_mobius, oracle_whitney = mobius_betti(poset), whitney_betti(poset)
        agreement = betti == oracle_mobius == oracle_whitney

    return BettiReport(
        kind=arr.kind,
        n=n,
        r=r,
        betti=betti,
        e1=e1,
        e2=e2,
        shift=shift,
        general_position=general,
        oracle_betti=oracle_mobius,
        oracle_whitney=oracle_whitney,
        agreement=agreement,
    )
