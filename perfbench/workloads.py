"""The three benchmark workloads: inputs, the timed operation, and its check.

Each workload builds a pool of operations from the seed before timing starts
and hands them out in `spread_order`: the pool is sorted by a cost proxy and
visited in bit-reversed rank order, so every prefix of the run covers cheap
and expensive inputs in the pool's proportions.  That keeps a time-limited
run's mix, and with it the throughput, steady across seeds.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from math import comb
from random import Random

import reference


def spread_order(items: list) -> list:
    """Items (already sorted by cost) in bit-reversed order of their rank."""
    bits = max(1, (len(items) - 1).bit_length())
    ranks = (int(format(i, f"0{bits}b")[::-1], 2) for i in range(1 << bits))
    return [items[j] for j in ranks if j < len(items)]


def _flat_proxy(n: int, r: int) -> int:
    """Flats of a generic arrangement of r hyperplanes in n-space."""
    return sum(comb(r, k) for k in range(min(n, r) + 1))


def _arrangement_text(kind: str, n: int, hyperplanes) -> str:
    lines = [f"{kind} {n}"]
    for h in hyperplanes:
        coeffs = list(h.normal) if kind == "projective" else list(h.normal) + [h.constant]
        lines.append(" ".join(str(x) for x in coeffs))
    return "\n".join(lines) + "\n"


class Op:
    """One unit of work: its input, and the reference answer once checked.

    `kind` groups operations in the traced per-kind breakdown; `label` names
    this one input in failure reports.
    """

    __slots__ = ("kind", "label", "data", "expected")

    def __init__(self, kind, label, data):
        self.kind = kind
        self.label = f"{kind} {label}"
        self.data = data
        self.expected = None


class SweepSmall:
    """Random arrangements through `mvbetti betti FILE --json`, oracles on.

    Every affine cell (n in 1..4, r in 1..7, the ranges of the acceptance
    sweep) appears AFFINE_COPIES times and every projective cell (n in 1..3,
    r in 2..7, deconed at the last hyperplane) PROJECTIVE_COPIES times: 252
    affine and 90 projective files.
    """

    name = "sweep_small"
    AFFINE_COPIES = 9
    PROJECTIVE_COPIES = 5
    batch = 1
    probes_per_gap = 1
    trace_ops = 48
    tail_percentile = 95

    def build(self, mods, rng: Random, workdir: str) -> list:
        gen = mods.generate
        cells = [("affine", n, r) for n in range(1, 5) for r in range(1, 8)] * self.AFFINE_COPIES
        cells += [("projective", n, r) for n in range(1, 4) for r in range(2, 8)] * self.PROJECTIVE_COPIES
        keyed = []
        for i, (kind, n, r) in enumerate(cells):
            if kind == "affine":
                arr = gen.random_affine_arrangement(rng, n, r)
                proxy = _flat_proxy(n, r)
            else:
                arr = gen.random_projective_arrangement(rng, n, r)
                proxy = _flat_proxy(n, r - 1)
            path = os.path.join(workdir, f"sweep-{i:04d}.arr")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_arrangement_text(kind, n, arr.hyperplanes))
            op = Op(kind, f"n={n} r={r} #{i}", (path, kind, n, arr.hyperplanes))
            keyed.append((proxy, rng.random(), op))
        keyed.sort(key=lambda t: t[:2])
        return spread_order([op for _, _, op in keyed])

    def run(self, mods, op):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = mods.cli.main(["betti", op.data[0], "--json"])
        return code, out.getvalue()

    def expect(self, mods, op):
        _, kind, n, hyperplanes = op.data
        if kind == "affine":
            return reference.affine_betti(hyperplanes, n)
        return reference.projective_betti(hyperplanes, n)

    def matches(self, expected, output) -> bool:
        code, text = output
        if code != 0:
            return False
        doc = json.loads(text)
        return tuple(doc["betti"]) == expected and doc["agreement"] is True


def _braid_text(n: int) -> str:
    lines = [f"affine {n}"]
    for i, j in combinations(range(n), 2):
        coeffs = ["0"] * n
        coeffs[i], coeffs[j] = "1", "-1"
        lines.append(" ".join(coeffs) + " 0")
    return "\n".join(lines) + "\n"


def _boolean_text(n: int) -> str:
    lines = [f"affine {n}"]
    for i in range(n):
        lines.append(" ".join("1" if j == i else "0" for j in range(n)) + " 0")
    return "\n".join(lines) + "\n"


class LargePipeline:
    """Bigger arrangements through `compute_betti(arr, oracles=False, cap=64)`.

    A round is braid A6 (r=15), one seeded general-position n=4 r=12, a fresh
    seeded random mixed n=5 r=16, and Boolean n=12.  Time is checked only
    between rounds, so every run holds whole rounds.
    """

    name = "large_pipeline"
    ROUNDS = 16
    batch = 4
    probes_per_gap = 4
    trace_ops = 4
    tail_percentile = 55

    def build(self, mods, rng: Random, workdir: str) -> list:
        gen, parse = mods.generate, mods.arrangement.parse_arrangement
        braid = parse(_braid_text(6))
        boolean = parse(_boolean_text(12))
        general = gen.random_general_position_arrangement(rng, 4, 12)
        ops = []
        for k in range(self.ROUNDS):
            mixed = gen.random_affine_arrangement(rng, 5, 16)
            ops += [
                Op("braid A6", "r=15", ("braid", 6, braid)),
                Op("general position", "n=4 r=12", ("binomial", 4, general)),
                Op("random mixed", f"n=5 r=16 #{k}", ("whitney", 5, mixed)),
                Op("boolean", "n=12", ("binomial", 12, boolean)),
            ]
        return ops

    def run(self, mods, op):
        return mods.betti.compute_betti(op.data[2], oracles=False, cap=64).betti

    def expect(self, mods, op):
        how, n, arr = op.data
        if how == "braid":
            return reference.braid_betti(n)
        if how == "binomial":
            return reference.binomial_betti(arr.r, n)
        return reference.affine_betti(arr.hyperplanes, n)

    def matches(self, expected, output) -> bool:
        return tuple(output) == expected


def _total_dim_quantiles(count: int, max_terms: int, max_dim: int) -> list:
    """Total dimension of `random_complex` at quantiles (i + 1/2) / count.

    The generator draws the number of terms uniformly from 1..max_terms and
    each term's dimension uniformly from 1..max_dim, so the distribution of
    the total is exact and needs no sampling.
    """
    pmf = {}
    for terms in range(1, max_terms + 1):
        sums = {0: 1.0}
        for _ in range(terms):
            step = {}
            for s, p in sums.items():
                for d in range(1, max_dim + 1):
                    step[s + d] = step.get(s + d, 0.0) + p / max_dim
            sums = step
        for s, p in sums.items():
            pmf[s] = pmf.get(s, 0.0) + p / max_terms
    values = iter(sorted(pmf))
    value = next(values)
    cum, out = pmf[value], []
    for i in range(count):
        while (i + 0.5) / count > cum:
            value = next(values)
            cum += pmf[value]
        out.append(value)
    return out


class SpectralPages:
    """Tensor products of random bounded complexes through the page engine.

    Complexes come from `generate.random_complex(max_terms=5, max_dim=4)`.
    An op's cost grows with dim(a) * dim(b), and a plain random pool lets
    that product's median move with the seed.  So the pool's total
    dimensions are fixed at the exact quantiles of the generator's
    distribution (paired in bit-reversed order), and the seed picks the
    complexes: CANDIDATES draws are grouped by total dimension, and each
    slot takes an unused one of its total, or of the nearest total left.
    """

    name = "spectral_pages"
    PAIRS = 256
    CANDIDATES = 1536
    batch = 1
    probes_per_gap = 1
    trace_ops = 32
    tail_percentile = 90

    def build(self, mods, rng: Random, workdir: str) -> list:
        gen = mods.generate
        pool = {}
        for _ in range(self.CANDIDATES):
            c = gen.random_complex(rng, max_terms=5, max_dim=4)
            pool.setdefault(sum(c.dims.values()), []).append(c)

        def take(total):
            nearest = min((t for t in pool if pool[t]), key=lambda t: (abs(t - total), t))
            return pool[nearest].pop()

        dims = _total_dim_quantiles(2 * self.PAIRS, 5, 4)
        a_dims, b_dims = dims[0::2], spread_order(dims[1::2])
        keyed = []
        for i, (da, db) in enumerate(zip(a_dims, b_dims)):
            a, b = take(da), take(db)
            size = sum(a.dims.values()) * sum(b.dims.values())
            keyed.append((size, rng.random(), Op("complex pair", f"#{i} size={size}", (a, b))))
        keyed.sort(key=lambda t: t[:2])
        return spread_order([op for _, _, op in keyed])

    def run(self, mods, op):
        sp = mods.spectral
        dc = sp.tensor_double_complex(*op.data)
        h = sp.cohomology_dims(sp.total_complex(dc))
        box = dc.support_box()
        r_max = max(2, box[1] - box[0] + 2, box[3] - box[2] + 2)
        first = {}
        converges = True
        for filtration in (sp.HORIZONTAL, sp.VERTICAL):
            table = sp.pages(dc, filtration, r_max)
            converges = sp.verify_convergence(table, h) and converges
            first[filtration] = table.page(1)
        return h, first, converges

    def expect(self, mods, op):
        # The double complex is built again here, outside the timed region.
        dc = mods.spectral.tensor_double_complex(*op.data)
        rows, columns = reference.row_cohomology(dc), reference.column_cohomology(dc)
        return reference.kunneth(*op.data), {"horizontal": rows, "vertical": columns}

    def matches(self, expected, output) -> bool:
        h, first, converges = output
        return converges and (h, first) == expected


WORKLOADS = {w.name: w for w in (SweepSmall(), LargePipeline(), SpectralPages())}
