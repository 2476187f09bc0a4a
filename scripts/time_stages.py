#!/usr/bin/env python3
"""Wall time of every stage of the pipeline, its oracles and the page engine, with digests.

Each input of `INPUTS` is arrangement text: the Boolean arrangement in 12
coordinates, the braid arrangement A6, the Catalan arrangement x_i - x_j in
{-1, 0, 1} in 6 coordinates, the Coxeter arrangements D7 and B7, all built
by `mvbetti.generate`, and the seeded random mixed n=5 r=16,
general-position n=4 r=12 and projective n=4 r=12 arrangements, written
out from their rows.  `stages` runs one input through the stages that
`compute_betti` runs, calling each package function itself:

- `parse_s`: `parse_arrangement` of the text;
- `chart_s`: `_affine_chart`, which decones projective input at its last
  hyperplane and passes affine input through;
- `essentialize_s`: `essentialize` of the affine chart;
- `count_flats_s`: `count_flats` of the essential part, with `peak_mb`,
  the tracemalloc peak of one more call;
- `pages_s`: `first_page`, `second_page` and `graded_from_second_page`;
- `general_position_s`: `_general_position` on the count table.

Beside the times it reports r, the pipeline's Betti numbers (`betti`) and
the general-position verdict (`general_position`).

On the inputs of `SWEPT` it also times the oracle sweep of the affine
chart, `poset_s` (`build_intersection_poset`), and its two folds,
`mobius_s` and `whitney_s`, and reports the sweep's flat count (`flats`)
and both oracles' Betti numbers; the D7 and B7 sweeps take seconds each.
`page_engine` times the page engine on PAIRS pairs of seed-SEED
`generate.random_complex(max_terms=5, max_dim=4)` complexes, as the
`spectral_pages` benchmark draws them: drawing them (`generate_s`), then
over all their tensor double complexes `tensor_double_complex`
(`construct_s`: Kronecker products, Tot and the D^2 = 0 check),
`cohomology_dims` of Tot (`rank_fold_s`) and `pages` under each filtration
(`vertical_fold_s`, `horizontal_fold_s`).

Every time is the best of REPEAT runs, in seconds to 1 µs.  Each `sha256`
entry digests one answer, so two versions of the code can be checked to
give the same answers: `count_flats` the count table (`repr` of its sorted
counts and sorted empty counts), `poset` the sweep's rows and Moebius
values in sweep order, and `pages` each pair's cohomology and the sorted
bars of both filtrations.  Prints one JSON line, and exits 1 when a digest
differs from its pin in `digests.json`, is missing or is not pinned, or
when the pipeline, Moebius and Whitney Betti numbers of a swept input
disagree.  A trajectory file is the line redirected to `BENCH_<sha>.json`:

    PYTHONPATH=src python scripts/time_stages.py > BENCH_$(git rev-parse --short HEAD).json

The whole run takes about 10 s.  Noise band on one commit (Python 3.11.7,
shared 2-core host): two back-to-back runs agreed within 10 µs on times
under 0.1 ms and within 7% on `parse_s`, `essentialize_s`,
`count_flats_s`, `pages_s` and the page engine's five times, but `poset_s`
differed by 12% on Catalan 6 (1.16 and 1.32 s), and its `mobius_s` and
`whitney_s` by 23% and 34%.  Five runs spread over half an hour differed by up
to 2x on one stage: `count_flats_s` 0.046-0.086 s on Catalan 6, `parse_s`
0.52-1.08 ms on D7, `poset_s` 1.16-1.88 s on Catalan 6, the page engine's
folds up to 1.7x and `construct_s` 1.18x.  So one pair of runs shows no
stage change under 2x; compare alternating runs of both versions.
"""

import hashlib
import json
import sys
import tracemalloc
from pathlib import Path
from random import Random
from time import perf_counter

from mvbetti import build_intersection_poset, count_flats, mobius_betti, whitney_betti
from mvbetti.arrangement import PROJECTIVE, _affine_chart, essentialize, parse_arrangement
from mvbetti.betti import first_page, graded_from_second_page, kunneth_shift, second_page
from mvbetti.flats import _general_position
from mvbetti.generate import (
    boolean_arrangement_text,
    difference_arrangement_text,
    random_affine_arrangement,
    random_complex,
    random_general_position_arrangement,
    random_projective_arrangement,
)
from mvbetti.spectral import (
    HORIZONTAL,
    VERTICAL,
    cohomology_dims,
    pages,
    tensor_double_complex,
    total_complex,
)

CAP = 64
PAIRS = 256
REPEAT = 5
SEED = 0
PINNED = Path(__file__).resolve().parent / "digests.json"
SWEPT = {"boolean_n12", "catalan_n6", "random_n5_r16"}


def arrangement_text(arr) -> str:
    """`arr` in the input format: its header, then one integer row per hyperplane."""
    rows = (h.normal if arr.kind == PROJECTIVE else h.equation_row() for h in arr.hyperplanes)
    lines = [f"{arr.kind} {arr.ambient_dim}", *(" ".join(map(str, row)) for row in rows)]
    return "\n".join(lines) + "\n"


INPUTS = {
    "boolean_n12": boolean_arrangement_text(12),
    "braid_a6": difference_arrangement_text(6, (-1,), (0,)),
    "catalan_n6": difference_arrangement_text(6, (-1,), (-1, 0, 1)),
    "d7": difference_arrangement_text(7, (-1, 1), (0,)),
    "b7": difference_arrangement_text(7, (-1, 1), (0,), coordinates=True),
    "random_n5_r16": arrangement_text(random_affine_arrangement(Random(SEED), 5, 16)),
    "general_n4_r12": arrangement_text(random_general_position_arrangement(Random(SEED), 4, 12)),
    "projective_n4_r12": arrangement_text(random_projective_arrangement(Random(SEED), 4, 12)),
}


def timed(out: dict, stage: str, fn):
    """fn()'s last result; the best of REPEAT wall times goes to out[stage + "_s"]."""
    times = []
    for _ in range(REPEAT):
        start = perf_counter()
        result = fn()
        times.append(perf_counter() - start)
    out[f"{stage}_s"] = round(min(times), 6)
    return result


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def stages(text: str, sweep: bool) -> dict:
    """Times, Betti numbers and digests of one input's stages; the oracles' too if `sweep`."""
    out = {}
    arr = timed(out, "parse", lambda: parse_arrangement(text))
    affine = timed(out, "chart", lambda: _affine_chart(arr, None))
    reduction = timed(out, "essentialize", lambda: essentialize(affine))
    table = timed(out, "count_flats", lambda: count_flats(reduction.essential, CAP))
    tracemalloc.start()
    count_flats(reduction.essential, CAP)
    out["peak_mb"] = round(tracemalloc.get_traced_memory()[1] / 1e6, 2)
    tracemalloc.stop()
    graded = timed(out, "pages", lambda: graded_from_second_page(second_page(first_page(table))))
    n = affine.ambient_dim
    out["general_position"] = timed(out, "general_position", lambda: _general_position(table, n))
    graded = kunneth_shift(graded, reduction.shift)
    out["r"], out["betti"] = arr.r, [graded.get(k - n, 0) for k in range(n + 1)]
    counts = (sorted(table.counts.items()), sorted(table.empty.items()))
    out["sha256"] = {"count_flats": sha256(repr(counts))}
    if sweep:
        poset = timed(out, "poset", lambda: build_intersection_poset(affine, CAP))
        out["flats"] = len(poset.sweep)
        out["mobius"] = list(timed(out, "mobius", lambda: mobius_betti(poset)))
        out["whitney"] = list(timed(out, "whitney", lambda: whitney_betti(poset)))
        out["sha256"]["poset"] = sha256(repr([(flat.rows, mu) for flat, mu in poset.sweep]))
    return out


def draw_complexes() -> list:
    rng = Random(SEED)
    return [random_complex(rng, max_terms=5, max_dim=4) for _ in range(2 * PAIRS)]


def page_engine() -> dict:
    out = {"pairs": PAIRS}
    complexes = timed(out, "generate", draw_complexes)
    pairs = list(zip(complexes[0::2], complexes[1::2]))
    dcs = timed(out, "construct", lambda: [tensor_double_complex(a, b) for a, b in pairs])
    h = timed(out, "rank_fold", lambda: [cohomology_dims(total_complex(dc)) for dc in dcs])
    text = repr([sorted(x.items()) for x in h])
    for name, filtration in (("vertical", VERTICAL), ("horizontal", HORIZONTAL)):
        tables = timed(out, f"{name}_fold", lambda: [pages(dc, filtration, 2) for dc in dcs])
        text += repr([sorted(t.bars.items()) for t in tables])
    out["sha256"] = {"pages": sha256(text)}
    return out


def flatten(digests: dict) -> dict:
    """{"<input> <answer>": sha256} of {input: {answer: sha256}}."""
    return {f"{name} {what}": x for name, case in digests.items() for what, x in case.items()}


def report(result: dict, pinned: Path = PINNED) -> int:
    """Print `result` as one JSON line and check its digests against the pins; the exit code.

    Names on stderr each digest that differs from its pin, is missing or is
    not pinned, and returns 1 if there is one, else 0.
    """
    print(json.dumps(result, sort_keys=True))
    want = flatten(json.loads(pinned.read_text(encoding="utf-8")))
    got = flatten({name: case["sha256"] for name, case in result.items()})
    bad = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    for name in bad:
        print(f"time_stages.py {name}: sha256 {got.get(name)}, pinned {want.get(name)}",
              file=sys.stderr)
    return 1 if bad else 0


def main() -> int:
    out = {name: stages(text, name in SWEPT) for name, text in INPUTS.items()}
    out["page_engine"] = page_engine()
    status = report(out)
    for name, case in out.items():
        if name in SWEPT and not case["betti"] == case["mobius"] == case["whitney"]:
            print(f"time_stages.py {name}: pipeline, mobius and whitney disagree", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
