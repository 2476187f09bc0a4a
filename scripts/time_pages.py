#!/usr/bin/env python3
"""Wall time of the page engine's layers on seeded tensor double complexes, and a digest.

PAIRS pairs of complexes come from `generate.random_complex(max_terms=5,
max_dim=4)` with a Random(SEED), as the `spectral_pages` benchmark draws
them.  It reports the best of REPEAT wall times of drawing them,
`generate_s` (the benchmark draws its pool with the same generator inside
`setup_s`), and of four passes over all their tensor double complexes:

- `construct_s`: `tensor_double_complex`, which takes the Kronecker
  products, assembles Tot and checks D^2 = 0;
- `rank_fold_s`: `cohomology_dims` of the total complex, one
  `pivot_profile` fold of each D(n) for its rank;
- `vertical_fold_s`, `horizontal_fold_s`: `pages` under each filtration,
  one `pivot_profile` fold of each D(n) for its bars.

`sha256` digests `repr` of each pair's cohomology and the sorted bars of
both filtrations (`PageTable.bars`), so two versions of the code can be
checked to give the same pages.  Prints one JSON line, and exits 1 when
the digest differs from its pin in `digests.json` (`timing.report`):

    PYTHONPATH=src python scripts/time_pages.py
"""

import sys
from random import Random

from mvbetti.generate import random_complex
from mvbetti.spectral import (
    HORIZONTAL,
    VERTICAL,
    cohomology_dims,
    pages,
    tensor_double_complex,
    total_complex,
)
from timing import best_of, report, sha256

PAIRS = 256
REPEAT = 5
SEED = 0


def best_pass(f, items) -> tuple[float, list]:
    """(best of REPEAT wall times of [f(x) for x in items], the results of the last pass)."""
    return best_of(REPEAT, lambda: [f(x) for x in items])


def draw(seed: int) -> list:
    rng = Random(seed)
    return [random_complex(rng, max_terms=5, max_dim=4) for _ in range(2 * PAIRS)]


def main():
    out = {"pairs": PAIRS}
    out["generate_s"], (complexes,) = best_pass(draw, [SEED])
    pairs = list(zip(complexes[0::2], complexes[1::2]))
    out["construct_s"], dcs = best_pass(lambda ab: tensor_double_complex(*ab), pairs)
    out["rank_fold_s"], h = best_pass(lambda dc: cohomology_dims(total_complex(dc)), dcs)
    bars = {}
    for name, filtration in (("vertical", VERTICAL), ("horizontal", HORIZONTAL)):
        out[f"{name}_fold_s"], tables = best_pass(lambda dc: pages(dc, filtration, 2), dcs)
        bars[name] = [sorted(t.bars.items()) for t in tables]
    text = repr([sorted(x.items()) for x in h]) + repr(bars["vertical"]) + repr(bars["horizontal"])
    out = {k: round(v, 4) if isinstance(v, float) else v for k, v in out.items()}
    out["sha256"] = sha256(text)
    return report("time_pages.py", out)


if __name__ == "__main__":
    sys.exit(main())
