#!/usr/bin/env python3
"""Wall time, traced memory peak and table digest of `count_flats` on seven inputs.

The inputs are the Boolean arrangement in 12 coordinates, the braid
arrangement A6 (x_i = x_j in 6 coordinates), the Catalan arrangement
x_i - x_j in {-1, 0, 1} in 6 coordinates, the Coxeter arrangements D7 and
B7, and the seeded random mixed n=5 r=16 and general-position n=4 r=12
arrangements, all built by `mvbetti.generate`.  Each is counted on its
essential part, as `compute_betti` counts it.  Per input it reports the
best of REPEAT wall times (`s`), the tracemalloc peak of one more call
(`peak_mb`), and the sha256 of the table, `repr` of its sorted counts and
sorted empty counts (`sha256`), so two versions of the code can be checked
to give the same tables.  Prints one JSON line, and exits 1 when a digest
differs from its pin in `digests.json` (`timing.report`):

    PYTHONPATH=src python scripts/time_count_flats.py
"""

import sys
import tracemalloc
from random import Random

from mvbetti import count_flats, parse_arrangement
from mvbetti.arrangement import essentialize
from mvbetti.generate import (
    boolean_arrangement_text,
    difference_arrangement_text,
    random_affine_arrangement,
    random_general_position_arrangement,
)
from timing import best_of, report, sha256

CAP = 64
REPEAT = 3
SEED = 0


def digest(table) -> str:
    return sha256(repr((sorted(table.counts.items()), sorted(table.empty.items()))))


def main():
    texts = {
        "boolean_n12": boolean_arrangement_text(12),
        "braid_a6": difference_arrangement_text(6, (-1,), (0,)),
        "catalan_n6": difference_arrangement_text(6, (-1,), (-1, 0, 1)),
        "d7": difference_arrangement_text(7, (-1, 1), (0,)),
        "b7": difference_arrangement_text(7, (-1, 1), (0,), coordinates=True),
    }
    cases = {name: parse_arrangement(text) for name, text in texts.items()}
    cases["random_n5_r16"] = random_affine_arrangement(Random(SEED), 5, 16)
    cases["general_n4_r12"] = random_general_position_arrangement(Random(SEED), 4, 12)
    out = {}
    for name, arr in cases.items():
        essential = essentialize(arr).essential
        seconds, table = best_of(REPEAT, lambda: count_flats(essential, CAP))
        tracemalloc.start()
        count_flats(essential, CAP)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        out[name] = {
            "r": arr.r,
            "s": round(seconds, 4),
            "peak_mb": round(peak / 1e6, 2),
            "sha256": digest(table),
        }
    return report("time_count_flats.py", out)


if __name__ == "__main__":
    sys.exit(main())
