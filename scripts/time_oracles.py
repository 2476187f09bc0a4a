#!/usr/bin/env python3
"""Wall time of the oracle sweep and of the two Betti folds on three larger arrangements.

Times the one sweep, `build_intersection_poset`, and then the two folds
over its poset, `mobius_betti` and `whitney_betti`, on the Boolean
arrangement in 12 coordinates, the Catalan arrangement x_i - x_j in
{-1, 0, 1} in 6 coordinates (r=45), both built by `mvbetti.generate`, and
one seeded random mixed arrangement with n=5, r=16.
None of them is a benchmark workload.  Each time is the best of REPEAT runs.
Per input, `sha256` digests `repr` of the sweep's rows and Moebius values,
in sweep order, so two versions of the code can be checked to find the
same flats in the same order.  Prints one JSON line, and exits 1 when a
digest differs from its pin in `digests.json` (`timing.report`) or when
the Moebius and Whitney Betti numbers of an input disagree:

    PYTHONPATH=src python scripts/time_oracles.py
"""

import sys
from random import Random

from mvbetti import build_intersection_poset, mobius_betti, parse_arrangement, whitney_betti
from mvbetti.generate import (
    boolean_arrangement_text,
    difference_arrangement_text,
    random_affine_arrangement,
)
from timing import best_of, report, sha256

CAP = 64
REPEAT = 3
SEED = 0


def best(fn):
    seconds, result = best_of(REPEAT, fn)
    return round(seconds, 4), result


def digest(poset) -> str:
    return sha256(repr([(flat.rows, mu) for flat, mu in poset.sweep]))


def main():
    cases = {
        "boolean_n12": parse_arrangement(boolean_arrangement_text(12)),
        "catalan_n6": parse_arrangement(difference_arrangement_text(6, (-1,), (-1, 0, 1))),
        "random_n5_r16": random_affine_arrangement(Random(SEED), 5, 16),
    }
    out = {}
    for name, arr in cases.items():
        poset_s, poset = best(lambda: build_intersection_poset(arr, CAP))
        mobius_s, mobius = best(lambda: mobius_betti(poset))
        whitney_s, whitney = best(lambda: whitney_betti(poset))
        out[name] = {
            "r": arr.r,
            "flats": len(poset.sweep),
            "poset_s": poset_s,
            "mobius_s": mobius_s,
            "whitney_s": whitney_s,
            "betti": list(mobius),
            "agree": mobius == whitney,
            "sha256": digest(poset),
        }
    status = report("time_oracles.py", out)
    for name in sorted(name for name, case in out.items() if not case["agree"]):
        print(f"time_oracles.py {name}: mobius and whitney disagree", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
