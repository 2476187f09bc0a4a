#!/usr/bin/env python3
"""Betti numbers of a gallery of named arrangements.

Prints Boolean arrangements, braid arrangements (differences x_i = x_j),
generic arrangements and a few degenerate configurations, each with the
essential rank, the shift and the oracle verdict.  Exits 1 when an
arrangement's verdict is `ORACLE MISMATCH`:

    PYTHONPATH=src python scripts/betti_examples.py
"""

import sys

from mvbetti import compute_betti, parse_arrangement
from mvbetti.generate import boolean_arrangement_text, difference_arrangement_text

GALLERY = {
    "boolean A^2": boolean_arrangement_text(2),
    "boolean A^3": boolean_arrangement_text(3),
    "boolean A^4": boolean_arrangement_text(4),
    "braid A^3": difference_arrangement_text(3, (-1,), (0,)),
    "braid A^4": difference_arrangement_text(4, (-1,), (0,)),
    "two parallel lines": "affine 2\n1 0 0\n1 0 1\n",
    "five generic lines": "affine 2\n1 0 0\n0 1 0\n1 1 1\n1 -1 2\n2 1 5\n",
    "generic planes A^3": "affine 3\n1 0 0 0\n0 1 0 0\n0 0 1 0\n1 1 1 1\n1 2 3 5\n",
    "projective simplex P^2": "projective 2\n1 0 0\n0 1 0\n0 0 1\n",
}


def main():
    width = max(len(name) for name in GALLERY)
    status = 0
    for name, text in GALLERY.items():
        rep = compute_betti(parse_arrangement(text))
        betti = " ".join(str(b) for b in rep.betti)
        flags = []
        if rep.general_position:
            flags.append("general position")
        if rep.shift:
            flags.append(f"shift {rep.shift}")
        verdict = "ok" if rep.agreement else "ORACLE MISMATCH"
        if not rep.agreement:
            status = 1
        extra = f"  ({', '.join(flags)})" if flags else ""
        print(f"{name:<{width}}  betti {betti:<16} rank {rep.essential_rank}  {verdict}{extra}")
    return status


if __name__ == "__main__":
    sys.exit(main())
