"""Host-speed calibration for timings taken on a shared, drifting machine.

On the small shared machines this benchmark targets, the speed of a core
swings by a third within seconds as other tenants load the host, and process
CPU time swings with it.  The benchmark therefore runs `probe`, a fixed
piece of the benchmark's own exact arithmetic (the reference Whitney walk on
a fixed arrangement, which shares no code with the program), in the gaps
between operations, and scales each time it reports by
REFERENCE_S / (median probe time around it).  Reported times are seconds on
a host that runs the probe in REFERENCE_S; the wall-clock figures are
printed beside them.  A change to the program cannot move the probe, so the
scale treats a parent commit and its change alike.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from statistics import median
from time import perf_counter

import reference

REFERENCE_S = 0.003

# Nine hyperplanes in 4-space (a_1 .. a_4, c), a mix of generic, parallel
# and central ones.
_ROWS = [
    [1, 2, 0, -1, 3],
    [2, -1, 1, 0, 0],
    [1, 2, 0, -1, -2],
    [0, 1, 3, 1, 1],
    [3, 0, -2, 1, 0],
    [1, 1, 1, 1, 4],
    [2, 3, -1, 5, 0],
    [0, 4, 1, -3, 2],
    [5, -2, 3, 1, -1],
]


def probe() -> float:
    start = perf_counter()
    reference.whitney_betti(_ROWS, 4)
    return perf_counter() - start


def factor(samples) -> float:
    """Scale from measured seconds to reference seconds."""
    return REFERENCE_S / median(samples)


def local_factors(probes: list, spans: list, half: float = 0.25, min_probes: int = 4) -> list:
    """Scale for each operation from the probes just before and just after it.

    `probes` holds (start time, seconds) of every probe in time order and
    `spans` the (start, end) of every operation.  The speed on each side is
    the median of the probes within `half` seconds of the operation on that
    side, and of at least the `min_probes` nearest ones; the operation is
    scaled by the mean of the two sides.
    """
    times = [t for t, _ in probes]
    seconds = [s for _, s in probes]
    out = []
    for start, end in spans:
        hi = bisect_right(times, start)
        lo = min(bisect_left(times, start - half), max(0, hi - min_probes))
        after_lo = bisect_left(times, end)
        after_hi = max(bisect_right(times, end + half), after_lo + min_probes)
        before, after = median(seconds[lo:hi]), median(seconds[after_lo:after_hi])
        out.append(2 * REFERENCE_S / (before + after))
    return out
