"""Machine-speed reference: a fixed pure-Python kernel timed during passes.

On a shared host the speed of one core drifts by tens of percent within
seconds as other tenants load the machine, and process CPU time drifts with
it, so raw medians of two runs of the same code can differ by 40 %. Every
timed end-to-end figure is therefore scaled to a reference machine. During
a pass the benchmark interrupts the frame stream every CADENCE_S to run a
short kernel slice, and takes the slices' time out of the pass; the pass's
wall time, CPU time and frame latencies are then multiplied by
NOMINAL_ITERATION_S / (measured time per kernel iteration). Set-ups are
scaled by slices run just before and just after them. The kernel does the
kinds of work a pass does (JSON parsing, tuple building, float arithmetic,
string formatting) on fixed data and calls no drowsy code, so no change to
the program can move it. Raw figures are kept next to the scaled ones in
BENCH_*.json.
"""

from __future__ import annotations

import json
import math
import time

#: Time per kernel iteration on the reference machine (a 2-core Xeon VM at
#: 2.0 GHz, Python 3.11.7); scaled figures read as if measured there.
NOMINAL_ITERATION_S = 12e-6
#: Iterations of one slice taken during a pass (about 5 ms).
SLICE_ITERATIONS = 400
#: Pass time between two slices.
CADENCE_S = 0.05
#: Iterations of the slices around a set-up (about 0.2 s).
SETUP_ITERATIONS = 15_000

_LINE = json.dumps({
    "t": 12.345,
    "scheme": "semantic",
    "face": True,
    "points": [[300.0 + 7.123457 * i, 240.0 - 3.654321 * i] for i in range(19)],
})


def kernel_s(iterations: int) -> float:
    """Wall time of a fixed slice of reference work."""
    loads = json.loads
    dist = math.dist
    out = []
    start = time.perf_counter()
    acc = 0.0
    for i in range(iterations):
        obj = loads(_LINE)
        points = tuple((float(x), float(y)) for x, y in obj["points"])
        acc += (dist(points[1], points[5]) + dist(points[2], points[4])) / (2.0 * dist(points[0], points[3]))
        out.append(f'{{"t": {obj["t"] + i:.3f}, "ear": {acc / (i + 1):.6f}, "face": true}}\n')
        if len(out) >= 64:
            out.clear()
    return time.perf_counter() - start


def scale(kernel_total_s: float, iterations: int) -> float:
    """Factor mapping figures measured alongside the slices to the reference."""
    return NOMINAL_ITERATION_S * iterations / kernel_total_s
