"""Microbenchmarks of the primitives the pipeline calls most.

Inputs are fixed, so these numbers compare one version of a primitive with
another, whatever the workload.  Each reports the median of REPEATS timed
loops.
"""

from __future__ import annotations

import statistics
import time

from beziertrace.bezier_core import Point2, blend
from beziertrace.metrics import curve_distances
from beziertrace.segment_fit import solve_candidate

REPEATS = 5


def _median_time(fn, calls: int) -> float:
    """Median seconds per call of fn(), which makes `calls` calls."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times)


def run_all(helpers) -> dict:
    us = [i / 999 for i in range(1000)]

    def blends():
        for _ in range(100):
            for u in us:
                blend(u)

    curve = helpers.chord_aligned_cubic(Point2(0.0, 0.0), Point2(120.0, 0.0),
                                        40.0, -30.0)
    on = helpers.uniform_samples(curve, 16)
    p0, p3 = curve.p0, curve.p3
    c_at, c_mirror = on[3], on[12]   # t = 0.2 and its mirror 0.8
    t = 3 / 15

    def solves():
        for _ in range(20000):
            solve_candidate(p0, p3, c_at, c_mirror, t)

    # 64 points half a pixel off the curve, as traced points sit
    pts = [Point2(p.x, p.y + 0.5) for p in helpers.uniform_samples(curve, 64)]

    def distances():
        for _ in range(4):
            curve_distances(pts, curve)

    return {
        "blend_ns": _median_time(blends, 100 * len(us)) * 1e9,
        "solve_candidate_ns": _median_time(solves, 20000) * 1e9,
        "curve_distances_us_per_point": _median_time(distances,
                                                     4 * len(pts)) * 1e6,
    }
