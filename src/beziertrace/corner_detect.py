"""Corner detection on closed digital curves.

A chord spanning a fixed number of loop points is slid around the contour;
points standing far enough off their chord become corner candidates, and a
circular non-maximum suppression keeps the strongest candidate per
neighborhood.  Corners split the loop into independently fittable segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bezier_core import Point2, perpendicular_distance
from .contour import Contour
from .errors import DomainError, PreconditionError


@dataclass
class CornerParams:
    """Detector tuning.

    support_length: chord span in points; corner_threshold: minimum chord
    distance in pixels; suppress_range: suppression half-window in points
    (defaults to the support length).
    """

    support_length: int = 14
    corner_threshold: float = 2.6
    suppress_range: int | None = None

    def __post_init__(self):
        if self.support_length < 1:
            raise DomainError("support_length must be positive")
        if not 0.0 < self.corner_threshold < math.inf:  # also rejects NaN
            raise DomainError("corner_threshold must be finite and positive")
        if self.suppress_range is None:
            self.suppress_range = self.support_length
        elif self.suppress_range < 1:
            raise DomainError("suppress_range must be positive")


@dataclass
class CornerSet:
    """Detected corner indices (sorted) and their assigned chord distances."""

    indices: list[int]
    strengths: list[float]

    def __len__(self) -> int:
        return len(self.indices)


def detect_corners(c: Contour, params: CornerParams | None = None) -> CornerSet:
    """Find corner points of a closed loop.

    For every start index the chord to the point support_length positions
    ahead is formed; among the points strictly between the chord endpoints,
    those at maximum perpendicular distance become candidates when that
    distance exceeds the threshold (all of them, on ties).  A point picked
    by several chords keeps its highest distance.  A candidate survives
    suppression only if no other candidate within suppress_range positions
    on either side is stronger; equal-strength ties go to the smaller index.
    """
    params = params or CornerParams()
    n = c.n
    span = params.support_length
    if n <= 2 * span:
        raise PreconditionError(
            f"loop of {n} points is too short for support length {span}")
    pts = c.points

    assigned: dict[int, float] = {}
    for i in range(n):
        pi = pts[i]
        pk = pts[(i + span) % n]
        best = 0.0
        best_js: list[int] = []
        for off in range(1, span):
            j = (i + off) % n
            d = perpendicular_distance(pts[j], pi, pk)
            if d > best:
                best = d
                best_js = [j]
            elif d == best:
                best_js.append(j)
        if best > params.corner_threshold:
            for j in best_js:
                if assigned.get(j, 0.0) < best:
                    assigned[j] = best

    reach = params.suppress_range
    kept: list[tuple[int, float]] = []
    for j, dj in assigned.items():
        suppressed = False
        for q, dq in assigned.items():
            if q == j:
                continue
            gap = (q - j) % n
            if min(gap, n - gap) > reach:
                continue
            if dq > dj or (dq == dj and q < j):
                suppressed = True
                break
        if not suppressed:
            kept.append((j, dj))

    kept.sort()
    return CornerSet([j for j, _ in kept], [d for _, d in kept])


def segment_boundaries(c: Contour, corners: CornerSet) -> list[tuple[int, int]]:
    """Circular corner-to-corner index ranges covering the loop once.

    Each range includes both endpoints.  With fewer than two corners the
    loop is still split in two: synthetic breaks go at index 0 and n//2, or
    at the lone corner and the index diametrically opposite it.
    """
    n = c.n
    breaks = sorted(set(corners.indices))
    if len(breaks) == 0:
        breaks = [0, n // 2]
    elif len(breaks) == 1:
        only = breaks[0]
        breaks = sorted({only, (only + n // 2) % n})
    return [(breaks[i], breaks[(i + 1) % len(breaks)])
            for i in range(len(breaks))]


def range_points(c: Contour, start: int, end: int) -> list[Point2]:
    """Points of the circular index range [start, end], both ends included."""
    n = c.n
    count = (end - start) % n + 1
    return [c.points[(start + k) % n] for k in range(count)]
