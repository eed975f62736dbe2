"""Corner detection on closed digital curves.

A chord spanning a fixed number of loop points is slid around the contour;
points standing far enough off their chord become corner candidates, and a
circular non-maximum suppression keeps the strongest candidate per
neighborhood.  Corners split the loop into independently fittable segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bezier_core import Point2
from .contour import Contour
from .errors import DegenerateChordError, DomainError, PreconditionError


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

    Distances are bit for bit perpendicular_distance's: each chord's slope
    m, m * x_i and sqrt(m * m + 1) are computed once, and every point under
    it takes the slope form in the same operation order.  The coordinate
    lists run support_length points past the loop's end, so a chord needs
    no wrapped index.  Suppression looks at the candidates in index order,
    outward from each one in both directions around the loop, and stops at
    the first neighbour farther than suppress_range.
    """
    params = params or CornerParams()
    n = c.n
    span = params.support_length
    if n <= 2 * span:
        raise PreconditionError(
            f"loop of {n} points is too short for support length {span}")
    pts = c.points + c.points[:span]
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    threshold = params.corner_threshold
    sqrt = math.sqrt

    assigned: dict[int, float] = {}
    # with support_length 1 no point lies under a chord, so none is checked
    for i in range(n) if span > 1 else ():
        k = i + span
        if pts[i] == pts[k]:
            raise DegenerateChordError("chord endpoints coincide")
        xi = xs[i]
        yi = ys[i]
        mx = xs[k] - xi
        if mx == 0.0:
            ds = [abs(x - xi) for x in xs[i + 1:k]]
        else:
            m = (ys[k] - yi) / mx
            mxi = m * xi
            root = sqrt(m * m + 1.0)
            ds = [abs(y - m * x + mxi - yi) / root
                  for x, y in zip(xs[i + 1:k], ys[i + 1:k])]
        # the running maximum starts at 0.0, so a NaN distance never wins
        best = max(0.0, *ds)
        if best > threshold:
            for j, d in enumerate(ds, i + 1):
                if d == best:
                    if j >= n:
                        j -= n
                    if assigned.get(j, 0.0) < best:
                        assigned[j] = best

    order = sorted(assigned)
    kept = [j for p, j in enumerate(order)
            if not _suppressed(order, p, assigned, n, params.suppress_range)]
    return CornerSet(kept, [assigned[j] for j in kept])


def _suppressed(order: list[int], p: int, assigned: dict[int, float], n: int,
                reach: int) -> bool:
    """True when a candidate within reach of order[p] on a loop of n points
    is stronger, or as strong at a smaller index.  order holds the candidate
    indices sorted, so each direction's scan stops at its first candidate
    out of reach."""
    j = order[p]
    dj = assigned[j]
    count = len(order)
    for step in (1, -1):
        for t in range(1, count):
            q = order[(p + step * t) % count]
            if step * (q - j) % n > reach:
                break
            dq = assigned[q]
            if dq > dj or dq == dj and q < j:
                return True
    return False


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
