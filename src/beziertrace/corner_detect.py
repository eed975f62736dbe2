"""Corner detection on closed digital curves.

A chord spanning a fixed number of loop points is slid around the contour;
points standing far enough off their chord become corner candidates, and a
circular non-maximum suppression keeps the strongest candidate per
neighborhood.  Corners split the loop into independently fittable segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import eq

from .bezier_core import Point2
from .contour import Contour
from .errors import (DegenerateChordError, DomainError, PreconditionError,
                     require_int)


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
        require_int("support_length", self.support_length)
        if self.support_length < 1:
            raise DomainError("support_length must be positive")
        if not 0.0 < self.corner_threshold < math.inf:  # also rejects NaN
            raise DomainError("corner_threshold must be finite and positive")
        if self.suppress_range is None:
            self.suppress_range = self.support_length
        else:
            require_int("suppress_range", self.suppress_range)
            if self.suppress_range < 1:
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

    Chords a strip certifies are not measured.  When chord i's largest
    distance is at most w, a padded threshold / 2 (_strip_half_width), its
    line is the strip's reference: with s the projection along it and f the
    signed offset from it, the walk from point i runs on while |f| <= w and
    s does not decrease, up to point e (_strip_end).  Every chord j with
    i < j and j + support_length <= e is skipped, and the next chord measured
    is e - support_length + 1.  Such a chord A'B' gives no candidate: each
    point p under it has s(A') <= s(p) <= s(B'), so at s(p) the line A'B'
    lies at an offset between f(A') and f(B'), at most w in size.  So p is
    at most 2w off that line along the normal, and its perpendicular
    distance is no larger; if s(A') = s(B'), the line runs along the normal
    and p lies on it.  The pad covers the slope form's rounding, so the
    result is bit for bit that of measuring every chord.

    A loop with a chord whose endpoints coincide is a DegenerateChordError,
    found by one test over the whole loop before any chord is walked (with
    support_length 1 no point lies under a chord, and none is tested).
    """
    params = params or CornerParams()
    n = c.n
    span = params.support_length
    if n <= 2 * span:
        raise PreconditionError(
            f"loop of {n} points is too short for support length {span}")
    pts = c.points
    # with support_length 1 no point lies under a chord: none is tested or
    # measured
    if span > 1 and True in map(eq, pts, pts[span:] + pts[:span]):
        raise DegenerateChordError("chord endpoints coincide")
    xs, ys = map(list, zip(*pts))
    xs += xs[:span]
    ys += ys[:span]
    threshold = params.corner_threshold
    w = _strip_half_width(xs, ys, threshold)
    sqrt = math.sqrt
    strip_end = _strip_end

    assigned: dict[int, float] = {}
    i = 0 if span > 1 else n
    while i < n:
        k = i + span
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
        elif best <= w:
            e = strip_end(xs, ys, i, k, w)
            if e > k:
                i = e - span
        i += 1

    order = sorted(assigned)
    kept = [j for p, j in enumerate(order)
            if not _suppressed(order, p, assigned, n, params.suppress_range)]
    return CornerSet(kept, [assigned[j] for j in kept])


# Strips are walked only on loops of integral coordinates below this size,
# where every strip product of coordinate differences is an exact float.
_STRIP_LIMIT = 2 ** 25


def _strip_half_width(xs: list, ys: list, threshold: float) -> float:
    """Half-width w of the strips _strip_end walks, or -1.0 when a
    coordinate is not integral or not below _STRIP_LIMIT in size.

    A point under a chord inside the strip lies at most 2w off the chord's
    line.  The slope form the chords are measured in rounds a distance by
    less than 2**-49 times the largest coordinate plus a few units in its
    last place, and the strip test by a few units in the last place.  So w
    is threshold / 2 less a relative pad and a pad in proportion to that
    coordinate."""
    try:
        ix, iy = list(map(int, xs)), list(map(int, ys))
    except (ValueError, OverflowError):  # NaN or infinite
        return -1.0
    size = max(max(ix), -min(ix), max(iy), -min(iy))
    if ix != xs or iy != ys or size >= _STRIP_LIMIT:
        return -1.0
    return 0.5 * threshold * (1.0 - 2.0 ** -40) - (size + 1) * 2.0 ** -46


def _strip_end(xs: list, ys: list, i: int, k: int, w: float) -> int:
    """Last index e of the strip along the chord from point i to point k:
    every point from i to e lies within w of the chord's line, and their
    projections on it never decrease.

    The offset f and the projection s are kept times the chord's length:
    on the coordinates _strip_half_width admits, each is an exact float."""
    xi = xs[i]
    yi = ys[i]
    ux = xs[k] - xi
    uy = ys[k] - yi
    lim = w * math.sqrt(ux * ux + uy * uy)
    s0 = 0.0
    for e in range(i + 1, len(xs)):
        dx = xs[e] - xi
        dy = ys[e] - yi
        s = dx * ux + dy * uy
        f = dy * ux - dx * uy
        if s < s0 or f > lim or f < -lim:
            return e - 1
        s0 = s
    return len(xs) - 1


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
    pts = c.points
    n = len(pts)
    count = (end - start) % n + 1
    return [pts[(start + k) % n] for k in range(count)]
