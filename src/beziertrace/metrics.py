"""Fit quality measures: point deviation, spline errors, compression ratio."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bezier_core import CubicBezier, Point2, _check_range
from .errors import ConsistencyError, DomainError

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class FitReport:
    """Summary of one fit: size, accuracy, and storage efficiency."""

    n_points: int
    n_segments: int
    max_dev: float
    avg_error: float
    compression_ratio: float
    wall_time: float | None = None


def compression_ratio(n_points: int, n_segments: int) -> float:
    """Contour points per fitted segment."""
    if n_segments < 1:
        raise DomainError("need at least one segment")
    return n_points / n_segments


def _curve_table(c: CubicBezier, samples: int) -> tuple[list[float], list[float]]:
    """x and y of c at u = i / samples, i = 0..samples.  The four Bernstein
    weights of each u are computed inline, for any size; no basis is kept."""
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = c
    xs, ys = [], []
    for i in range(samples + 1):
        u = i / samples
        v = 1.0 - u
        b0, b1, b2, b3 = v * v * v, 3.0 * u * v * v, 3.0 * u * u * v, u * u * u
        xs.append(b0 * x0 + b1 * x1 + b2 * x2 + b3 * x3)
        ys.append(b0 * y0 + b1 * y1 + b2 * y2 + b3 * y3)
    return xs, ys


# Rounding pad on distances and on the sample gap, so that what a bound
# skips is strictly farther than the best found.
_PAD_REL = 1.0 + 1e-9
_PAD_ABS = 1e-12


def _nearest_sample(px: float, py: float, xs: list[float], ys: list[float],
                    gap: float, seed: int) -> tuple[int, float]:
    """(index, squared distance) of the point's nearest grid sample.

    The nearest sample is found exactly but without visiting every sample:
    the bound starts from sample 0 and from the seed sample, and a sample at
    distance d lets the sweep skip the next floor((d - best) / gap) samples,
    gap being the longest chord between neighbouring samples, padded; by the
    triangle inequality none of them can be closer.  Ties go to the first
    sample, so the result does not depend on the seed, only the work does.
    """
    sqrt = math.sqrt
    n = len(xs) - 1
    best_i = 0
    best = (xs[0] - px) ** 2 + (ys[0] - py) ** 2
    d2 = (xs[seed] - px) ** 2 + (ys[seed] - py) ** 2
    if d2 < best:
        best_i, best = seed, d2
    reach = sqrt(best) * _PAD_REL + _PAD_ABS
    i = 1
    while i <= n:
        d2 = (xs[i] - px) ** 2 + (ys[i] - py) ** 2
        if d2 < best or d2 == best and i < best_i:
            best_i, best = i, d2
            reach = sqrt(d2) * _PAD_REL + _PAD_ABS
            i += 1
            continue
        skip = (sqrt(d2) - reach) / gap
        i += 1 + int(skip) if skip >= 1.0 else 1
    return best_i, best


def _downhill_samples(pts, xs: list[float], ys: list[float], seed: int):
    """(index, squared distance) of a grid sample near each point, found by
    walking from the previous point's sample to neighbours while they are
    closer.  The walk can stop at a local minimum, so its distance is an
    upper bound on the nearest sample's, in the same arithmetic."""
    n = len(xs) - 1
    s = seed
    for px, py in pts:
        d2 = (xs[s] - px) ** 2 + (ys[s] - py) ** 2
        while s < n:
            e = (xs[s + 1] - px) ** 2 + (ys[s + 1] - py) ** 2
            if not e < d2:
                break
            s, d2 = s + 1, e
        while s > 0:
            e = (xs[s - 1] - px) ** 2 + (ys[s - 1] - py) ** 2
            if not e < d2:
                break
            s, d2 = s - 1, e
        yield s, d2


def _refine(c: CubicBezier, n: int, px: float, py: float,
            best_i: int, best: float) -> float:
    """Golden section over the grid intervals either side of sample best_i.

    best is that sample's squared distance; the result is the smallest
    squared distance seen, so it is never above best.  The cubic is
    evaluated in blend/evaluate's operation order.
    """
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = c

    def d2(u: float) -> float:
        v = 1.0 - u
        vv = v * v
        uu = u * u
        b0 = v * vv
        b1 = 3.0 * u * vv
        b2 = 3.0 * uu * v
        b3 = u * uu
        return ((b0 * x0 + b1 * x1 + b2 * x2 + b3 * x3 - px) ** 2
                + (b0 * y0 + b1 * y1 + b2 * y2 + b3 * y3 - py) ** 2)

    a = (best_i - 1) / n if best_i > 0 else 0.0
    b = (best_i + 1) / n if best_i < n else 1.0
    u1 = b - _INV_GOLDEN * (b - a)
    u2 = a + _INV_GOLDEN * (b - a)
    f1 = d2(u1)
    f2 = d2(u2)
    best = min(best, f1, f2)
    for _ in range(60):
        if b - a < 1e-12:
            break
        if f1 <= f2:
            b, u2, f2 = u2, u1, f1
            u1 = b - _INV_GOLDEN * (b - a)
            f = f1 = d2(u1)
        else:
            a, u1, f1 = u1, u2, f2
            u2 = a + _INV_GOLDEN * (b - a)
            f = f2 = d2(u2)
        if f < best:
            best = f
    return best


# Newton evaluations per point at most.  On the benchmark's seed-1 pools
# points took three on average, and 5 of 45,887 did not converge in eight.
_NEWTON_STEPS = 8


def _certified(c: CubicBezier, n: int, table=None):
    """Distance to c, as a function (px, py, u) -> (distance, end u).

    Newton's method on (B(u) - p) . B'(u) = 0 (Schneider, Graphics Gems,
    1990) clamps each step to [0, 1] and stops when one moves u by less than
    1e-12.  B' is a convex combination of 3 (P[k+1] - P[k]) (Sederberg and
    Nishita, CAD 1990), so with e the unit chord and lip = 3 min_k
    (P[k+1] - P[k]) . e, |B(u) - B(v)| >= lip |u - v|.  When lip > 0, each
    u farther than 2 d0 / lip from the result u0, at distance d0, is
    farther from p than d0; u0 is the minimum if the Taylor terms of f'' at
    u0 (f = |B - p|^2) show f convex within that radius, padded.  Any other
    point (lip <= 0, coincident ends, no convergence, a failed, NaN or
    infinite bound) takes the grid distance: the first nearest of n + 1
    uniform samples (_nearest_sample; table, or built at the first such
    point), refined by golden section (_refine).  It is never below the
    minimum, but above it where that sample is outside the minimum's basin.
    """
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = c
    # T = B'/3 = vv*d0 + 2uv*d1 + uu*d2, E = B''/6 = v*e0 + u*e1 and
    # F = B'''/6 = e1 - e0
    dx0, dy0 = x1 - x0, y1 - y0
    dx1, dy1 = x2 - x1, y2 - y1
    dx2, dy2 = x3 - x2, y3 - y2
    ex0, ey0 = dx1 - dx0, dy1 - dy0
    ex1, ey1 = dx2 - dx1, dy2 - dy1
    fx, fy = ex1 - ex0, ey1 - ey0
    ff = 5.0 * (fx * fx + fy * fy)
    cx, cy = x3 - x0, y3 - y0
    chord = math.hypot(cx, cy)
    lip = 3.0 * min(dx0 * cx + dy0 * cy, dx1 * cx + dy1 * cy,
                    dx2 * cx + dy2 * cy) / chord if chord > 0.0 else 0.0
    steps = _NEWTON_STEPS if lip > 0.0 else 0
    sqrt = math.sqrt
    grid = []   # xs, ys and their sample gap, once a point needs them

    def distance(px: float, py: float, u: float) -> tuple[float, float]:
        for _ in range(steps):
            v = 1.0 - u
            vv = v * v
            uu = u * u
            uv2 = 2.0 * u * v
            b0 = v * vv
            b1 = 3.0 * u * vv
            b2 = 3.0 * uu * v
            b3 = u * uu
            qx = b0 * x0 + b1 * x1 + b2 * x2 + b3 * x3 - px
            qy = b0 * y0 + b1 * y1 + b2 * y2 + b3 * y3 - py
            tx = vv * dx0 + uv2 * dx1 + uu * dx2
            ty = vv * dy0 + uv2 * dy1 + uu * dy2
            sx = v * ex0 + u * ex1
            sy = v * ey0 + u * ey1
            # h is f''/6, and the Newton step g / h has g divided by 3 too
            h = 3.0 * (tx * tx + ty * ty) + 2.0 * (qx * sx + qy * sy)
            if not h > 0.0:
                break
            t = u - (qx * tx + qy * ty) / h
            if t < 0.0:
                t = 0.0
            elif t > 1.0:
                t = 1.0
            if abs(t - u) >= 1e-12:
                u = t
                continue
            # B(t) - p to first order: 1e-12 in u can be 1e-8 px along B
            w = 3.0 * (t - u)
            d = sqrt((qx + w * tx) ** 2 + (qy + w * ty) ** 2)
            u = t
            r = 2.0 * d / lip * _PAD_REL + _PAD_ABS
            # f''/6 falls by less than this within r: f''' to f'''''' / 6
            slack = r * (
                abs(18.0 * (tx * sx + ty * sy) + 2.0 * (qx * fx + qy * fy))
                + r * (abs(18.0 * (sx * sx + sy * sy)
                           + 12.0 * (tx * fx + ty * fy))
                       + r * (20.0 * abs(sx * fx + sy * fy) + r * ff)))
            if h > slack:   # fails on a NaN or infinite bound
                return d, u
            break
        if not grid:
            xs, ys = table or _curve_table(c, n)
            gap = max(map(math.dist, zip(xs, ys), zip(xs[1:], ys[1:])))
            grid.extend((xs, ys, gap * _PAD_REL + _PAD_ABS))
        xs, ys, gap = grid
        i, d2 = _nearest_sample(px, py, xs, ys, gap, int(u * n + 0.5))
        return sqrt(_refine(c, n, px, py, i, d2)), i / n

    return distance


def curve_distances(pts: list[Point2], c: CubicBezier) -> list[float]:
    """Distance of every point in pts to the curve c, as the report takes it:
    _certified's measure, falling back on max(256, 4 * len(pts)) samples,
    each point started one parameter step past the previous point's.  A
    coordinate not finite or not below 1e153 in size is a DomainError.
    """
    _check_range((*c, *pts))
    distance = _certified(c, max(256, 4 * len(pts)))
    out = []
    u = prev = 0.0
    for px, py in pts:
        u, prev = min(1.0, max(0.0, u + (u - prev))), u
        d, u = distance(px, py, u)
        out.append(d)
    return out


def farthest(pts: list[Point2], c: CubicBezier, lo: int,
             hi: int) -> tuple[int, float]:
    """First index of the largest distance in pts[lo:hi], and that
    distance; needs lo < hi.  This is the whole split search: the split
    point, and with max_error set also the test of that distance against
    the bound.  An out-of-range coordinate is a DomainError (_check_range).

    Each point takes _certified's measure, started at the sample s / n
    where a downhill walk along the max(256, 4 * len(pts)) + 1 samples
    stops (_downhill_samples), at squared distance ub; points are visited
    by falling ub, equal bounds and ties in index order.  A grid distance is
    at most sqrt(ub) exactly.  A certified one rounds the minimum, at most
    the sample's distance, which sqrt(ub) rounds, each within a few ulps of
    the largest coordinate in play: sqrt(ub) plus the largest control one
    at most, as samples lie in the control hull.  The pad, 1e-9 of sqrt(ub)
    plus 1e-13 of that control coordinate plus 1e-12, covers both, so the
    first point whose padded sqrt(ub) is below the best ends the search.
    """
    _check_range((*c, *pts))
    n = max(256, 4 * len(pts))
    xs, ys = _curve_table(c, n)
    distance = _certified(c, n, (xs, ys))
    pad = 1e-13 * max(abs(v) for p in c for v in p) + _PAD_ABS
    # points run along the curve, so the walk starts lo's share along it
    walk = _downhill_samples(pts[lo:hi], xs, ys, n * lo // len(pts))
    # sorted is stable, so equal bounds keep index order
    order = sorted(enumerate(walk, lo), key=lambda jw: jw[1][1], reverse=True)
    best_i, best = lo, -1.0
    for j, (s, ub) in order:
        if math.sqrt(ub) * _PAD_REL + pad < best:
            break
        d = distance(*pts[j], s / n)[0]
        if d > best or d == best and j < best_i:
            best_i, best = j, d
    return best_i, best


def point_deviation(p: Point2, c: CubicBezier) -> float:
    """Minimum distance from p to the curve, as curve_distances measures it."""
    return curve_distances([p], c)[0]


def spline_errors(contour, spline) -> tuple[float, float]:
    """Max and mean distance of every contour point to its own segment.

    Each segment owns the contour points from its span start up to but not
    including the span end (the shared break point belongs to the next
    segment), so every point is measured exactly once.  A contour of no
    points, or a span index outside [0, n), is a ConsistencyError.

    A segment's distances are curve_distances over its whole run, end point
    included, as the segment was fitted to it; the end point's distance is
    dropped.  Each run and its curve are held to _check_range before any
    distance.
    """
    n = contour.n
    if not n:
        raise ConsistencyError("no contour points to measure")
    owner_count = 0
    seen = [False] * n
    max_dev = 0.0
    total = 0.0
    for seg in spline.segments:
        a, b = seg.span
        if not (0 <= a < n and 0 <= b < n):
            raise ConsistencyError(
                f"segment span {seg.span} outside a loop of {n} points")
        run = [(a + k) % n for k in range((b - a) % n + 1)]
        for idx in run[:-1]:
            if seen[idx]:
                raise ConsistencyError(f"contour point {idx} covered twice")
            seen[idx] = True
        owner_count += len(run) - 1
        for d in curve_distances([contour.points[idx] for idx in run],
                                 seg.curve)[:-1]:
            total += d
            if d > max_dev:
                max_dev = d
    if owner_count != n:
        raise ConsistencyError(
            f"segments cover {owner_count} of {n} contour points")
    return max_dev, total / n


def report_from_errors(loops: list[tuple],
                       wall_time: float | None = None) -> FitReport:
    """Aggregate report over (contour, spline, errors) triples of one image.

    errors is the loop's own spline_errors result; the triples are summed
    in order, so the report is the same however the errors were measured.
    """
    n_points = 0
    n_segments = 0
    max_dev = 0.0
    error_sum = 0.0
    for contour, spline, (mx, avg) in loops:
        n_points += contour.n
        n_segments += len(spline.segments)
        error_sum += avg * contour.n
        if mx > max_dev:
            max_dev = mx
    return FitReport(
        n_points=n_points,
        n_segments=n_segments,
        max_dev=max_dev,
        avg_error=error_sum / n_points if n_points else 0.0,
        compression_ratio=compression_ratio(n_points, n_segments),
        wall_time=wall_time,
    )


def fit_report(loops: list[tuple], wall_time: float | None = None) -> FitReport:
    """Aggregate report over (contour, spline) pairs of one image."""
    return report_from_errors([(contour, spline, spline_errors(contour, spline))
                               for contour, spline in loops], wall_time)
