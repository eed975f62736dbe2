"""Fit quality measures: point deviation, spline errors, compression ratio."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bezier_core import CubicBezier, Point2
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


def _bernstein(samples: int) -> list[tuple[float, float, float, float]]:
    """The four cubic Bernstein weights at u = i / samples, i = 0..samples."""
    us = [i / samples for i in range(samples + 1)]
    return [(v * v * v, 3.0 * u * v * v, 3.0 * u * u * v, u * u * u)
            for u, v in zip(us, [1.0 - u for u in us])]


# The grid of every segment of up to 64 points; other sizes build their own
# basis per call, as caching every size would keep a table per run length.
_BERNSTEIN_256 = _bernstein(256)


def _curve_table(c: CubicBezier, samples: int) -> tuple[list[float], list[float]]:
    basis = _BERNSTEIN_256 if samples == 256 else _bernstein(samples)
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = c
    return ([b0 * x0 + b1 * x1 + b2 * x2 + b3 * x3
             for b0, b1, b2, b3 in basis],
            [b0 * y0 + b1 * y1 + b2 * y2 + b3 * y3
             for b0, b1, b2, b3 in basis])


# Rounding pad on distances and on the sample gap, so that a sample skipped
# by the triangle-inequality bound is strictly farther than the best one.
_PAD_REL = 1.0 + 1e-9
_PAD_ABS = 1e-12
# Below this size in every coordinate, a point and a curve point differ by
# less than 2e153 per axis, whose square cannot overflow.
_SQUARE_SAFE = 1e153


def _check_range(pts, c: CubicBezier) -> None:
    """DomainError unless every coordinate of pts and c is finite and below
    _SQUARE_SAFE in size, the precondition of every distance below."""
    lim = _SQUARE_SAFE
    for x, y in (*c, *pts):
        if not (-lim < x < lim and -lim < y < lim):
            raise DomainError(f"coordinate ({x!r}, {y!r}) is not finite or "
                              "not below 1e153 in size")


def _sample_gap(xs: list[float], ys: list[float]) -> float:
    """Longest chord between neighbouring samples, padded for rounding."""
    return max(map(math.dist, zip(xs, ys), zip(xs[1:], ys[1:]))) \
        * _PAD_REL + _PAD_ABS


def _nearest_sample(px: float, py: float, xs: list[float], ys: list[float],
                    gap: float, seed: int) -> tuple[int, float]:
    """(index, squared distance) of the point's nearest grid sample.

    The nearest sample is found exactly but without visiting every sample:
    the bound starts from sample 0 and from the seed sample, and a sample at
    distance d lets the sweep skip the next floor((d - best) / gap) samples,
    gap being _sample_gap of the table; by the triangle inequality none of
    them can be closer.  Ties go to the first sample, so the result does not
    depend on the seed, only the work does.
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


def _nearest_samples(pts, xs: list[float], ys: list[float]):
    """(index, squared distance) of each point's nearest grid sample
    (_nearest_sample), each seeded from the previous point's, as points
    run along the curve."""
    gap = _sample_gap(xs, ys)
    seed = 0
    for px, py in pts:
        seed, d2 = _nearest_sample(px, py, xs, ys, gap, seed)
        yield seed, d2


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


# Newton steps per point at most; from the nearest of at least 256 samples
# no point of the benchmark's seed-1 pools took more than four.
_NEWTON_STEPS = 8


def _newton_refine(c: CubicBezier, n: int, px: float, py: float,
                   best_i: int, best: float) -> float:
    """Newton's method on g(u) = (B(u) - p) . B'(u) = 0 from sample best_i.

    The same contract as _refine: the iterates stay in the grid intervals
    either side of the sample (each step is clamped to them), best is the
    sample's squared distance, and the result is the smallest squared
    distance seen, so it is never above best.  Iteration stops when a step
    moves u by less than 1e-12, or after _NEWTON_STEPS.

    Newton runs only where f = |B - p|^2 is certified convex over those
    intervals.  f'' is a polynomial in u, so its Taylor terms at the sample
    bound how far it can move within 1/n of it; that bound must stay below
    a third of f'' at the sample.  Then f'' varies less than twofold over
    the intervals, which hold a single minimum that both refines find, and
    each Newton step moves nearer to it.  Elsewhere (near a cusp, a nearly
    stationary end or a point on the evolute) the intervals go to _refine,
    starting from the best distance seen.

    Two refines serve two contracts.  The split search (farthest, which
    keeps curve_distances' definition) keeps the golden section alone, so
    that the fitted geometry breaks near-ties exactly as before; the report
    (spline_errors) uses this one, which finds the same minimum to ~1e-11
    px in two or three steps instead of ~47.
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
    a = (best_i - 1) / n if best_i > 0 else 0.0
    b = (best_i + 1) / n if best_i < n else 1.0
    d = 1.0 / n
    u = best_i / n
    for k in range(_NEWTON_STEPS):
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
        f = qx ** 2 + qy ** 2
        if f < best:
            best = f
        tx = vv * dx0 + uv2 * dx1 + uu * dx2
        ty = vv * dy0 + uv2 * dy1 + uu * dy2
        sx = v * ex0 + u * ex1
        sy = v * ey0 + u * ey1
        h = 3.0 * (tx * tx + ty * ty) + 2.0 * (qx * sx + qy * sy)
        # h is f''/6, and the Newton step g / h has g divided by 3 as well.
        # At the sample, h must exceed three times the bound on its change
        # within d: the Taylor terms of f''' to f'''''' at the sample, over
        # 6.  Later iterates need only h > 0.
        if k == 0:
            slack = 3.0 * d * (
                abs(18.0 * (tx * sx + ty * sy) + 2.0 * (qx * fx + qy * fy))
                + d * (abs(18.0 * (sx * sx + sy * sy)
                           + 12.0 * (tx * fx + ty * fy))
                       + d * (20.0 * abs(sx * fx + sy * fy)
                              + 5.0 * d * (fx * fx + fy * fy))))
        else:
            slack = 0.0
        if not h > slack:
            return _refine(c, n, px, py, best_i, best)
        t = u - (qx * tx + qy * ty) / h
        if t < a:
            t = a
        elif t > b:
            t = b
        if not abs(t - u) >= 1e-12:
            break
        u = t
    return best


def curve_distances(pts: list[Point2], c: CubicBezier,
                    samples: int | None = None) -> list[float]:
    """Distance of every point in pts to the curve, sharing one sample grid.

    The grid has max(256, 4 * len(pts)) uniform parameters unless an
    explicit count is given. Each point takes the first grid sample with
    the smallest squared distance (_nearest_samples) and refines it by
    golden section over the two neighbouring grid intervals (_refine).
    This is the definition the split search keeps: no fit path calls it, as
    farthest finds the largest of these distances bit for bit without
    refining them all.  The report measures with the Newton refine instead
    (see spline_errors).  A coordinate that is not finite or not below 1e153
    in size is a DomainError (_check_range).
    """
    _check_range(pts, c)
    n = max(256, 4 * len(pts)) if samples is None else max(1, samples)
    xs, ys = _curve_table(c, n)
    sqrt = math.sqrt
    return [sqrt(_refine(c, n, px, py, i, d2))
            for (px, py), (i, d2) in zip(pts, _nearest_samples(pts, xs, ys))]


def farthest(pts: list[Point2], c: CubicBezier, lo: int,
             hi: int) -> tuple[int, float]:
    """First index of the largest distance in pts[lo:hi], and that distance.

    Bit for bit the max(range(lo, hi), key=...) of curve_distances(pts, c)
    and that value (ties to the first index), with the same DomainError;
    needs lo < hi.  This is the whole split search: the split point, and
    with max_error set also the test of that distance against the bound.

    A point's refined distance is never above g, its nearest-sample
    distance, and g is never above sqrt(ub), the distance of any sample.
    Each point first gets such an upper bound ub from a downhill walk along
    the sample table (_downhill_samples).  The point with the largest ub is
    swept exactly and refined to d0; a point with sqrt(ub) < d0 can then
    neither pass d0 nor tie with it, and only points with sqrt(ub) >= d0
    get the exact sweep for g.  Among them, once the point with the largest
    g is refined to d, only points with g >= d are refined.  When every
    distance ties near the top, that is every point, as in the full pass.
    """
    _check_range(pts, c)
    n = max(256, 4 * len(pts))
    xs, ys = _curve_table(c, n)
    sqrt = math.sqrt
    gap = _sample_gap(xs, ys)
    # points run along the curve, so the walk starts lo's share along it
    walk = list(_downhill_samples(pts[lo:hi], xs, ys, n * lo // len(pts)))
    k0 = max(range(hi - lo), key=lambda k: walk[k][1])
    j0 = lo + k0
    d0 = sqrt(_refine(c, n, *pts[j0],
                      *_nearest_sample(*pts[j0], xs, ys, gap, walk[k0][0])))
    near = {j: _nearest_sample(*pts[j], xs, ys, gap, s)
            for j, (s, ub) in enumerate(walk, lo) if sqrt(ub) >= d0}
    dists = {j0: d0}

    def dist(j: int) -> float:
        if j not in dists:
            dists[j] = sqrt(_refine(c, n, *pts[j], *near[j]))
        return dists[j]

    g = {j: sqrt(d2) for j, (_, d2) in near.items()}
    dk = dist(max(g, key=g.__getitem__))
    best_i = max([j for j in g if g[j] >= dk], key=dist)
    return best_i, dists[best_i]


def point_deviation(p: Point2, c: CubicBezier) -> float:
    """Minimum distance from p to the curve (sampling plus refinement)."""
    return curve_distances([p], c)[0]


def spline_errors(contour, spline) -> tuple[float, float]:
    """Max and mean distance of every contour point to its own segment.

    Each segment owns the contour points from its span start up to but not
    including the span end (the shared break point belongs to the next
    segment), so every point is measured exactly once.  A span index
    outside [0, n) is a ConsistencyError.

    A point's distance starts from its nearest sample on the grid
    curve_distances uses, max(256, 4 * m) for a segment over m points, and
    is refined by Newton's method (_newton_refine), not by golden section:
    the two agree to ~1e-11 px, and Newton takes a few steps where the
    golden section takes ~47.  Each segment's points and curve are held to
    curve_distances' range (_check_range).
    """
    n = contour.n
    sqrt = math.sqrt
    owner_count = 0
    seen = [False] * n
    max_dev = 0.0
    total = 0.0
    for seg in spline.segments:
        a, b = seg.span
        if not (0 <= a < n and 0 <= b < n):
            raise ConsistencyError(
                f"segment span {seg.span} outside a loop of {n} points")
        m = (b - a) % n + 1
        indices = [(a + k) % n for k in range(m - 1)]
        for idx in indices:
            if seen[idx]:
                raise ConsistencyError(f"contour point {idx} covered twice")
            seen[idx] = True
        owner_count += len(indices)
        pts = [contour.points[idx] for idx in indices]
        c = seg.curve
        _check_range(pts, c)
        samples = max(256, 4 * m)
        xs, ys = _curve_table(c, samples)
        for (px, py), (i, d2) in zip(pts, _nearest_samples(pts, xs, ys)):
            d = sqrt(_newton_refine(c, samples, px, py, i, d2))
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
