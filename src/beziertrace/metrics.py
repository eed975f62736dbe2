"""Fit quality measures: point deviation, spline errors, compression ratio."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .bezier_core import CubicBezier, Point2, _check_range
from .errors import ConsistencyError, DomainError


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


# Rounding pad on distances, so a bound skips only what is strictly farther
_PAD_REL = 1.0 + 1e-9
_PAD_ABS = 1e-12

# Newton evaluations per point at most.  On the benchmark's seed-1 pools
# points took three on average, and 5 of 45,887 did not converge in eight.
_NEWTON_STEPS = 8

# The piece search stops once no piece can come closer than this (px) below
# the best distance found; no piece is halved past this depth.
_GAP = 1e-9
_MAX_DEPTH = 52


def _certified(c, whole: bool = True):
    """Distance to the cubic c, as a function (px, py, u) -> (distance,
    end u), by Newton's method on (B(u) - p) . B'(u) = 0 from u (Schneider,
    Graphics Gems, 1990), each step clamped to [0, 1], the last under 1e-12.
    Its u0, at distance d0, is the minimum if the Taylor terms of f'' at u0
    (f = |B - p|^2) show f convex within a radius r of u0, padded, beyond
    which no parameter comes as close as d0.  B' is a convex combination of
    3 (P[k+1] - P[k]) (Sederberg and Nishita, CAD 1990): with e the unit
    chord and lip = 3 min_k (P[k+1] - P[k]) . e, |B(u) - B(v)| >=
    lip |u - v|.  No parameter lies farther than max(u0, 1 - u0), so r is
    that or, where lip > 0, 2 d0 / lip if less.  On a whole curve, a point
    it cannot certify (no convergence, a failed, NaN or infinite bound)
    takes the piece search (_nearest) over c's tree of de Casteljau halves,
    built at the first such point and kept for the rest; a piece gives None.
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
    sqrt = math.sqrt
    tree = []   # the root piece, once a point needs it

    def distance(px: float, py: float, u: float):
        for _ in range(_NEWTON_STEPS):
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
            r = 2.0 * d / lip if lip > 0.0 else 2.0
            if r > 0.5:   # no parameter lies farther than max(u, 1 - u)
                r = min(r, max(u, 1.0 - u))
            r = r * _PAD_REL + _PAD_ABS
            # f''/6 falls by less than this within r: f''' to f'''''' / 6
            slack = r * (
                abs(18.0 * (tx * sx + ty * sy) + 2.0 * (qx * fx + qy * fy))
                + r * (abs(18.0 * (sx * sx + sy * sy)
                           + 12.0 * (tx * fx + ty * fy))
                       + r * (20.0 * abs(sx * fx + sy * fy) + r * ff)))
            if h > slack:   # fails on a NaN or infinite bound
                return d, u
            break
        if not whole:
            return None
        if not tree:
            tree.append(_Piece(c, 0.0, 1.0, 0))
        return _nearest(tree[0], px, py, math.hypot(qx, qy), u)

    return distance


def _mid(p, q):
    return 0.5 * (p[0] + q[0]), 0.5 * (p[1] + q[1])


class _Piece:
    """The part of a cubic for u in [a, b], as its own cubic c over [0, 1]:
    its chord P0P3, its flatness (the larger distance of P1 and P2 to that
    chord; the piece lies in their hull, so no point of it is farther from
    the chord), its Newton measure, and its de Casteljau halves, built on
    first need."""

    __slots__ = ("c", "a", "b", "depth", "x0", "y0", "cx", "cy", "cc",
                 "flat", "solve", "kids")

    def __init__(self, c, a, b, depth):
        (x0, y0), p1, p2, (x3, y3) = c
        self.c, self.a, self.b, self.depth = c, a, b, depth
        self.x0, self.y0, self.cx, self.cy = x0, y0, x3 - x0, y3 - y0
        self.cc = self.cx * self.cx + self.cy * self.cy
        self.flat = max(self.bound(*p1)[0], self.bound(*p2)[0])
        self.solve = _certified(c, whole=False)
        self.kids = None

    def bound(self, px, py):
        """(distance, parameter) of (px, py)'s nearest point on the chord."""
        x0, y0, cx, cy, cc = self.x0, self.y0, self.cx, self.cy, self.cc
        t = ((px - x0) * cx + (py - y0) * cy) / cc if cc > 0.0 else 0.0
        t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
        return math.hypot(px - x0 - t * cx, py - y0 - t * cy), t

    def halves(self):
        """The pieces for [a, m] and [m, b], m the middle parameter."""
        if self.kids is None:
            p0, p1, p2, p3 = self.c
            a, b, e = _mid(p0, p1), _mid(p1, p2), _mid(p2, p3)
            f, g = _mid(a, b), _mid(b, e)
            mid = _mid(f, g)
            m, k = 0.5 * (self.a + self.b), self.depth + 1
            self.kids = (_Piece((p0, a, f, mid), self.a, m, k),
                         _Piece((mid, g, e, p3), m, self.b, k))
        return self.kids


def _nearest(root: _Piece, px: float, py: float, best: float,
             best_u: float) -> tuple[float, float]:
    """(distance, u) of the point of root's curve nearest to (px, py), never
    below the minimum and at most _GAP above it, up to rounding.  best, at
    best_u, is a distance found already, where root's own Newton measure
    failed, so root is halved at once.  Pieces are visited best first by a
    lower bound, their distance to the chord less their flatness (compare
    Chen et al., CAD 2008), each measured from best_u if it holds that, else
    from the chord's nearest point.  A certified piece gives its minimum;
    any other is halved, and the halves' shared end is a distance too, until
    no piece left can come _GAP closer than the best found.
    """
    # pieces in the heap are disjoint, so no two share a start a
    heap = [(-math.inf, root.a, 0.0, root)]
    while heap:
        lb, _, t, piece = heapq.heappop(heap)
        if lb >= best - _GAP:
            break
        if piece.a <= best_u <= piece.b:
            t = (best_u - piece.a) / (piece.b - piece.a)
        got = None if piece is root else piece.solve(px, py, t)
        if got is not None:
            if got[0] < best:
                best, best_u = got[0], piece.a + got[1] * (piece.b - piece.a)
            continue
        if piece.depth == _MAX_DEPTH:
            continue
        low, high = piece.halves()
        d = math.hypot(high.x0 - px, high.y0 - py)
        if d < best:
            best, best_u = d, high.a
        for half in low, high:
            lb, t = half.bound(px, py)
            if lb - half.flat < best - _GAP:
                heapq.heappush(heap, (lb - half.flat, half.a, t, half))
    return best, best_u


def curve_distances(pts: list[Point2], c: CubicBezier) -> list[float]:
    """Distance of every point in pts to the curve c, as the report takes it:
    _certified's measure, each point started one parameter step past the
    previous point's.  A coordinate not finite or not below 1e153 in size
    is a DomainError.
    """
    _check_range((*c, *pts))
    distance = _certified(c)
    out = []
    u = prev = 0.0
    for px, py in pts:
        u, prev = min(1.0, max(0.0, u + (u - prev))), u
        d, u = distance(px, py, u)
        out.append(d)
    return out


def _chain(c: CubicBezier, pts, u: float):
    """(u, bound) per point of pts: bound is its distance to c at the
    parameter carried on as curve_distances carries it (u at the first
    point), and u that parameter moved one Newton step, to start from."""
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = c
    dx0, dy0 = x1 - x0, y1 - y0
    dx1, dy1 = x2 - x1, y2 - y1
    dx2, dy2 = x3 - x2, y3 - y2
    ex0, ey0 = dx1 - dx0, dy1 - dy0
    ex1, ey1 = dx2 - dx1, dy2 - dy1
    prev = u
    for px, py in pts:
        u, prev = u + (u - prev), u
        u = 0.0 if u < 0.0 else 1.0 if u > 1.0 else u
        v = 1.0 - u
        vv, uu, uv2 = v * v, u * u, 2.0 * u * v
        b0, b1, b2, b3 = v * vv, 3.0 * u * vv, 3.0 * uu * v, u * uu
        qx = b0 * x0 + b1 * x1 + b2 * x2 + b3 * x3 - px
        qy = b0 * y0 + b1 * y1 + b2 * y2 + b3 * y3 - py
        tx = vv * dx0 + uv2 * dx1 + uu * dx2
        ty = vv * dy0 + uv2 * dy1 + uu * dy2
        h = 3.0 * (tx * tx + ty * ty) + 2.0 * (qx * (v * ex0 + u * ex1)
                                               + qy * (v * ey0 + u * ey1))
        bound = math.hypot(qx, qy)
        if h > 0.0:
            u -= (qx * tx + qy * ty) / h
            u = 0.0 if u < 0.0 else 1.0 if u > 1.0 else u
        yield u, bound


def farthest(pts: list[Point2], c: CubicBezier, lo: int,
             hi: int) -> tuple[int, float]:
    """First index of the largest distance in pts[lo:hi], and that
    distance; needs lo < hi.  This is the whole split search: the split
    point, and with max_error set also the test of that distance against
    the bound.  An out-of-range coordinate is a DomainError (_check_range).

    The parameter is carried from point to point (_chain), from lo's share
    along the curve; each point's bound is its distance to the curve point
    there.  Points are visited by falling bound (a stable sort), each
    measured by _certified from its chain parameter.  The measure is at
    most the minimum plus _GAP, and the minimum at most the bound, each
    rounded within a few ulps of the largest coordinate in play (the bound
    plus the largest control one at most).  The pad, 1e-9 of the bound plus
    1e-13 of that control coordinate plus 1e-12 px plus _GAP, covers both,
    so the first point whose padded bound is below the best ends the
    search.  A distance within that rounding of 0 counts as 0: points the
    curve passes through tie.
    """
    _check_range((*c, *pts))
    distance = _certified(c)
    floor = 1e-13 * max(abs(v) for p in c for v in p) + _PAD_ABS
    pad = floor + _GAP
    bounds = list(enumerate(_chain(c, pts[lo:hi], lo / len(pts)), lo))
    bounds.sort(key=lambda jb: jb[1][1], reverse=True)
    best_i, best = lo, -1.0
    for j, (u, bound) in bounds:
        if bound * _PAD_REL + pad < best:
            break
        d = distance(*pts[j], u)[0]
        if d <= floor:
            d = 0.0
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
