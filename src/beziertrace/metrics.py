"""Fit quality measures: point deviation, spline errors, compression ratio."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .bezier_core import _SQUARE_SAFE, CubicBezier, Point2, _check_range
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
# points took about two on average, and a handful did not converge in eight.
_NEWTON_STEPS = 8

# Newton's method stops at the first step that moves u by less than this.
_STEP = 1e-8

# The piece search stops once no piece can come closer than this (px) below
# the best distance found; no piece is halved past this depth.
_GAP = 1e-9
_MAX_DEPTH = 52


def _certified(c, whole: bool = True):
    """Distance to the cubic c, as a function measure(pts, u, out,
    starts=None) that appends the distance of each (px, py) of pts to out,
    in order, and returns the last point's end parameter.

    Each point runs Newton's method on (B(u) - p) . B'(u) = 0 (Schneider,
    Graphics Gems, 1990), each step clamped to [0, 1], until a step moves
    u by less than _STEP.  The first point starts at u.  Each later one
    starts one Newton step on from the previous point's last evaluation,
    with q = B(u) - p moved to the new point and the same T = B'/3 and
    S = B''/6, so the start costs no evaluation; where f'' (below) is not
    positive there, the step drops its S term (Gauss-Newton).  B, T and S
    are taken by Horner's rule in the power basis.

    The distance at the end t = u + s is taken to first order, plus a pad.
    B is cubic, so B(t) - p = q + 3 s T + 3 s^2 S + s^3 F exactly, with
    F = B'''/6, and S is a convex combination of e0 = P0 - 2 P1 + P2 and
    e1 = P1 - 2 P2 + P3.  With |s| < _STEP, |B(t) - p| exceeds |q + 3 s T|
    by at most s^2 K, K = 3 max(|e0|_1, |e1|_1) + _STEP |F|_1.  So the
    distance |q + 3 s T| + s^2 K is never below |B(t) - p|, hence never
    below the minimum, and is at most 2 s^2 K above it: under 1e-14 of the
    largest control coordinate, a few units of rounding.

    Certificate: t, at distance d0, is the minimum if the Taylor terms of
    f'' at u (f = |B - p|^2) show f convex within r + _STEP of u, padded,
    beyond which no parameter comes as close as d0.  B' is a convex
    combination of 3 (P[k+1] - P[k]) (Sederberg and Nishita, CAD 1990):
    with e the unit chord and lip = 3 min_k (P[k+1] - P[k]) . e,
    |B(u) - B(v)| >= lip |u - v|.  No parameter lies farther than
    max(t, 1 - t) from t, so r is that or, where lip > 0, 2 d0 / lip if
    less.

    On a whole curve, a point it cannot certify (no convergence, a failed,
    NaN or infinite bound) takes the piece search (_nearest) over c's tree
    of de Casteljau halves, built at the first such point and kept for the
    rest, and the next point starts where that search ended; on a piece
    (whole False) its distance is None.  With starts a list, each point is
    evaluated once only, at its start: out gets |B(u) - p| there, a bound
    on its distance (its certified distance where that first step already
    stops), and starts the parameter one Newton step on.

    This is where the range contract of every distance is checked: a
    coordinate that is not finite or not below 1e153 in size is a
    DomainError (_check_range), for c when the measure is built and for
    each point as measure reads it, before its distance.
    """
    _check_range(c)
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = c
    # with D = P1 - P0: B = P0 + u (3 D + u (3 e0 + u F)), T = D + u (e0 + S)
    # and S = e0 + u F
    dx0, dy0 = x1 - x0, y1 - y0
    dx1, dy1 = x2 - x1, y2 - y1
    dx2, dy2 = x3 - x2, y3 - y2
    ex0, ey0 = dx1 - dx0, dy1 - dy0
    ex1, ey1 = dx2 - dx1, dy2 - dy1
    fx, fy = ex1 - ex0, ey1 - ey0
    ax, ay, bx, by = 3.0 * dx0, 3.0 * dy0, 3.0 * ex0, 3.0 * ey0
    ff = 5.0 * (fx * fx + fy * fy)
    kk = (3.0 * max(abs(ex0) + abs(ey0), abs(ex1) + abs(ey1))
          + _STEP * (abs(fx) + abs(fy)))
    cx, cy = x3 - x0, y3 - y0
    chord = math.hypot(cx, cy)
    lip = 3.0 * min(dx0 * cx + dy0 * cy, dx1 * cx + dy1 * cy,
                    dx2 * cx + dy2 * cy) / chord if chord > 0.0 else 0.0
    sqrt, hypot = math.sqrt, math.hypot
    tree = []   # the root piece, once a point needs it
    consts = (x0, y0, dx0, dy0, ex0, ey0, fx, fy, ax, ay, bx, by, kk, lip, ff,
              _STEP, _SQUARE_SAFE)

    def measure(pts, u: float, out: list, starts: list | None = None):
        # locals, which the loop reads faster than closure cells
        (x0, y0, dx0, dy0, ex0, ey0, fx, fy, ax, ay, bx, by, kk, lip, ff,
         stop, lim) = consts
        steps = _NEWTON_STEPS if starts is None else 1
        append = out.append
        t = u
        # no evaluation yet: T = S = 0 leaves the first start at u
        qx = qy = tx = ty = sx = sy = lx = ly = 0.0
        for px, py in pts:
            if not (-lim < px < lim and -lim < py < lim):
                _check_range(((px, py),))
            qx += lx - px
            qy += ly - py
            lx, ly = px, py
            h = 3.0 * (tx * tx + ty * ty) + 2.0 * (qx * sx + qy * sy)
            if not h > 0.0:   # Gauss-Newton where f is not convex here
                h = 3.0 * (tx * tx + ty * ty)
            if h > 0.0:
                u -= (qx * tx + qy * ty) / h
                u = 0.0 if u < 0.0 else 1.0 if u > 1.0 else u
            t, d = u, -1.0
            for _ in range(steps):
                u = t
                sx = ex0 + u * fx
                sy = ey0 + u * fy
                tx = dx0 + u * (ex0 + sx)
                ty = dy0 + u * (ey0 + sy)
                qx = x0 - px + u * (ax + u * (bx + u * fx))
                qy = y0 - py + u * (ay + u * (by + u * fy))
                # h is f''/6, and the Newton step g / h has g divided by 3 too
                h = 3.0 * (tx * tx + ty * ty) + 2.0 * (qx * sx + qy * sy)
                if not h > 0.0:
                    break
                t = u - (qx * tx + qy * ty) / h
                t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
                s = t - u
                if s >= stop or s <= -stop:
                    continue
                gx, gy = qx + 3.0 * s * tx, qy + 3.0 * s * ty
                d = sqrt(gx * gx + gy * gy) + s * s * kk
                r = 2.0 * d / lip if lip > 0.0 else 2.0
                if r > 0.5:   # no parameter lies farther than max(t, 1 - t)
                    r = min(r, max(t, 1.0 - t))
                r = (r + stop) * _PAD_REL + _PAD_ABS
                # f''/6 falls by less than this within r: f''' to f'''''' / 6
                slack = r * (
                    abs(18.0 * (tx * sx + ty * sy) + 2.0 * (qx * fx + qy * fy))
                    + r * (abs(18.0 * (sx * sx + sy * sy)
                               + 12.0 * (tx * fx + ty * fy))
                           + r * (20.0 * abs(sx * fx + sy * fy) + r * ff)))
                if not h > slack:   # fails on a NaN or infinite bound
                    d = -1.0
                break
            if d < 0.0:
                if starts is not None:
                    d = hypot(qx, qy)
                elif not whole:
                    d = None
                else:
                    if not tree:
                        tree.append(_Piece(c, 0.0, 1.0, 0))
                    d, t = _nearest(tree[0], px, py, hypot(qx, qy), u)
                    u, tx, ty, sx, sy = t, 0.0, 0.0, 0.0, 0.0
            append(d)
            if starts is not None:
                starts.append(t)
        return t

    return measure


def _mid(p, q):
    return 0.5 * (p[0] + q[0]), 0.5 * (p[1] + q[1])


class _Piece:
    """The part of a cubic for u in [a, b], as its own cubic c over [0, 1]:
    its chord P0P3, its flatness (the larger distance of P1 and P2 to that
    chord; the piece lies in their hull, so no point of it is farther from
    the chord), and, each built on first need, its Newton measure and its
    de Casteljau halves."""

    __slots__ = ("c", "a", "b", "depth", "x0", "y0", "cx", "cy", "cc",
                 "flat", "solve", "kids")

    def __init__(self, c, a, b, depth):
        (x0, y0), p1, p2, (x3, y3) = c
        self.c, self.a, self.b, self.depth = c, a, b, depth
        self.x0, self.y0, self.cx, self.cy = x0, y0, x3 - x0, y3 - y0
        self.cc = self.cx * self.cx + self.cy * self.cy
        self.flat = max(self.bound(*p1)[0], self.bound(*p2)[0])
        self.solve = self.kids = None

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
    Chen et al., CAD 2008).  A piece gets its Newton measure when it is
    first popped, and is measured from best_u if it holds that, else from
    the chord's nearest point.  A certified piece gives its minimum; any
    other is halved, and the halves' shared end is a distance too, until
    no piece left can come _GAP closer than the best found.
    """
    # pieces in the heap are disjoint, so no two share a start a
    heap = [(-math.inf, root.a, 0.0, root)]
    got = []
    while heap:
        lb, _, t, piece = heapq.heappop(heap)
        if lb >= best - _GAP:
            break
        if piece is not root:
            if piece.a <= best_u <= piece.b:
                t = (best_u - piece.a) / (piece.b - piece.a)
            if piece.solve is None:
                piece.solve = _certified(piece.c, False)
            t = piece.solve(((px, py),), t, got)
            d = got.pop()
            if d is not None:
                if d < best:
                    best, best_u = d, piece.a + t * (piece.b - piece.a)
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
    _certified's measure over the run in one pass, the first point started
    at u = 0 and each next one a Newton step on from the previous point's
    last evaluation.  A coordinate not finite or not below 1e153 in size
    is a DomainError, which _certified raises.
    """
    out = []
    _certified(c)(pts, 0.0, out)
    return out


def farthest(pts: list[Point2], c: CubicBezier, lo: int,
             hi: int) -> tuple[int, float]:
    """First index of the largest distance in pts[lo:hi], and that
    distance; needs lo < hi.  This is the whole split search: the split
    point, and with max_error set also the test of that distance against
    the bound.  An out-of-range coordinate is a DomainError: _certified
    refuses c and the points in [lo, hi), and the points it does not read
    are checked here, those before lo first and those from hi last, so the
    first bad coordinate of c, then pts, is the one named.

    One pass of _certified's measure evaluates the curve once per point,
    the first at lo's share along the curve, each next one a Newton step on
    from the last, as curve_distances starts them; each point's bound is
    its distance to the curve point there.  Points are visited by falling
    bound (a stable sort), each measured by _certified from one Newton step
    past its bound's parameter.  The measure is at most the minimum plus
    _GAP, and the minimum at most the bound, each rounded within a few ulps
    of the largest coordinate in play (the bound plus the largest control
    one at most).  The pad, 1e-9 of the bound plus 1e-13 of that control
    coordinate plus 1e-12 px plus _GAP, covers both, so the first point
    whose padded bound is below the best ends the search.  A distance
    within that rounding of 0 counts as 0: points the curve passes through
    tie.
    """
    measure = _certified(c)
    floor = 1e-13 * max(abs(v) for p in c for v in p) + _PAD_ABS
    pad = floor + _GAP
    bounds, starts, got = [], [], []
    _check_range(pts[:lo])
    measure(pts[lo:hi], lo / len(pts), bounds, starts)
    _check_range(pts[hi:])
    best_i, best = lo, -1.0
    for k in sorted(range(hi - lo), key=bounds.__getitem__, reverse=True):
        if bounds[k] * _PAD_REL + pad < best:
            break
        j = lo + k
        measure((pts[j],), starts[k], got)
        d = got.pop()
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

    A segment's owned points are measured in one pass of curve_distances'
    measure.  A point's start depends only on the points before it, so
    each gets the distance curve_distances gives it over the segment's
    whole run, end point included.  _certified refuses an out-of-range
    curve before its run, and an out-of-range point as it reaches it.
    """
    n = contour.n
    if not n:
        raise ConsistencyError("no contour points to measure")
    points = contour.points
    seen = bytearray(n)
    out = []
    for seg in spline.segments:
        a, b = seg.span
        if not (0 <= a < n and 0 <= b < n):
            raise ConsistencyError(
                f"segment span {seg.span} outside a loop of {n} points")
        run = []
        for lo, hi in ((a, b),) if a <= b else ((a, n), (0, b)):
            k = seen.find(1, lo, hi)
            if k >= 0:
                raise ConsistencyError(f"contour point {k} covered twice")
            seen[lo:hi] = b"\x01" * (hi - lo)
            run += points[lo:hi]
        _certified(seg.curve)(run, 0.0, out)
    if len(out) != n:
        raise ConsistencyError(
            f"segments cover {len(out)} of {n} contour points")
    return max(out), sum(out) / n


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
