"""Fit quality measures: point deviation, spline errors, compression ratio."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bezier_core import (_SQUARE_SAFE, CubicBezier, Point2, _check_range,
                          evaluate)
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

# A searched distance is above the minimum by no more than this (px), and
# by rounding; farthest's pad covers it.
_GAP = 1e-9


def _certified(c):
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

    Certificate: t, at distance d0, is the minimum if f = |B - p|^2 is
    convex on every parameter v that could come as close as d0.  B' is a
    convex combination of 3 (P[k+1] - P[k]) (Sederberg and Nishita, CAD
    1990): with e the unit chord and lip = 3 min_k (P[k+1] - P[k]) . e,
    |B(u) - B(v)| >= lip |u - v|.  So where lip > 0, such a v has
    |B(v) - B(t)| <= 2 d0 and |v - t| <= 2 d0 / lip, and the window
    |v - u| <= 2 d0 / lip + _STEP around Newton's last evaluation u holds
    it.  With vmax = 3 max_k |P[k+1] - P[k]| and amax = 6 max(|e0|, |e1|),
    every v in the window has |v - t| <= 2 d0 / lip + 2 _STEP,
    |B(v) - p| <= d0 + vmax |v - t|, |B'(v)| >= lip and |B''(v)| <= amax.
    Then f''/2 = |B'|^2 + (B - p) . B'' is at least
    lip^2 - amax (d0 + vmax |v - t|), which is positive whenever d0 is
    below D* = (lip^2 / amax - 2 vmax _STEP) / (1 + 2 vmax / lip).  D* is
    taken once per curve, with each term padded by 1e-9 to the side that
    shrinks it, which covers the rounding of lip, vmax, amax, d0 and D*
    itself.  It is infinite where amax = 0, and no point uses it where
    lip <= 0.  A converged point below D* is certified by that one
    comparison.

    Any other point (no convergence, or at D* or above) takes the
    sign search (_sign_search), whose coefficients are built once per
    curve, at the first point that needs them; the next point starts
    where that search ended.  With starts a list, each point is evaluated
    once only, at its start: out gets |B(u) - p| there, a bound on its
    distance (its certified distance where that first step already
    stops), and starts the parameter one Newton step on.  A point's
    distance depends only on c, the point and its start.

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
    kk = (3.0 * max(abs(ex0) + abs(ey0), abs(ex1) + abs(ey1))
          + _STEP * (abs(fx) + abs(fy)))
    cx, cy = x3 - x0, y3 - y0
    chord = math.hypot(cx, cy)
    lip = 3.0 * min(dx0 * cx + dy0 * cy, dx1 * cx + dy1 * cy,
                    dx2 * cx + dy2 * cy) / chord if chord > 0.0 else 0.0
    sqrt, hypot = math.sqrt, math.hypot
    vmax = 3.0 * max(hypot(dx0, dy0), hypot(dx1, dy1), hypot(dx2, dy2))
    amax = 6.0 * max(hypot(ex0, ey0), hypot(ex1, ey1))
    near = -1.0   # D*, each term padded to the side that shrinks it
    if lip > 0.0:
        near = math.inf if amax == 0.0 else (
            (lip * lip / amax / _PAD_REL - 2.0 * vmax * _STEP * _PAD_REL)
            / ((1.0 + 2.0 * vmax / lip) * _PAD_REL * _PAD_REL))
    consts = (x0, y0, dx0, dy0, ex0, ey0, fx, fy, ax, ay, bx, by, kk, near,
              _STEP, _SQUARE_SAFE)
    kit = []   # the sign search's coefficients, once a point needs them

    def measure(pts, u: float, out: list, starts: list | None = None):
        # locals, which the loop reads faster than closure cells
        (x0, y0, dx0, dy0, ex0, ey0, fx, fy, ax, ay, bx, by, kk, near, stop,
         lim) = consts
        steps = range(_NEWTON_STEPS if starts is None else 1)
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
            t, d, done = u, -1.0, False
            for _ in steps:
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
                done = d < near
                break
            if not done:
                if starts is not None:
                    d = hypot(qx, qy)
                else:
                    if not kit:
                        kit.append(_quintic(c))
                    d, t = _sign_search(kit[0], consts, px, py, t, d)
                    u, tx, ty, sx, sy = t, 0.0, 0.0, 0.0, 0.0
            append(d)
            if starts is not None:
                starts.append(t)
        return t

    return measure


def _quintic(c):
    """The sign search's coefficients for the cubic c.  g(u) =
    (B(u) - p) . B'(u) / 3, which is f'/6, is a quintic: the product of
    B - p (degree 3, Bernstein coefficients P_i - p) and B'/3 (degree 2,
    coefficients D_j = P[j+1] - P[j]).  Each pair (i, j) adds
    C(3, i) C(2, j) / C(5, i + j) of (P_i - p) . D_j to the coefficient
    g_{i+j} over [0, 1], so g_k = A_k - px Vx_k - py Vy_k.

    Returns c; the rows (A_k, Vx_k, Vy_k); the scale s such that every
    g_k, and every coefficient halving makes of them, is within
    s (m + |px| + |py|) of its exact value; and m, the largest control
    coordinate in size.  Each g_k sums weights of total 1 times terms of at
    most (m + |p|) max_j |D_j|_1, and each halving rounds a coefficient at
    most five times, so s = 1e-12 max_j |D_j|_1 covers the sums and the
    1,100 halvings a float interval can take.
    """
    steps = [(q[0] - p[0], q[1] - p[1]) for p, q in zip(c, c[1:])]
    rows = [[0.0, 0.0, 0.0] for _ in range(6)]
    for i, (x, y) in enumerate(c):
        for j, (dx, dy) in enumerate(steps):
            w = (1, 3, 3, 1)[i] * (1, 2, 1)[j] / (1, 5, 10, 10, 5, 1)[i + j]
            row = rows[i + j]
            row[0] += w * (x * dx + y * dy)
            row[1] += w * dx
            row[2] += w * dy
    return (c, rows, 1e-12 * max(abs(dx) + abs(dy) for dx, dy in steps),
            max(abs(v) for p in c for v in p))


def _halves(g):
    """Bernstein coefficients of the quintic with coefficients g over the two
    halves of its interval: de Casteljau at the middle."""
    g0, g1, g2, g3, g4, g5 = g
    a0, a1, a2, a3, a4 = ((g0 + g1) * 0.5, (g1 + g2) * 0.5, (g2 + g3) * 0.5,
                          (g3 + g4) * 0.5, (g4 + g5) * 0.5)
    b0, b1, b2, b3 = ((a0 + a1) * 0.5, (a1 + a2) * 0.5, (a2 + a3) * 0.5,
                      (a3 + a4) * 0.5)
    c0, c1, c2 = (b0 + b1) * 0.5, (b1 + b2) * 0.5, (b2 + b3) * 0.5
    d0, d1 = (c0 + c1) * 0.5, (c1 + c2) * 0.5
    m = (d0 + d1) * 0.5
    return (g0, a0, b0, c0, d0, m), (m, d1, c2, b3, a4, g5)


def _sign_search(kit, consts, px: float, py: float, t: float,
                 d: float) -> tuple[float, float]:
    """(distance, u) of the point of kit's curve nearest to (px, py), never
    below the minimum, up to rounding, and at most _GAP above it.  t is
    Newton's last parameter, and d its distance where it converged, else -1.

    The minimum lies at an end of the curve or where g = f'/6 (_quintic)
    goes from - to +, and an end is a candidate only if f does not fall
    from it.  The sign changes of g's Bernstein coefficients over an
    interval bound the roots of g inside it, counted with multiplicity,
    with the same parity (Descartes' rule in Bernstein form; Lane and
    Riesenfeld, BIT 1981).  A coefficient within its rounding of zero
    counts as either sign.  From [0, 1], an interval where no - can come
    before a + holds no such root, and is dropped.  One where no + can come
    before a - holds at most one root, and a simple one.  If it holds
    Newton's converged t between a - and a + end, t is that root.
    Otherwise its candidates go by the signs of its end coefficients, which
    are g's values there: an end where f does not fall inwards, and, where
    the ends bracket a root, Newton's method kept in that bracket
    (bisecting where a step would leave it).

    An interval [a, b] whose coefficients all round to zero, where more
    than one root may lie, takes them again, once, from the piece of the
    curve over it, less p: control points q(a), q(a) + w T(a),
    q(b) - w T(b) and q(b), with q = B - p, T = B'/3 and w = b - a.  That
    g is w times the old one, and its rounding scales with the piece and
    its distance from p, not with the whole curve.  Near a cusp or an end
    where B' vanishes, a point within the old rounding of the curve is
    thus searched at its own scale.  Rounding the piece's control points
    moves a distance by a few units in the last place of the coordinates
    in play.  An interval still flat after that, or one too short to
    halve, gets the same candidates: |g| is within twice its rounding
    there, so f falls by at most 12 times that rounding times w within
    it.  Any other interval is halved by de Casteljau on its six
    coefficients (_halves).  The least distance found wins, Newton's own
    included, each taken by evaluate, in the Bernstein form, which rounds
    least.
    """
    c, rows, scale, big = kit
    x0, y0, dx0, dy0, ex0, ey0, fx, fy, ax, ay, bx, by = consts[:12]

    def at(u):   # B(u) - p, T = B'/3 and S = B''/6
        sx, sy = ex0 + u * fx, ey0 + u * fy
        return (x0 - px + u * (ax + u * (bx + u * fx)),
                y0 - py + u * (ay + u * (by + u * fy)),
                dx0 + u * (ex0 + sx), dy0 + u * (ey0 + sy), sx, sy)

    e = scale * (big + abs(px) + abs(py))
    g = [a - px * vx - py * vy for a, vx, vy in rows]
    found = [0.0] * (g[0] >= -e) + [1.0] * (g[5] <= e) + [t] * (d >= 0.0)
    work = [(0.0, 1.0, g, e, False)]
    while work:
        a, b, g, e, piece = work.pop()
        neg = pos = grows = turns = False   # a - (+) can come before a + (-)
        for v in g:
            grows = grows or neg and v >= -e
            turns = turns or pos and v <= e
            neg = neg or v <= e
            pos = pos or v >= -e
        if not grows:
            continue
        m = 0.5 * (a + b)
        if turns and a < m < b:
            if max(map(abs, g)) > e:
                left, right = _halves(g)
                work += (m, b, right, e, piece), (a, m, left, e, piece)
                continue
            if not piece:   # flat to its rounding: take g again, from p
                w, (qx, qy, tx, ty, _, _), (rx, ry, sx, sy, _, _) = (
                    b - a, at(a), at(b))
                _, rows, scale, big = _quintic((
                    (qx, qy), (qx + w * tx, qy + w * ty),
                    (rx - w * sx, ry - w * sy), (rx, ry)))
                work.append((a, b, [r[0] for r in rows], scale * big, True))
                continue
        found += [a] * (g[0] >= 0.0) + [b] * (g[5] <= 0.0)
        if g[0] < 0.0 < g[5] and (turns or d < 0.0 or not a <= t <= b):
            lo, hi, v = a, b, a + (b - a) * g[0] / (g[0] - g[5])
            for _ in range(64):   # Newton's method in the bracket [lo, hi]
                u = v
                qx, qy, tx, ty, sx, sy = at(u)
                slope = qx * tx + qy * ty
                lo, hi = (u, hi) if slope < 0.0 else (lo, u)
                h = 3.0 * (tx * tx + ty * ty) + 2.0 * (qx * sx + qy * sy)
                v = u - slope / h if h > 0.0 else -1.0
                if not lo <= v <= hi:
                    v = 0.5 * (lo + hi)
                elif -_STEP < v - u < _STEP:
                    break
            found.append(v)
    return min((math.dist(evaluate(c, u), (px, py)), u) for u in found)


def curve_distances(pts: list[Point2], c: CubicBezier) -> list[float]:
    """Distance of every point in pts to the curve c, as the report takes it:
    _certified's measure over the run in one pass, the first point started
    at u = 0 and each next one a Newton step on from the previous point's
    last evaluation.  Each distance is certified by the curve's radius D*,
    or found by the sign search, so it is within _GAP of the minimum, up to
    rounding.  A coordinate not finite or not below 1e153 in size is a
    DomainError, which _certified raises.
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
    past its bound's parameter.  The measure, certified or searched, is at
    most the minimum plus _GAP, and the minimum at most the bound, each
    rounded within a few ulps of the largest coordinate in play (the bound
    plus the largest control one at most).  The pad, 1e-9 of the bound
    plus 1e-13 of that control coordinate plus 1e-12 px plus _GAP, covers
    both, so the first point whose padded bound is below the best ends the
    search.  A distance within that rounding of 0 counts as 0: points the
    curve passes through tie.
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
    measure.  A point's start depends only on the points before it, and
    its distance only on the curve, the point and that start (the sign
    search's coefficients are the same whichever point builds them), so
    each gets the distance curve_distances gives it over the segment's
    whole run, end point included, in any process.  _certified refuses an
    out-of-range curve before its run, and an out-of-range point as it
    reaches it.
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
