"""Deliberately naive re-implementations of the corner rule, the tracer,
the point-to-curve distance and the one-segment fit.

Used purely as cross-check oracles for the production corner detector,
boundary tracer, curve distances and candidate fit: same definitions, typed
independently, no shared code.
"""

from __future__ import annotations

import bisect
import math


def _line_distance(pj, pi, pk):
    mx = pk[0] - pi[0]
    if mx == 0.0:
        return abs(pj[0] - pi[0])
    m = (pk[1] - pi[1]) / mx
    return abs(pj[1] - m * pj[0] + m * pi[0] - pi[1]) / math.sqrt(m * m + 1.0)


def reference_corners(points, support, threshold, reach):
    """Corner indices and strengths of one closed loop of (x, y) pairs."""
    n = len(points)
    assigned = {}
    for i in range(n):
        pi = points[i]
        pk = points[(i + support) % n]
        dmax = 0.0
        arg = []
        for off in range(1, support):
            j = (i + off) % n
            d = _line_distance(points[j], pi, pk)
            if d > dmax:
                dmax = d
                arg = [j]
            elif d == dmax:
                arg.append(j)
        if dmax > threshold:
            for j in arg:
                if assigned.get(j, 0.0) < dmax:
                    assigned[j] = dmax
    corners = []
    for j, dj in assigned.items():
        keep = True
        for q, dq in assigned.items():
            if q == j:
                continue
            gap = (q - j) % n
            if min(gap, n - gap) > reach:
                continue
            if dq > dj or (dq == dj and q < j):
                keep = False
                break
        if keep:
            corners.append(j)
    corners.sort()
    return corners, [assigned[j] for j in corners]


# Moore ring in clockwise screen order (y grows downward), east first.
_RING = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))
_CROSS = ((0, -1), (-1, 0), (1, 0), (0, 1))


def _components(on, width, height, value, steps):
    """Row-major first cells of the components of cells with on() == value,
    plus the component number of every such cell."""
    comp = {}
    firsts = []
    for y in range(height):
        for x in range(width):
            if on(x, y) != value or (x, y) in comp:
                continue
            k = len(firsts)
            firsts.append((x, y))
            comp[(x, y)] = k
            stack = [(x, y)]
            while stack:
                px, py = stack.pop()
                for dx, dy in steps:
                    q = (px + dx, py + dy)
                    if (0 <= q[0] < width and 0 <= q[1] < height
                            and q not in comp and on(*q) == value):
                        comp[q] = k
                        stack.append(q)
    return firsts, comp


def _follow(on, start, back):
    """Moore tracing from start; stops when start is re-entered from back."""
    loop = [start]
    seen = set()
    cur, prev = start, back
    while True:
        i = _RING.index((prev[0] - cur[0], prev[1] - cur[1]))
        found = None
        for s in range(1, 9):
            dx, dy = _RING[(i + s) % 8]
            cand = (cur[0] + dx, cur[1] + dy)
            if on(*cand):
                found = cand
                break
            prev = cand
        if found is None:
            return loop
        state = (found, prev)
        if state == (start, back) or state in seen:
            return loop
        seen.add(state)
        loop.append(found)
        cur = found


def reference_trace(width, height, bits):
    """Traced loops of a row-major 0/1 raster as lists of (x, y) pairs.

    Two full floods (object 8-connected, background 4-connected) give one
    outer loop per object component and one hole loop per background
    component that does not touch the image edge.  Invalid loops are left
    out; outer loops turn to positive shoelace area, holes to negative; the
    result is sorted by topmost-leftmost pixel, outer before hole.
    """
    def on(x, y):
        return 0 <= x < width and 0 <= y < height and bool(bits[y * width + x])

    obj_firsts, _ = _components(on, width, height, True, _RING)
    bg_firsts, bg_comp = _components(on, width, height, False, _CROSS)
    edge = {bg_comp[(x, y)] for (x, y) in bg_comp
            if x in (0, width - 1) or y in (0, height - 1)}

    raw = [(_follow(on, (x, y), (x - 1, y)), 0) for x, y in obj_firsts]
    raw += [(_follow(on, (x, y - 1), (x, y)), 1)
            for k, (x, y) in enumerate(bg_firsts) if k not in edge]

    keyed = []
    for seq, (loop, hole) in enumerate(raw):
        n = len(loop)
        if n < 4 or len(set(loop)) != n:
            continue
        if any(max(abs(loop[i][0] - loop[(i + 1) % n][0]),
                   abs(loop[i][1] - loop[(i + 1) % n][1])) != 1
               for i in range(n)):
            continue
        area = sum(loop[i][0] * loop[(i + 1) % n][1]
                   - loop[(i + 1) % n][0] * loop[i][1] for i in range(n))
        if (area < 0) != bool(hole):
            loop = [loop[0]] + loop[:0:-1]
        top = min(y for _, y in loop)
        left = min(x for x, y in loop if y == top)
        keyed.append(((top, left, hole, seq), loop))
    keyed.sort(key=lambda item: item[0])
    return [loop for _, loop in keyed]


def reference_distance(p, c):
    """Minimum distance from p to the cubic c by a scan with a bound.

    B'' is 6 times a convex combination of P0 - 2 P1 + P2 and P1 - 2 P2 + P3,
    so |B''| <= m, six times the longer of the two, and over a parameter
    interval of width w the arc leaves the chord between its end points by
    at most s = m w^2 / 8.  So no point of the arc is closer to p than the
    chord less s, and the curve point at the parameter of p's foot on the
    chord is no farther than the chord plus s.  The scan starts from 64
    uniform intervals; every interval whose bound is below the smallest
    distance seen is cut in 8 and scanned again, until s is below 1e-11 px
    plus 1e-15 of that distance, or w reaches 1e-15.  The result, the
    smallest distance seen, is at most 2 s above the minimum; NaN where a
    coordinate is not finite.
    """
    px, py = p
    if not math.isfinite(px + py + sum(v for q in c for v in q)):
        return math.nan
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = c
    m = 6.0 * max(math.hypot(x0 - 2.0 * x1 + x2, y0 - 2.0 * y1 + y2),
                  math.hypot(x1 - 2.0 * x2 + x3, y1 - 2.0 * y2 + y3))

    def at(u):
        b0, b1, b2, b3 = _weights(u)
        return (b0 * x0 + b1 * x1 + b2 * x2 + b3 * x3,
                b0 * y0 + b1 * y1 + b2 * y2 + b3 * y3)

    best = math.inf
    work = [(0.0, 1.0, 64)]
    while work:
        a, b, n = work.pop()
        w = (b - a) / n
        us = [a + w * i for i in range(n)] + [b]
        qs = [at(u) for u in us]
        best = min(best, *(math.hypot(x - px, y - py) for x, y in qs))
        sag = m * w * w / 8.0
        for i in range(n):
            (ax, ay), (bx, by) = qs[i], qs[i + 1]
            cx, cy = bx - ax, by - ay
            cc = cx * cx + cy * cy
            t = ((px - ax) * cx + (py - ay) * cy) / cc if cc > 0.0 else 0.0
            t = min(1.0, max(0.0, t))
            if math.hypot(ax + t * cx - px, ay + t * cy - py) - sag >= best:
                continue
            x, y = at(us[i] + t * w)
            best = min(best, math.hypot(x - px, y - py))
            if sag > 1e-11 + 1e-15 * best and w > 1e-15:
                work.append((us[i], us[i + 1], 8))
    return best


def reference_curve_distances(pts, c):
    """reference_distance of every (x, y) in pts to the cubic c."""
    return [reference_distance(p, c) for p in pts]


def reference_split_point(pts, c, min_segment_points):
    """Split index of a run by a full distance pass: the first interior
    point with the largest distance (a NaN first distance is kept, later
    NaNs are passed over), clamped so both halves keep min_segment_points
    points; None when the run is shorter than twice that."""
    if len(pts) < 2 * min_segment_points:
        return None
    dists = reference_curve_distances(pts, c)
    best_i = 1
    best = dists[1]
    for i in range(2, len(pts) - 1):
        if dists[i] > best:
            best = dists[i]
            best_i = i
    return min(max(best_i, min_segment_points - 1),
               len(pts) - min_segment_points)


def _weights(u):
    """The four cubic Bernstein weights at u, in the production order."""
    v = 1.0 - u
    vv = v * v
    uu = u * u
    return v * vv, 3.0 * u * vv, 3.0 * uu * v, u * uu


def _reference_params(pts):
    """Chord-projection parameters of a run, jitter repaired, or the
    normalized arc length when the run hooks back by over 2 px."""
    (ax, ay), (bx, by) = pts[0], pts[-1]
    dx, dy = bx - ax, by - ay
    d2 = dx * dx + dy * dy
    if d2 == 0.0:
        raise ValueError("chord endpoints coincide")
    ts = [((x - ax) * dx + (y - ay) * dy) / d2 for x, y in pts]
    ts[0] = 0.0
    ts[-1] = 1.0
    running = 0.0
    excursion = 0.0
    for t in ts[1:]:
        running = max(running, t)
        excursion = max(excursion, running - t)
    if excursion * math.hypot(dx, dy) <= 2.0:
        for i in range(1, len(ts) - 1):
            if ts[i] <= ts[i - 1]:
                ts[i] = ts[i - 1] + 1e-12
        for i in range(len(ts) - 2, 0, -1):
            if ts[i] >= ts[i + 1]:
                ts[i] = ts[i + 1] - 1e-12
        if all(t0 < t1 for t0, t1 in zip(ts, ts[1:])):
            return ts
    lengths = [0.0]
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        step = math.hypot(x1 - x0, y1 - y0)
        if step == 0.0:
            raise ValueError("duplicate consecutive points")
        lengths.append(lengths[-1] + step)
    ts = [s / lengths[-1] for s in lengths]
    ts[-1] = 1.0
    return ts


def _reference_stats(cands):
    """fsum means of both control points and the largest distance of each
    from its mean."""
    n = len(cands)
    m1 = (math.fsum(c[1][0] for c in cands) / n,
          math.fsum(c[1][1] for c in cands) / n)
    m2 = (math.fsum(c[2][0] for c in cands) / n,
          math.fsum(c[2][1] for c in cands) / n)
    r1 = max(math.hypot(c[1][0] - m1[0], c[1][1] - m1[1]) for c in cands)
    r2 = max(math.hypot(c[2][0] - m2[0], c[2][1] - m2[1]) for c in cands)
    return m1, m2, r1, r2


def reference_fit_segment(pts, removal_rate=0.05, removal_iters=2,
                          eps_t=1e-3, min_segment_points=8):
    """The cubic fitted to a run of (x, y) pairs, with its pruned candidates.

    Returns (curve, candidates, mean1, mean2, radius1, radius2): the curve
    as four (x, y) pairs, each candidate as (t, (x1, y1), (x2, y2)).  A run
    shorter than min_segment_points, or one with no candidate, gets the
    chord thirds and an empty spread.  Each sample with eps_t < t <
    0.5 - eps_t (and not within eps_t of 0.5) is paired with the polyline
    at 1 - t, found by bisection, and the two interior control points are
    solved from fresh Bernstein weights; a solve denominator below 1e-9
    rejects the sample.  Each pruning round drops the
    ceil(removal_rate * n) highest squared joint distances from the means,
    sorted by (-score, index), keeps at least one candidate, and
    recomputes every statistic.
    """
    p0, p3 = pts[0], pts[-1]
    cands = []
    if len(pts) >= min_segment_points:
        ts = _reference_params(pts)
        for i in range(1, len(pts) - 1):
            t = ts[i]
            if not eps_t < t < 0.5 - eps_t or abs(t - 0.5) < eps_t:
                continue
            u = 1.0 - t
            k = bisect.bisect_right(ts, u) - 1
            if k >= len(ts) - 1:
                mirror = pts[-1]
            else:
                w = (u - ts[k]) / (ts[k + 1] - ts[k])
                mirror = (pts[k][0] + w * (pts[k + 1][0] - pts[k][0]),
                          pts[k][1] + w * (pts[k + 1][1] - pts[k][1]))
            bt = _weights(t)
            bm = _weights(1.0 - t)
            den = bt[1] * bt[1] - bt[2] * bt[2]
            if abs(den) < 1e-9:
                continue
            c1 = [pts[i][j] - p0[j] * bt[0] - p3[j] * bt[3] for j in (0, 1)]
            c2 = [mirror[j] - p0[j] * bm[0] - p3[j] * bm[3] for j in (0, 1)]
            cands.append((t,
                          tuple((c1[j] * bt[1] - c2[j] * bt[2]) / den
                                for j in (0, 1)),
                          tuple((c2[j] * bt[1] - c1[j] * bt[2]) / den
                                for j in (0, 1))))
    if not cands:
        dx, dy = p3[0] - p0[0], p3[1] - p0[1]
        return ((p0, (p0[0] + dx / 3.0, p0[1] + dy / 3.0),
                 (p0[0] + 2.0 * dx / 3.0, p0[1] + 2.0 * dy / 3.0), p3),
                [], (0.0, 0.0), (0.0, 0.0), 0.0, 0.0)
    m1, m2, r1, r2 = _reference_stats(cands)
    for _ in range(removal_iters):
        k = min(math.ceil(removal_rate * len(cands)), len(cands) - 1)
        if k <= 0:
            break
        scores = [(c[1][0] - m1[0]) ** 2 + (c[1][1] - m1[1]) ** 2
                  + (c[2][0] - m2[0]) ** 2 + (c[2][1] - m2[1]) ** 2
                  for c in cands]
        order = sorted(range(len(cands)), key=lambda i: (-scores[i], i))
        drop = set(order[:k])
        cands = [c for i, c in enumerate(cands) if i not in drop]
        m1, m2, r1, r2 = _reference_stats(cands)
    return (p0, m1, m2, p3), cands, m1, m2, r1, r2
