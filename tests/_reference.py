"""Deliberately naive re-implementations of the corner rule, the tracer
and the point-to-curve distance.

Used purely as cross-check oracles for the production corner detector,
boundary tracer and curve distances: same definitions, typed independently,
no shared code.
"""

from __future__ import annotations

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


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _cubic_d2(c, p, u):
    """Squared distance from p to the cubic c (four (x, y) pairs) at u,
    with the Bernstein weights and sums in the production evaluation order."""
    v = 1.0 - u
    vv = v * v
    uu = u * u
    b0, b1, b2, b3 = v * vv, 3.0 * u * vv, 3.0 * uu * v, u * uu
    qx = b0 * c[0][0] + b1 * c[1][0] + b2 * c[2][0] + b3 * c[3][0]
    qy = b0 * c[0][1] + b1 * c[1][1] + b2 * c[2][1] + b3 * c[3][1]
    return (qx - p[0]) ** 2 + (qy - p[1]) ** 2


def reference_curve_distances(pts, c, samples=None):
    """Distance of every (x, y) in pts to the cubic c by a full grid scan.

    Every point scans all n + 1 uniform samples (n = max(256, 4 * len(pts))
    unless given), keeps the first with the smallest squared distance, and
    refines it by a 60-step golden section over the neighbouring intervals.
    """
    n = max(256, 4 * len(pts)) if samples is None else max(1, samples)
    xs = []
    ys = []
    for i in range(n + 1):
        u = i / n
        v = 1.0 - u
        b0 = v * v * v
        b1 = 3.0 * u * v * v
        b2 = 3.0 * u * u * v
        b3 = u * u * u
        xs.append(b0 * c[0][0] + b1 * c[1][0] + b2 * c[2][0] + b3 * c[3][0])
        ys.append(b0 * c[0][1] + b1 * c[1][1] + b2 * c[2][1] + b3 * c[3][1])
    out = []
    for p in pts:
        best_i = 0
        best = (xs[0] - p[0]) ** 2 + (ys[0] - p[1]) ** 2
        for i in range(1, n + 1):
            d2 = (xs[i] - p[0]) ** 2 + (ys[i] - p[1]) ** 2
            if d2 < best:
                best = d2
                best_i = i
        a = (best_i - 1) / n if best_i > 0 else 0.0
        b = (best_i + 1) / n if best_i < n else 1.0
        x1 = b - _INV_GOLDEN * (b - a)
        x2 = a + _INV_GOLDEN * (b - a)
        f1 = _cubic_d2(c, p, x1)
        f2 = _cubic_d2(c, p, x2)
        best = min(best, f1, f2)
        for _ in range(60):
            if b - a < 1e-12:
                break
            if f1 <= f2:
                b, x2, f2 = x2, x1, f1
                x1 = b - _INV_GOLDEN * (b - a)
                f1 = _cubic_d2(c, p, x1)
            else:
                a, x1, f1 = x1, x2, f2
                x2 = a + _INV_GOLDEN * (b - a)
                f2 = _cubic_d2(c, p, x2)
            best = min(best, f1, f2)
        out.append(math.sqrt(best))
    return out


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
