"""Deliberately naive re-implementations of the corner rule and the tracer.

Used purely as cross-check oracles for the production corner detector and
boundary tracer: same definitions, typed independently, no shared code.
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
