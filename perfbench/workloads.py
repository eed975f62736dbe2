"""Seeded inputs for the benchmark workloads.

A workload turns a seed into a small pool of input files; the program under
test receives only those files.  The shapes come from ``tests/helpers.py``,
so the benchmark draws the same geometry the test suite does.  The same seed
always gives byte-identical inputs, whatever version of the program runs.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable


@dataclass
class Workload:
    name: str
    why: str    # why the workload exists: the layers it stresses or bypasses
    kind: str   # "pbm": the CLI runs trace, then fit; "contours": fit only
    docs: int   # documents in the pool one run cycles through
    build: Callable  # build(rng, helpers, path) writes one input file


def _write(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def _blit(bits: bytearray, width: int, shape, x0: int, y0: int) -> None:
    """Copy a shape's raster into a larger one; placements never overlap."""
    for y in range(shape.height):
        row = (y0 + y) * width + x0
        bits[row:row + shape.width] = shape.bits[y * shape.width:
                                                 (y + 1) * shape.width]


def _pbm(h, width: int, height: int, bits: bytearray) -> bytes:
    return h.pbm_raw_bytes(h.RasterImage(width, height, bits))


# ------------------------------- star_page -----------------------------------

PAGE_CELL = 170
PAGE_GRID = 6


def build_star_page(rng, h, path: str) -> None:
    """A 1020x1020 page holding a 6x6 grid of random star polygons.

    The first page of seed 1 is the page the roadmap measures: 35 loops and
    8887 points once the one pinched star is dropped.
    """
    size = PAGE_CELL * PAGE_GRID
    bits = bytearray(size * size)
    for gy in range(PAGE_GRID):
        for gx in range(PAGE_GRID):
            star = h.rasterize_polygon(h.star_polygon(rng), PAGE_CELL, PAGE_CELL)
            _blit(bits, size, star, gx * PAGE_CELL, gy * PAGE_CELL)
    _write(path, _pbm(h, size, size, bits))


# ----------------------------- sparse_canvas ---------------------------------

CANVAS_W, CANVAS_H = 2040, 1530
CANVAS_CELL = 510
SMALL_STAR = 85


def _ring(h, rng):
    """Disk with a concentric round hole: one outer loop and one hole loop."""
    r_out = rng.randint(26, 34)
    r_in = rng.randint(12, r_out - 10)
    outer = h.circle_image(r_out, pad=8)
    inner = h.circle_image(r_in, pad=8 + r_out - r_in)
    for i, bit in enumerate(inner.bits):
        if bit:
            outer.bits[i] = 0
    return outer


def build_sparse_canvas(rng, h, path: str) -> None:
    """A 2040x1530 canvas (3.1 Mpx) with twelve small shapes in 510px cells.

    Ten half-size stars, a ring (a shape with a hole) and the test
    suite's rectangle with a 3x3 hole, whose hole loop is too short to fit.
    Many small loops keep the accuracy figures steady while fit stays a
    small share of the time.
    """
    bits = bytearray(CANVAS_W * CANVAS_H)
    shapes = [h.rasterize_polygon(
        h.star_polygon(rng, cx=SMALL_STAR / 2, cy=SMALL_STAR / 2,
                       rmin=14.0, rmax=30.0), SMALL_STAR, SMALL_STAR)
        for _ in range(10)]
    shapes += [_ring(h, rng), h.rect_with_hole_image()]
    cells = [(cx, cy) for cy in range(CANVAS_H // CANVAS_CELL)
             for cx in range(CANVAS_W // CANVAS_CELL)]
    rng.shuffle(cells)
    for shape, (cx, cy) in zip(shapes, cells):
        x0 = cx * CANVAS_CELL + rng.randint(1, CANVAS_CELL - shape.width - 1)
        y0 = cy * CANVAS_CELL + rng.randint(1, CANVAS_CELL - shape.height - 1)
        _blit(bits, CANVAS_W, shape, x0, y0)
    _write(path, _pbm(h, CANVAS_W, CANVAS_H, bits))


# ------------------------------- long_loops ----------------------------------


def _densify(vertices, step: float = 0.25):
    """Closed polyline through vertices with consecutive points <= step apart."""
    out = []
    k = len(vertices)
    for i in range(k):
        (ax, ay), (bx, by) = vertices[i], vertices[(i + 1) % k]
        n = max(1, math.ceil(math.hypot(bx - ax, by - ay) / step))
        for j in range(n):
            out.append((ax + (bx - ax) * j / n, ay + (by - ay) * j / n))
    return out


def _pixel_loop(vertices):
    """Round a closed polyline to a loop the contour format accepts.

    Consecutive pixels are 8-neighbours and no pixel repeats: a return to a
    recent pixel cuts out the excursion in between, and a return to a pixel
    near the start closes the loop there.
    """
    loop: list[tuple[int, int]] = []
    where: dict[tuple[int, int], int] = {}
    for x, y in _densify(vertices):
        q = (round(x), round(y))
        i = where.get(q)
        if i is None:
            where[q] = len(loop)
            loop.append(q)
        elif 2 * i < len(loop) - 1:
            del loop[:i]
            break
        else:
            for p in loop[i + 1:]:
                del where[p]
            del loop[i + 1:]
    n = len(loop)
    for i in range(n):
        (ax, ay), (bx, by) = loop[i], loop[(i + 1) % n]
        if max(abs(ax - bx), abs(ay - by)) != 1:
            raise ValueError(f"generated loop breaks at {loop[i]}")
    return loop


def _ellipse(rng, cx, cy, a, b):
    rot = rng.uniform(0.0, math.pi)
    c, s = math.cos(rot), math.sin(rot)
    verts = []
    for i in range(720):
        ang = 2.0 * math.pi * i / 720
        x, y = a * math.cos(ang), b * math.sin(ang)
        verts.append((cx + c * x - s * y, cy + s * x + c * y))
    return verts


def _lens(rng, h, cx, cy, half_chord):
    """Two chord-aligned cubics meeting at two corners (a wide lens)."""
    a = h.Point2(cx - half_chord, cy)
    b = h.Point2(cx + half_chord, cy)
    upper = h.chord_aligned_cubic(a, b, rng.uniform(45.0, 55.0),
                                  rng.uniform(45.0, 55.0))
    lower = h.chord_aligned_cubic(b, a, rng.uniform(45.0, 55.0),
                                  rng.uniform(45.0, 55.0))
    return [(p.x, p.y) for p in
            h.closed_two_cubic_contour(upper, lower, 400).points]


def _square_wave(x0, y0, teeth):
    """Band whose top and bottom edges are square waves.

    Every tooth puts corner candidates a few points apart, so the number of
    candidates grows with the loop length.
    """
    width = depth = 6
    height = 40
    top = []
    for t in range(teeth):
        x = x0 + 2 * width * t
        top += [(x, y0), (x + width, y0), (x + width, y0 - depth),
                (x + 2 * width, y0 - depth)]
    # the bottom edge is the top turned half a turn about the band's centre
    sx, sy = 2 * x0 + 2 * width * teeth, 2 * y0 + height
    return top + [(sx - x, sy - y) for x, y in top]


LONG_SIZE = 900


def build_long_loops(rng, h, path: str) -> None:
    """A contour document with long smooth loops and one jagged loop.

    Two ellipses of different sizes (no corners: only synthetic breaks, so
    each half is one long segment), a lens of two long cubic arcs, and a
    square-wave loop whose corner candidates are a few points apart.
    """
    loops = [
        _ellipse(rng, 230, 230, rng.uniform(165.0, 170.0),
                 rng.uniform(110.0, 115.0)),
        _ellipse(rng, 670, 230, rng.uniform(82.0, 85.0),
                 rng.uniform(55.0, 58.0)),
        _lens(rng, h, 450, 560, rng.uniform(200.0, 205.0)),
        _square_wave(rng.randint(100, 150), rng.randint(740, 780), 8),
    ]
    payload = {"width": LONG_SIZE, "height": LONG_SIZE, "contours": [
        {"closed": True, "points": [list(p) for p in _pixel_loop(v)]}
        for v in loops]}
    _write(path, json.dumps(payload, sort_keys=True,
                            separators=(",", ":")).encode() + b"\n")


# ------------------------------- registry ------------------------------------

WORKLOADS = {w.name: w for w in (
    Workload(
        "star_page",
        "a 1 Mpx page of 36 similar stars: trace and metrics take most of "
        "the time, fit the rest; where a pool over loops can show; the pinch "
        "drop shows here",
        "pbm", 3, build_star_page),
    Workload(
        "sparse_canvas",
        "megapixels of background around small shapes: load and trace scale "
        "with area and are over 90% of the time; sets the tracer's peak RSS",
        "pbm", 5, build_sparse_canvas),
    Workload(
        "long_loops",
        "contour JSON input skips load and trace; on long segments split "
        "distances and metrics, which grow with length squared, dominate",
        "contours", 4, build_long_loops),
)}


def generate(workload: Workload, rng, helpers, directory: str) -> list[str]:
    """Write the workload's pool of inputs and return their paths."""
    suffix = ".pbm" if workload.kind == "pbm" else ".contours.json"
    paths = []
    for i in range(workload.docs):
        path = os.path.join(directory, f"doc{i}{suffix}")
        workload.build(rng, helpers, path)
        paths.append(path)
    return paths
