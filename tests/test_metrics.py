import inspect
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import beziertrace.metrics as metrics
from beziertrace.bezier_core import CubicBezier, Point2, evaluate
from beziertrace.contour import Contour, trace_boundaries
from beziertrace.corner_detect import range_points
from beziertrace.errors import ConsistencyError, DomainError
from beziertrace.metrics import (compression_ratio, curve_distances, farthest,
                                 fit_report, point_deviation, spline_errors)
from beziertrace.segment_fit import FitConfig, chord_fit, fit_segment
from beziertrace.subdivision import (FLAG_DEPTH_CAPPED, FLAG_FALLBACK,
                                     FittedSegment, Spline, fit_outline,
                                     fit_recursive, split_point)

from _reference import reference_curve_distances, reference_distance
from helpers import (chord_aligned_cubic, filled_rect_image, rasterize_polygon,
                     star_polygon, uniform_samples)


def _random_curve(rng, span=100.0):
    return CubicBezier(*[Point2(rng.uniform(-span, span), rng.uniform(-span, span))
                         for _ in range(4)])


def _brute_force_distance(p, c, samples=100_000):
    best = math.inf
    for i in range(samples + 1):
        q = evaluate(c, i / samples)
        d = (q.x - p.x) ** 2 + (q.y - p.y) ** 2
        if d < best:
            best = d
    return math.sqrt(best)


def test_point_on_curve_is_zero():
    rng = random.Random(8)
    c = _random_curve(rng)
    for u in (0.0, 0.17, 0.5, 0.93, 1.0):
        assert point_deviation(evaluate(c, u), c) <= 1e-4


def test_point_deviation_straight_chord():
    c = chord_fit(Point2(0, 0), Point2(10, 0))
    assert point_deviation(Point2(5, 2), c) == pytest.approx(2.0, abs=1e-3)


def test_point_deviation_matches_brute_force():
    rng = random.Random(12)
    for _ in range(15):
        c = _random_curve(rng, span=60.0)
        p = Point2(rng.uniform(-80, 80), rng.uniform(-80, 80))
        assert point_deviation(p, c) == pytest.approx(
            _brute_force_distance(p, c, samples=20_000), abs=1e-3)


def test_distance_to_a_steep_cubic_is_its_minimum():
    # the nearest of 256 uniform samples lies outside the true minimum's
    # basin, so a sample grid refined near it reads 2.51 px for this point
    c = CubicBezier(Point2(0, 0), Point2(0.6148, -925.61),
                    Point2(2.3242, -993.02), Point2(3, 0))
    p = Point2(0.24400, -277.74395)
    assert curve_distances([p], c)[0] <= 1e-5
    assert point_deviation(p, c) <= 1e-5


def test_split_search_reads_a_steep_cubic_at_its_minimum():
    # a 256-sample grid reads 2.51 px for this point, and 2.29 px for the
    # worst point of the run below, whose fit is within 0.21 px of it
    c = CubicBezier(Point2(0, 0), Point2(0.6148, -925.61),
                    Point2(2.3242, -993.02), Point2(3, 0))
    assert farthest([Point2(0.24400, -277.74395)], c, 0, 1)[1] <= 1e-5
    run = uniform_samples(c, 8)
    cfg = FitConfig(min_segment_points=4, max_error=0.5)
    (piece,) = fit_recursive(run, cfg)
    assert max(_brute_force_distance(p, piece.curve, samples=20_000)
               for p in run) < 0.21


_STEEP = CubicBezier(Point2(0, 0), Point2(0.6148, -925.61),
                     Point2(2.3242, -993.02), Point2(3, 0))


def _distance_tolerance(c, pts):
    """The largest gap allowed between a distance and the oracle's minimum:
    the search's 1e-9 px, plus 1e-13 of the largest coordinate for
    rounding."""
    return 1e-9 + 1e-13 * max(abs(v) for p in (*c, *pts) for v in p)


@st.composite
def _distance_cases(draw):
    """(curve, points): a random cubic; one whose control polygon turns back
    along its chord (lip <= 0); one with coincident ends; or a steep one,
    whose handles reach up to 100 chord lengths sideways.  Up to 12 points
    on it, near it or up to 50 px off it."""
    xy = st.floats(-300, 300)
    a, b = Point2(draw(xy), draw(xy)), Point2(draw(xy), draw(xy))
    kind = draw(st.sampled_from(("random", "turns-back", "coincident",
                                 "steep")))
    if kind in ("random", "coincident"):
        c = CubicBezier(a, Point2(draw(xy), draw(xy)),
                        Point2(draw(xy), draw(xy)), a if kind == "coincident"
                        else b)
    elif kind == "turns-back":
        s1, s2 = sorted((draw(st.floats(0.01, 0.99)),
                         draw(st.floats(0.01, 0.99))))
        c = _monotone_cubic(a, b, s2 + 0.5, s1 - 0.5, draw(st.floats(-1, 1)),
                            draw(st.floats(-1, 1)))
    else:
        k = draw(st.floats(0.001, 0.05))
        b = Point2(a.x + k * (b.x - a.x), a.y + k * (b.y - a.y))
        c = _monotone_cubic(a, b, draw(st.floats(0, 1)), draw(st.floats(0, 1)),
                            draw(st.floats(-100, 100)),
                            draw(st.floats(-100, 100)))
    pts = []
    for _ in range(draw(st.integers(1, 12))):
        q = evaluate(c, draw(st.floats(0, 1)))
        off = draw(st.sampled_from((0.0, 0.5, 5.0, 50.0)))
        pts.append(Point2(q.x + draw(st.floats(-off, off)),
                          q.y + draw(st.floats(-off, off))))
    return c, pts


_BOW = CubicBezier(Point2(0, 0), Point2(30, 10), Point2(70, 10),
                   Point2(100, 0))


@given(_distance_cases())
@example((_STEEP, [Point2(0.24400, -277.74395)]))
# the last Newton step, 2.7e-10 here, is below the 1e-8 stop but not 1e-12
@example((_BOW, [Point2(90.5, 4.2)]))
# the second point's carried start falls to u = -0.18 or u = 1.31 and is
# clamped to the curve's end
@example((_BOW, [Point2(50, 5), Point2(-20, 3)]))
@example((_BOW, [Point2(50, 5), Point2(130, -4)]))
def test_distances_are_the_oracle_minimum(case):
    # the report's distance and the split search's are each within the
    # tolerance of the minimum, above it or below it, and the split search
    # keeps a point whose minimum is within twice that of the largest
    c, pts = case
    tol = _distance_tolerance(c, pts)
    want = reference_curve_distances(pts, c)
    assert all(abs(d - w) <= tol for d, w in
               zip(curve_distances(pts, c), want, strict=True))
    for j, w in enumerate(want):
        assert abs(farthest(pts, c, j, j + 1)[1] - w) <= tol
    i, d = farthest(pts, c, 0, len(pts))
    assert abs(d - max(want)) <= tol and want[i] >= max(want) - 2 * tol


@pytest.mark.parametrize("m", [12, 40])
def test_steep_fits_read_their_minimum_in_report_and_split_search(m):
    # a fit of m samples of the steep cubic: started on the curve's other
    # branch, about 2 px away, the report read 1.47 px at m = 12 and the
    # split search 2.34 px at m = 40, above minima of at most 0.17 px
    run = uniform_samples(_STEEP, m)
    fit = fit_segment(run, FitConfig())[0]
    want = [reference_distance(p, fit) for p in run]
    for d, w in zip(curve_distances(run, fit), want, strict=True):
        assert abs(d - w) <= 1e-5
    i, d = farthest(run, fit, 1, m - 1)
    assert abs(d - max(want[1:-1])) <= 1e-5
    assert want[i] >= max(want[1:-1]) - 1e-5


def test_point_deviation_lipschitz():
    rng = random.Random(21)
    c = _random_curve(rng, span=50.0)
    for _ in range(50):
        p = Point2(rng.uniform(-60, 60), rng.uniform(-60, 60))
        q = Point2(p.x + rng.uniform(-5, 5), p.y + rng.uniform(-5, 5))
        dp = point_deviation(p, c)
        dq = point_deviation(q, c)
        assert abs(dp - dq) <= math.hypot(p.x - q.x, p.y - q.y) + 1e-6


def _two_cubic_spline():
    upper = chord_aligned_cubic(Point2(0, 0), Point2(160, 0), 50.0, 50.0)
    lower = chord_aligned_cubic(Point2(160, 0), Point2(0, 0), 50.0, 50.0)
    n = 60
    pts = uniform_samples(upper, n) + uniform_samples(lower, n)[1:-1]
    contour = Contour(list(pts))
    spline = Spline([
        FittedSegment(upper, (0, n - 1), ["corner"]),
        FittedSegment(lower, (n - 1, 0), ["corner"]),
    ])
    return contour, spline


def _oracle_cases():
    """(curve, points) pairs: random cubics, a self-crossing loop, a cusp,
    four equal control points and a collinear cubic whose points sit
    exactly halfway between two of its points at u = i / 256."""
    rng = random.Random(21)
    curves = [_random_curve(rng) for _ in range(6)]
    curves += [
        CubicBezier(Point2(0, 0), Point2(100, 100), Point2(0, 100), Point2(100, 0)),
        CubicBezier(Point2(0, 0), Point2(60, 80), Point2(20, 80), Point2(40, 0)),
        CubicBezier(Point2(5, 7), Point2(5, 7), Point2(5, 7), Point2(5, 7)),
    ]
    cases = []
    for c in curves:
        for m in (1, 8, 33):
            pts = [evaluate(c, k / max(1, m - 1)) for k in range(m)]
            pts = [Point2(round(p.x + rng.uniform(-4, 4)),
                          round(p.y + rng.uniform(-4, 4))) for p in pts]
            cases.append((c, pts))
    # this cubic is x = 1536 u, so u = i / 256 falls on x = 6i exactly, and
    # each point below lies halfway between two of those
    line = CubicBezier(Point2(0, 0), Point2(512, 0), Point2(1024, 0),
                       Point2(1536, 0))
    cases.append((line, [Point2(6 * i + 3, 0) for i in range(100, 160)]))
    cases.append((line, [Point2(6 * i + 3, 2) for i in range(0, 255, 7)]))
    # near the range bound: squared distances reach ~1e306
    cases.append((_huge_curve(1 / 20), [Point2(7 + i, 6) for i in range(20)]
                  + [Point2(1.5e152, 1e152)]))
    return cases


def _huge_curve(scale=1.0):
    """A cubic whose controls reach 15e153 times scale."""
    e = 1e153 * scale
    return CubicBezier(Point2(12 * e, -3 * e), Point2(9 * e, 13 * e),
                       Point2(-2 * e, -14 * e), Point2(-7 * e, 15 * e))


def test_curve_distances_match_full_scan_oracle():
    rng = random.Random(5)
    for c, pts in _oracle_cases():
        shuffled = list(pts)
        rng.shuffle(shuffled)
        for order in (pts, pts[::-1], shuffled):
            got = [farthest(order, c, j, j + 1)[1] for j in range(len(order))]
            assert _near(got, reference_curve_distances(order, c)), c


def _near_full_pass(got, pts, c, lo, hi):
    """Whether got, farthest's (index, distance), is a largest distance in
    pts[lo:hi] by the full pass: its distance and its index's full-pass
    distance are both within _near of the largest."""
    dists = reference_curve_distances(pts, c)
    top = max(dists[lo:hi])
    i, d = got
    return lo <= i < hi and _near([d, dists[i]], [top, top])


def test_farthest_matches_full_pass():
    for c, pts in _oracle_cases():
        m = len(pts)
        for order in (pts, pts[::-1]):
            for lo, hi in {(0, m), (m // 3, max(m // 3 + 1, m - m // 3)),
                           (m - 1, m)}:
                assert _near_full_pass(farthest(order, c, lo, hi), order, c,
                                       lo, hi), (c, lo, hi)


@st.composite
def _farthest_cases(draw):
    """(points, curve, lo, hi): a random cubic with a run of rounded noisy
    samples along it, or of repeats of a few points, or a straight cubic
    whose points lie at x = 6i or halfway between, all at one offset from
    it, so that every distance ties; in order, reversed or shuffled."""
    controls = draw(st.lists(st.floats(-300, 300), min_size=8, max_size=8))
    c = CubicBezier(*[Point2(controls[k], controls[k + 1])
                      for k in range(0, 8, 2)])
    m = draw(st.integers(1, 120))
    rnd = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(("noisy", "repeated", "tied")))
    if kind == "noisy":
        noise = draw(st.integers(0, 12))
        pts = [Point2(round(p.x + rnd.randint(-noise, noise)),
                      round(p.y + rnd.randint(-noise, noise)))
               for p in uniform_samples(c, max(2, m))[:m]]
    elif kind == "repeated":
        pool = [Point2(rnd.randint(-300, 300), rnd.randint(-300, 300))
                for _ in range(draw(st.integers(1, 3)))]
        pts = [rnd.choice(pool) for _ in range(m)]
    else:
        # u = i / 256 on this line falls on x = 6i exactly
        c = CubicBezier(Point2(0, 0), Point2(512, 0), Point2(1024, 0),
                        Point2(1536, 0))
        y = draw(st.integers(0, 5))
        pts = [Point2(6 * i + 3 * rnd.randint(0, 1), y)
               for i in sorted(rnd.sample(range(256), min(m, 64)))]
    order = draw(st.sampled_from(("forward", "reversed", "shuffled")))
    if order == "reversed":
        pts.reverse()
    elif order == "shuffled":
        rnd.shuffle(pts)
    lo = draw(st.integers(0, len(pts) - 1))
    hi = draw(st.integers(lo + 1, len(pts)))
    return pts, c, lo, hi


@given(_farthest_cases())
def test_farthest_matches_full_pass_on_random_runs(case):
    assert _near_full_pass(farthest(*case), *case)
    # the split search measures a point as curve_distances does
    pts, c, _, _ = case
    for j, d in enumerate(curve_distances(pts, c)):
        g = farthest(pts, c, j, j + 1)[1]
        assert d <= g or _near([d], [g]), (j, d, g)


def test_farthest_sweeps_few_points_exactly(monkeypatch):
    # the closed-form fit of a noisy half circle turns back along its chord
    # (lip <= 0), so every point farthest measures takes the sign search:
    # its break must leave nearly all unmeasured
    rng = random.Random(8)
    pts = [Point2(150.0 - 150.0 * math.cos(math.pi * k / 499)
                  + rng.uniform(-2, 2),
                  -150.0 * math.sin(math.pi * k / 499) + rng.uniform(-2, 2))
           for k in range(500)]
    fit = fit_segment(pts, FitConfig())[0]
    got, searched = _sign_searched(
        monkeypatch, lambda: farthest(pts, fit, 1, len(pts) - 1))
    want, every = _sign_searched(
        monkeypatch, lambda: _unpruned_farthest(pts, fit, 1, len(pts) - 1))
    assert len(every) == len(pts) - 2  # no point is certified
    assert 0 < len(searched) <= 0.03 * len(pts)
    assert got == want


def _unpruned_farthest(pts, c, lo, hi):
    """farthest without its break: every point of pts[lo:hi] measured from
    its start in the bound pass, a distance within rounding of zero taken
    as zero, and the first largest distance kept."""
    measure = metrics._certified(c)
    floor = 1e-13 * max(abs(v) for p in c for v in p) + 1e-12
    bounds, starts, dists = [], [], []
    measure(pts[lo:hi], lo / len(pts), bounds, starts)
    for p, u in zip(pts[lo:hi], starts, strict=True):
        measure((p,), u, dists)
    dists = [d if d > floor else 0.0 for d in dists]
    i = max(range(len(dists)), key=dists.__getitem__)
    return lo + i, dists[i]


def _off_samples(c, n, picks, h):
    """The curve points at u = s / n for s in picks, each moved h px along
    c's normal there, so that the curve point is the point's nearest and
    its distance rounds h."""
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = c
    pts = []
    for s in picks:
        u, v = s / n, 1.0 - s / n
        x, y = evaluate(c, u)
        tx = v * v * (x1 - x0) + 2 * u * v * (x2 - x1) + u * u * (x3 - x2)
        ty = v * v * (y1 - y0) + 2 * u * v * (y2 - y1) + u * u * (y3 - y2)
        k = h / math.hypot(tx, ty) if tx or ty else 0.0
        pts.append(Point2(x - k * ty, y + k * tx))
    return pts


@st.composite
def _split_cases(draw):
    """(points, curve, lo, hi): a case of _farthest_cases; a noisy run along
    a cubic the bound cannot certify, with coincident ends or with a
    control polygon that turns back along its chord (lip <= 0); or curve
    points at uniform parameters of a cubic it can certify, all moved one
    distance of up to 3 px along the normal (_off_samples), so that every
    distance ties up to rounding; forward or reversed."""
    kind = draw(st.sampled_from(("farthest", "coincident", "turns-back",
                                 "off-samples")))
    if kind == "farthest":
        return draw(_farthest_cases())
    xy = st.floats(-300, 300)
    a, b = Point2(draw(xy), draw(xy)), Point2(draw(xy), draw(xy))
    rnd = draw(st.randoms(use_true_random=False))
    m = draw(st.integers(1, 80))
    if kind == "coincident":
        c = CubicBezier(a, Point2(draw(xy), draw(xy)),
                        Point2(draw(xy), draw(xy)), a)
    else:
        # the middle control step runs from chord fraction s1 to s2
        s1, s2 = sorted((draw(st.floats(0.01, 0.99)),
                         draw(st.floats(0.01, 0.99))))
        if kind == "turns-back":
            s1, s2 = s2 + 0.5, s1 - 0.5
        c = _monotone_cubic(a, b, s1, s2, draw(st.floats(-1, 1)),
                            draw(st.floats(-1, 1)))
    if kind == "off-samples":
        n = max(256, 4 * m)
        pts = _off_samples(c, n, sorted(rnd.sample(range(n + 1), m)),
                           draw(st.floats(0, 3)))
    else:
        pts = _noisy_run(c, m, draw(st.integers(0, 12)), rnd)
    if draw(st.booleans()):
        pts.reverse()
    lo = draw(st.integers(0, m - 1))
    return pts, c, lo, draw(st.integers(lo + 1, m))


@given(_split_cases())
def test_farthest_is_a_largest_certified_distance(case):
    pts, c, lo, hi = case
    dists = curve_distances(pts, c)
    top = max(dists[lo:hi])
    i, d = farthest(*case)
    assert lo <= i < hi
    assert _near([d, dists[i]], [top, top]), (i, d, top)
    # the break skips only points that can neither pass nor tie the best
    assert (i, d) == _unpruned_farthest(*case)


def _exact_quintic(c, p):
    """The Bernstein coefficients of (B - p) . B' / 3 over [0, 1], in
    exact rationals."""
    q = [(Fraction(x) - Fraction(p[0]), Fraction(y) - Fraction(p[1]))
         for x, y in c]
    steps = [(q[j + 1][0] - q[j][0], q[j + 1][1] - q[j][1]) for j in range(3)]
    g = [Fraction(0)] * 6
    for i in range(4):
        for j in range(3):
            w = Fraction(math.comb(3, i) * math.comb(2, j), math.comb(5, i + j))
            g[i + j] += w * (q[i][0] * steps[j][0] + q[i][1] * steps[j][1])
    return g


def _exact_halves(g):
    left, right = [], []
    while g:
        left.append(g[0])
        right.append(g[-1])
        g = [(v + w) / 2 for v, w in zip(g, g[1:])]
    return left, right[::-1]


@given(st.lists(st.floats(-1e6, 1e6), min_size=8, max_size=8),
       st.lists(st.booleans(), max_size=60), st.floats(-2e6, 2e6),
       st.floats(-2e6, 2e6))
@example([0.0, 0.0, 0.6148, -925.61, 2.3242, -993.02, 3.0, 0.0],
         [False, True, True, False], 0.244, -277.74395)
@example([0.0, 0.0, 512.0, 0.0, 1024.0, 0.0, 1536.0, 0.0], [True] * 60,
         1500.0, 0.0)
def test_quintic_halves_stay_within_their_rounding(coords, path, px, py):
    # down a random path of halves, the sign search's coefficients of
    # (B - p) . B' / 3 are de Casteljau's halves, share their middle one,
    # and stay within the documented rounding of the exact ones
    c = CubicBezier(*map(Point2, coords[::2], coords[1::2]))
    _, rows, scale, big = metrics._quintic(c)
    e = scale * (big + abs(px) + abs(py))
    assert big == max(map(abs, coords))
    g = [a - px * vx - py * vy for a, vx, vy in rows]
    exact = _exact_quintic(c, (px, py))
    for right in path:
        assert all(abs(v - w) <= e for v, w in zip(g, exact, strict=True))
        low, high = metrics._halves(g)
        assert (low[0], low[5], high[5]) == (g[0], high[0], g[5])
        g, exact = (high if right else low), _exact_halves(exact)[right]
    assert all(abs(v - w) <= e for v, w in zip(g, exact, strict=True))


def _out_of_range_cases():
    """(curve, points) pairs, each with a coordinate that is NaN, infinite,
    or 1e153 or more in size, in a point or in a control point."""
    nan, inf = float("nan"), float("inf")
    c = CubicBezier(Point2(0, 0), Point2(10, 30), Point2(30, 30), Point2(40, 0))
    arch = [Point2(round(p.x), round(p.y) + 1) for p in uniform_samples(c, 30)]
    cases = []
    for k, bad in ((0, nan), (5, nan), (14, inf), (14, -inf), (29, nan)):
        pts = list(arch)
        pts[k] = Point2(bad, pts[k].y)
        cases.append((c, pts))
    for bad in (nan, inf, -inf):
        cases.append((CubicBezier(c.p0, Point2(bad, 30), c.p2, c.p3), arch))
        cases.append((CubicBezier(c.p0, c.p1, c.p2, Point2(40, bad)), arch))
    # a semicircular arch over a straight chord, as the split search sees
    # one, with a non-finite point (index 1 is the first interior one) or
    # control point
    r = 20.0
    arch = [Point2(r - r * math.cos(math.pi * i / 29),
                   r * math.sin(math.pi * i / 29)) for i in range(30)]
    chord = chord_fit(arch[0], arch[-1])
    for k, bad in ((1, nan), (5, nan), (14, inf), (14, -inf), (29, nan)):
        pts = list(arch)
        pts[k] = Point2(bad, pts[k].y)
        cases.append((chord, pts))
    for bad in (nan, inf):
        cases.append((CubicBezier(arch[0], Point2(bad, 3.0), arch[20],
                                  arch[-1]), arch))
        cases.append((CubicBezier(arch[0], arch[10], arch[20],
                                  Point2(40.0, bad)), arch))
    # controls of 1e153 and more, and one point of exactly 1e153
    cases.append((_huge_curve(), [Point2(7 + i, 6) for i in range(20)]))
    line = CubicBezier(Point2(0, 0), Point2(512, 0), Point2(1024, 0),
                       Point2(1536, 0))
    cases.append((line, arch[:9] + [Point2(1e153, 0)] + arch[10:]))
    # a curve whose top edge sits just under the float square root
    top, a, h = 1.3407801838936079e154, 1e152, 1e148
    c = CubicBezier(Point2(-a, top), Point2(-a / 3, top + h),
                    Point2(a / 3, top + 0.6 * h), Point2(a, top))
    pts = [Point2(5e153 - 1e152 * k, 0.0) for k in range(10)]
    pts[3] = Point2(-1.1718749999999999e151, 0.0)
    cases.append((c, pts))
    return cases


def _closed_by_one_point(c, pts):
    """Contour and spline of a loop: pts on c, closed by a second segment
    over one repeated point."""
    m = len(pts)
    return (Contour(list(pts) + [pts[-1]]),
            Spline([FittedSegment(c, (0, m), []),
                    FittedSegment(c, (m, 0), [])]))


@pytest.mark.parametrize("c, pts", _out_of_range_cases())
def test_distances_refuse_out_of_range_coordinates(c, pts):
    with pytest.raises(DomainError):
        curve_distances(pts, c)
    with pytest.raises(DomainError):
        farthest(pts, c, 0, len(pts))
    with pytest.raises(DomainError):
        spline_errors(*_closed_by_one_point(c, pts))
    with pytest.raises(DomainError):
        split_point(pts, c, FitConfig(min_segment_points=4))


def test_distances_range_check_only_what_the_kernel_does_not_read(
        monkeypatch):
    # the distance kernel checks the curve, and each point as it reads it;
    # no entry point copies a whole run into one more check first
    sizes = []
    check = metrics._check_range

    def watched(pts):
        sizes.append(len(pts))
        check(pts)

    monkeypatch.setattr(metrics, "_check_range", watched)
    rng = random.Random(24)
    c = _random_curve(rng)
    pts = [Point2(x + rng.uniform(-2, 2), y + rng.uniform(-2, 2))
           for x, y in (evaluate(c, i / 199) for i in range(200))]
    n = len(pts)
    curve_distances(pts, c)
    spline_errors(*_closed_by_one_point(c, pts))
    farthest(pts, c, 1, n - 1)
    split_point(pts, c, FitConfig())
    assert sizes and max(sizes) <= 4, sizes


def _near(got, want, tol=1e-9):
    """Same number of distances, each within tol, or within 1e-14 of the
    distance where that is wider (past 1e5 px): near the range bound the
    two refines round some ten units in the last place apart."""
    return len(got) == len(want) and all(
        g == w or abs(g - w) <= max(tol, 1e-14 * w) for g, w in zip(got, want))


def test_spline_errors_distances_match_full_scan_oracle():
    # includes the cusp, the self-crossing loop, four equal control points,
    # the collinear half-sample cubic and the curve near the range bound
    for c, pts in _oracle_cases():
        for order in (pts, pts[::-1]):
            assert _near(curve_distances(order, c),
                         reference_curve_distances(order, c)), (c, order)
            # spline_errors measures each segment's whole run, end point
            # included, and sums all but the last distance of each
            want = (curve_distances(order + order[-1:], c)[:-1]
                    + curve_distances(order[-1:], c))
            assert spline_errors(*_closed_by_one_point(c, order)) \
                == (max(want), sum(want) / len(want))


def _noisy_run(c, m, noise, rnd):
    """m samples along c, rounded, each moved by up to noise px per axis."""
    return [Point2(round(p.x + rnd.randint(-noise, noise)),
                   round(p.y + rnd.randint(-noise, noise)))
            for p in uniform_samples(c, max(2, m))[:m]]


def _monotone_cubic(a, b, s1, s2, h1, h2):
    """Cubic from a to b whose inner controls sit at chord fractions
    s1 <= s2, offset sideways by h1 and h2 chord lengths: every control
    step moves forward along the chord when 0 < s1 < s2 < 1."""
    dx, dy = b.x - a.x, b.y - a.y
    return CubicBezier(a, Point2(a.x + s1 * dx - h1 * dy, a.y + s1 * dy + h1 * dx),
                       Point2(a.x + s2 * dx - h2 * dy, a.y + s2 * dy + h2 * dx), b)


@st.composite
def _runs(draw):
    """(curve, points): a random cubic, or one whose control steps all move
    forward along its chord, the case the report certifies, with a run of
    up to 60 noisy integer points along it, forward or reversed."""
    xy = st.floats(-300, 300)
    a, b = Point2(draw(xy), draw(xy)), Point2(draw(xy), draw(xy))
    if draw(st.booleans()):
        c = CubicBezier(a, Point2(draw(xy), draw(xy)),
                        Point2(draw(xy), draw(xy)), b)
    else:
        s1, s2 = sorted((draw(st.floats(0, 1)), draw(st.floats(0, 1))))
        c = _monotone_cubic(a, b, s1, s2, draw(st.floats(-1, 1)),
                            draw(st.floats(-1, 1)))
    pts = _noisy_run(c, draw(st.integers(1, 60)), draw(st.integers(0, 12)),
                     draw(st.randoms(use_true_random=False)))
    return c, pts[::-1] if draw(st.booleans()) else pts


_ARCH = _monotone_cubic(Point2(0, 0), Point2(100, 0), 1 / 3, 2 / 3, 0.6, 0.6)
_LINE = CubicBezier(Point2(0, 0), Point2(512, 0), Point2(1024, 0),
                    Point2(1536, 0))
_HUGE = _monotone_cubic(Point2(-4e151, 3e151), Point2(5e151, -2e151), 0.2, 0.7,
                        0.1, -0.05)


def _control_run(controls, m, noise, seed):
    """The cubic of eight control coordinates, with a noisy run of m
    points along it (_noisy_run)."""
    c = CubicBezier(*[Point2(controls[k], controls[k + 1])
                      for k in range(0, 8, 2)])
    return c, _noisy_run(c, m, noise, random.Random(seed))


@given(_runs())
# points on the curve, at u = k / 8 and between
@example((_ARCH, uniform_samples(_ARCH, 9) + [evaluate(_ARCH, 0.3071)]))
# points beyond both ends, nearest to an end point
@example((_ARCH, [Point2(-9, -4), Point2(-1, 2), Point2(50, 61),
                  Point2(103, 5), Point2(120, -30)]))
# a straight cubic, x = 1536 u, with points halfway between u = i / 256
@example((_LINE, [Point2(6 * i + 3, 0) for i in range(100, 160)]))
# an S whose control steps all move forward along the chord: from the
# start, u = 0, Newton stops at that end, 10.05 px from (-1, 10), a local
# minimum; the far lobe passes 8.78 px away
@example((CubicBezier(Point2(0, 0), Point2(4, -70), Point2(6, 40),
                      Point2(10, 0)), [Point2(-1, 10)]))
# coincident ends: no chord, so no bound
@example((CubicBezier(Point2(5, 7), Point2(60, 90), Point2(-40, 80),
                      Point2(5, 7)),
          _noisy_run(CubicBezier(Point2(5, 7), Point2(60, 90),
                                 Point2(-40, 80), Point2(5, 7)),
                     40, 3, random.Random(2))))
# a control polygon that doubles back along its chord (a self-crossing loop)
@example((CubicBezier(Point2(0, 0), Point2(100, 100), Point2(0, 100),
                      Point2(100, 0)),
          [Point2(50, 80), Point2(47, 74), Point2(20, 60), Point2(60, 70),
           Point2(90, 20), Point2(50, 76)]))
# a curve 1e152 px long, points 1.4e151 px off it on alternate sides
@example((_HUGE, [Point2(p.x + (-1) ** i * 1e151, p.y + 1e151)
                  for i, p in enumerate(uniform_samples(_HUGE, 12))]))
# two curves whose ends all but stop.  A vertical line turns back just
# before its end, so the point (0, 0), at u = 0.9972, is on
# it, but f'' < 0 at u = 1.  The other's end at (0, 0) is a local minimum
# of the distance from (1, 0), and 3.4e-9 px lower lies another
@example(_control_run([0.0, 1.0, 0.0, 171.0, 0.0, 0.0, 0.0, -0.00390625],
                      2, 0, 0))
@example(_control_run([70.0, 0.0, 0.0, 94.0, 0.0, 0.03125, 0.0, 0.0],
                      250, 1, 1))
# three equal control points, so B' and B'' vanish at the start, and a point
# on the curve near there: the search's first coefficient of the interval
# [1/128, 1/64] is within its rounding of 0, and the root lies 8.3e-5 in u
# inside it.  Taking that end read 1.9e-6 px; Newton's method in the
# bracket reads the minimum
@example((CubicBezier(Point2(0.0, 2.0 ** -14), Point2(0.0, 2.0 ** -14),
                      Point2(0.0, 2.0 ** -14), Point2(0.0, -124.0)),
          [Point2(0, 0)]))
def test_segment_distances_match_full_scan_oracle_on_random_runs(run):
    c, pts = run
    assert _near(curve_distances(pts, c), reference_curve_distances(pts, c))


def _sign_searched(monkeypatch, measure):
    """measure() and the points it sent to the sign search."""
    search = metrics._sign_search
    searched = []

    def counting(kit, consts, px, py, *start):
        searched.append(Point2(px, py))
        return search(kit, consts, px, py, *start)

    monkeypatch.setattr(metrics, "_sign_search", counting)
    got = measure()
    monkeypatch.undo()
    return got, searched


@pytest.mark.parametrize("c, pts", [
    # coincident ends and a control polygon that doubles back along the
    # chord: no bound on the parameter
    (CubicBezier(Point2(5, 7), Point2(60, 90), Point2(-40, 80), Point2(5, 7)),
     [Point2(5, 7), Point2(20, 50), Point2(11, 66), Point2(5, 8)]),
    (CubicBezier(Point2(0, 0), Point2(100, 100), Point2(0, 100),
                 Point2(100, 0)),
     [Point2(0, 1), Point2(50, 80), Point2(47, 74), Point2(90, 20)]),
    # _ARCH runs x = 100 u, so lip = 100.  From (0, -15) the nearest point
    # is the start, d0 = 15; from (20, 5) it is at u0 = 0.078, d0 = 14.56.
    # For both, f = |B - p|^2 is convex within d0 / lip of u0, but f''
    # turns negative before 2 d0 / lip
    (_ARCH, [Point2(0, -15)]),
    (_ARCH, [Point2(20, 5)]),
    # a point on a loop with coincident ends: Newton's method in the
    # search's bracket must end on a Newton step, not on a bisection, which
    # read 1.95e-6 px here
    (CubicBezier(Point2(0.5, 22), Point2(252, 0), Point2(0, -7),
                 Point2(0.5, 22)),
     [Point2(46.067137002944946, 5.253373205661774)]),
    # four equal control points, so every coefficient of the search is 0
    (CubicBezier(*[Point2(0.0, 0.0)] * 4), [Point2(0.0, 0.0)]),
], ids=["coincident-ends", "doubles-back", "below-arch", "inside-arch",
        "on-a-loop", "one-point"])
def test_points_the_bound_cannot_certify_take_the_sign_search(monkeypatch,
                                                               c, pts):
    got, searched = _sign_searched(monkeypatch,
                                  lambda: curve_distances(pts, c))
    assert searched == pts
    assert _near(got, reference_curve_distances(pts, c))


def _stars_and_ellipse():
    """Traced loops of six stars and a long ellipse."""
    loops = []
    for seed in range(6):
        img = rasterize_polygon(star_polygon(random.Random(seed)), 170, 170)
        loops.append(trace_boundaries(img)[0])
    ellipse = [(810.217 + 800 * math.cos(math.pi * k / 1000),
                50.391 + 40 * math.sin(math.pi * k / 1000))
               for k in range(2000)]
    loops.append(trace_boundaries(rasterize_polygon(ellipse, 1620, 100))[0])
    return loops


def test_spline_errors_takes_the_sign_search_for_few_points(monkeypatch):
    # traced stars and a long ellipse, fitted with the defaults; the
    # certificate left 1 of their 4712 points to the sign search here
    loops = _stars_and_ellipse()
    pairs = [(loop, fit_outline(loop)[0]) for loop in loops]
    _, searched = _sign_searched(monkeypatch, lambda: [spline_errors(*pair)
                                                      for pair in pairs])
    points = sum(loop.n for loop in loops)
    assert points > 4500
    assert len(searched) <= 0.01 * points


def test_spline_errors_takes_few_curve_evaluations_per_point():
    # the work, not the time: each point starts one Newton step on from the
    # previous point's last evaluation, so the stars and ellipse, fitted
    # with the defaults, take 1.52 evaluations per point here, where a
    # start one parameter step past the previous point's took 2.37.  The
    # evaluations are counted as runs of the line that computes B(u) - p.
    loops = _stars_and_ellipse()
    pairs = [(loop, fit_outline(loop)[0]) for loop in loops]
    code = metrics._certified(pairs[0][1].segments[0].curve).__code__
    lines, first = inspect.getsourcelines(code)
    line = first + next(k for k, text in enumerate(lines)
                        if "qx = x0 - px" in text)
    count = 0

    def count_line(frame, event, arg):
        nonlocal count
        count += event == "line" and frame.f_lineno == line
        return count_line

    before = sys.gettrace()
    sys.settrace(lambda frame, event, arg:
                 count_line if frame.f_code is code else None)
    try:
        for pair in pairs:
            spline_errors(*pair)
    finally:
        sys.settrace(before)
    points = sum(loop.n for loop in loops)
    assert points <= count <= 1.9 * points


def test_sign_search_halves_few_intervals_per_point(monkeypatch):
    # a 5,000-point circle, fitted and measured with the defaults: its
    # whole-loop fits have coincident ends, so hundreds of points take the
    # sign search, and each halves a handful of intervals (at most 6 and
    # 3.1 on average here), however long the loop
    r, m = 650, 41_000
    pts = []
    for k in range(m):
        p = Point2(round(r * math.cos(2 * math.pi * k / m)),
                   round(r * math.sin(2 * math.pi * k / m)))
        if not pts or p != pts[-1]:
            pts.append(p)
    loop = Contour(pts[:-1] if pts[-1] == pts[0] else pts)
    search, halves = metrics._sign_search, metrics._halves
    per_point = []

    def counting_search(*args):
        per_point.append(0)
        return search(*args)

    def counting_halves(g):
        per_point[-1] += 1
        return halves(g)

    monkeypatch.setattr(metrics, "_sign_search", counting_search)
    monkeypatch.setattr(metrics, "_halves", counting_halves)
    spline_errors(loop, fit_outline(loop)[0])
    assert 4900 < loop.n < 5100
    assert len(per_point) > 200
    assert max(per_point) <= 10
    assert sum(per_point) <= 4 * len(per_point)


def _centre_of_curvature(c, u):
    """The centre of the osculating circle of c at u."""
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = c
    v = 1.0 - u
    tx = 3 * (v * v * (x1 - x0) + 2 * u * v * (x2 - x1) + u * u * (x3 - x2))
    ty = 3 * (v * v * (y1 - y0) + 2 * u * v * (y2 - y1) + u * u * (y3 - y2))
    ax = 6 * (v * (x2 - 2 * x1 + x0) + u * (x3 - 2 * x2 + x1))
    ay = 6 * (v * (y2 - 2 * y1 + y0) + u * (y3 - 2 * y2 + y1))
    k = (tx * tx + ty * ty) / (tx * ay - ty * ax)
    q = evaluate(c, u)
    return Point2(q.x - k * ty, q.y + k * tx)


# four control points on a quarter circle of radius 100 about the origin,
# the usual cubic of a quarter circle, which stays within 0.03 px of it
_QUARTER = CubicBezier(Point2(100.0, 0.0), Point2(100.0, 55.22847498307936),
                       Point2(55.22847498307936, 100.0), Point2(0.0, 100.0))


@pytest.mark.parametrize("c, p", [
    (_QUARTER, Point2(0.0, 0.0)),
    (_ARCH, _centre_of_curvature(_ARCH, 0.5)),
    (_BOW, _centre_of_curvature(_BOW, 0.3)),
], ids=["quarter-circle", "arch-apex", "bow"])
def test_centre_of_curvature_reads_the_oracle_minimum(monkeypatch, c, p):
    # f = |B - p|^2 is flat where p is a centre of curvature: f'' is 0 there,
    # or nearly so all along the quarter circle, so no certificate holds
    # and the sign search has near-zero coefficients to read
    got, searched = _sign_searched(monkeypatch, lambda: (
        curve_distances([p], c)[0], farthest([p], c, 0, 1)[1]))
    assert searched == [p, p]
    want = reference_distance(p, c)
    assert all(abs(d - want) <= 1e-9 for d in got), (got, want)


# the S-shaped fit of a tooth of the benchmark's square-wave loop (long_loops,
# seed 1), whose handles swing about 18 px sideways over an 11 px chord, and
# the tooth's contour points the report measured by the search
_TOOTH = CubicBezier(Point2(151.0, 772.0),
                     Point2(154.6666666666667, 789.8619047619051),
                     Point2(158.3333333333334, 764.8616402116404),
                     Point2(162.0, 772.0))
_TOOTH_POINTS = [Point2(151.0, 774.0), Point2(151.0, 775.0),
                 Point2(151.0, 776.0), Point2(151.0, 777.0),
                 Point2(151.0, 778.0), Point2(152.0, 778.0),
                 Point2(154.0, 778.0), Point2(156.0, 778.0),
                 Point2(157.0, 778.0), Point2(157.0, 777.0),
                 Point2(157.0, 773.0), Point2(157.0, 772.0),
                 Point2(158.0, 772.0), Point2(160.0, 772.0),
                 Point2(161.0, 772.0)]


def test_square_wave_teeth_read_the_oracle_minimum(monkeypatch):
    # the certificate's radius, 2 d0 / lip, uses the speed along the chord,
    # so it reaches where f'' turns negative and these points take the sign
    # search, in a run and one by one as the split search measures them
    pts = _TOOTH_POINTS
    want = [reference_distance(p, _TOOTH) for p in pts]
    got, searched = _sign_searched(monkeypatch, lambda: (
        curve_distances(pts, _TOOTH),
        [farthest(pts, _TOOTH, j, j + 1)[1] for j in range(len(pts))]))
    assert len(searched) >= len(pts)
    for dists in got:
        assert all(abs(d - w) <= 1e-9 for d, w in zip(dists, want, strict=True))


@st.composite
def _stalls(draw):
    """(curve, point): a cubic whose derivative vanishes at u0, a cusp
    inside the curve or a stop at an end, and a point 1e-12 to 1 times the
    curve's size from B(u0)."""
    size = draw(st.floats(1, 1000))
    xy = st.floats(-1, 1)
    d0, d1, d2 = [(size * draw(xy), size * draw(xy)) for _ in range(3)]
    u0 = draw(st.sampled_from((0.0, 1.0, 0.5, draw(st.floats(0.05, 0.95)))))
    if u0 == 0.0:
        d0 = (0.0, 0.0)
    elif u0 == 1.0:
        d2 = (0.0, 0.0)
    else:   # (1 - u0)^2 D0 + 2 u0 (1 - u0) D1 + u0^2 D2 = 0
        d1 = tuple(-((1 - u0) ** 2 * a + u0 ** 2 * b) / (2 * u0 * (1 - u0))
                   for a, b in zip(d0, d2))
    x, y = draw(st.floats(-1000, 1000)), draw(st.floats(-1000, 1000))
    ctrl = [Point2(x, y)]
    for dx, dy in (d0, d1, d2):
        ctrl.append(Point2(ctrl[-1].x + dx, ctrl[-1].y + dy))
    c = CubicBezier(*ctrl)
    q = evaluate(c, u0)
    r = size * 10.0 ** draw(st.floats(-12, 0))
    angle = draw(st.floats(0, 2 * math.pi))
    return c, Point2(q.x + r * math.cos(angle), q.y + r * math.sin(angle))


_CUSP = CubicBezier(Point2(0, 0), Point2(100, 100), Point2(0, 100),
                    Point2(100, 0))


@given(_stalls())
# points between the two branches of _CUSP, just below its cusp at
# (50, 75), with two minima of f a few 1e-6 apart in u.  The sign search's
# coefficients are all within their rounding of 0 there, and taking an
# end of that flat interval read the cusp, up to 5.0e-7 px above the
# minimum
@example((_CUSP, Point2(50, 75 - 5e-7)))
@example((_CUSP, Point2(50 - 3e-7, 75 - 6e-7)))
@example((_CUSP, Point2(50 - 8e-7, 75 - 6e-7)))
def test_points_near_a_stall_read_the_oracle_minimum(case):
    c, p = case
    want = reference_distance(p, c)
    tol = _distance_tolerance(c, [p])
    assert abs(curve_distances([p], c)[0] - want) <= tol
    assert abs(farthest([p], c, 0, 1)[1] - want) <= tol


def _radius_of_certainty(c):
    """D* of _certified, without its pads: with lip the curve's least speed
    along its chord, vmax its greatest speed and amax its greatest
    acceleration, (lip^2 / amax - 2 vmax 1e-8) / (1 + 2 vmax / lip)."""
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = c
    steps = [(x1 - x0, y1 - y0), (x2 - x1, y2 - y1), (x3 - x2, y3 - y2)]
    cx, cy = x3 - x0, y3 - y0
    lip = 3 * min(dx * cx + dy * cy for dx, dy in steps) / math.hypot(cx, cy)
    vmax = 3 * max(math.hypot(dx, dy) for dx, dy in steps)
    amax = 6 * max(math.hypot(x0 - 2 * x1 + x2, y0 - 2 * y1 + y2),
                   math.hypot(x1 - 2 * x2 + x3, y1 - 2 * y2 + y3))
    if amax == 0.0:
        return math.inf
    return (lip * lip / amax - 2 * vmax * 1e-8) / (1 + 2 * vmax / lip)


@given(st.floats(-300, 300), st.floats(-300, 300), st.floats(-300, 300),
       st.floats(-300, 300), st.floats(0.02, 0.98), st.floats(0.02, 0.98),
       st.floats(-1, 1), st.floats(-1, 1), st.floats(0, 1),
       st.floats(0, 2 * math.pi), st.floats(0, 1))
def test_points_within_the_radius_of_certainty_read_the_oracle_minimum(
        ax, ay, bx, by, s1, s2, h1, h2, u0, angle, reach):
    # a cubic whose control steps all move forward along its chord
    # (lip > 0), and a point within 2 D* of its point at u0, measured from
    # u0: a point that takes no search was certified by the comparison
    # with D* alone, so its distance is below D*, and it is the minimum
    assume(math.hypot(bx - ax, by - ay) > 1.0 and abs(s2 - s1) > 0.01)
    s1, s2 = sorted((s1, s2))
    c = _monotone_cubic(Point2(ax, ay), Point2(bx, by), s1, s2, h1, h2)
    radius = _radius_of_certainty(c)
    assume(radius > 0.0)
    q = evaluate(c, u0)
    r = reach * min(2.0 * radius, 100.0)
    p = Point2(q.x + r * math.cos(angle), q.y + r * math.sin(angle))
    measure, out = metrics._certified(c), []
    with pytest.MonkeyPatch.context() as patch:
        _, searched = _sign_searched(patch, lambda: measure([p], u0, out))
    assume(not searched)
    assert out[0] < radius
    assert abs(out[0] - reference_distance(p, c)) <= 1e-9


@pytest.mark.parametrize("max_error", [0.3, 0.8])
def test_max_error_bounds_the_reported_distances(max_error):
    # a final segment fitted from candidates, long enough to split and not
    # depth-capped passed farthest's test against max_error, which measures
    # each point as curve_distances does
    cfg = FitConfig(max_error=max_error)
    checked = 0
    for loop in _stars_and_ellipse():
        for seg in fit_outline(loop, cfg=cfg)[0].segments:
            run = range_points(loop, *seg.span)
            if (FLAG_FALLBACK in seg.flags or FLAG_DEPTH_CAPPED in seg.flags
                    or len(run) < 2 * cfg.min_segment_points):
                continue
            assert max(curve_distances(run, seg.curve)) <= max_error
            checked += 1
    assert checked >= 40


def test_spline_errors_of_no_points_is_a_consistency_error():
    # read_contour refuses such a loop; a library caller can pass one
    with pytest.raises(ConsistencyError):
        spline_errors(Contour([]), Spline([]))
    with pytest.raises(ConsistencyError):
        fit_report([(Contour([]), Spline([]))])


def test_spline_errors_exact_roundtrip():
    contour, spline = _two_cubic_spline()
    mx, avg = spline_errors(contour, spline)
    assert mx < 1e-3
    assert avg < 1e-3
    assert mx >= avg >= 0.0


def test_spline_errors_rectangle_end_to_end():
    img = filled_rect_image(48, 38, 4, 4, 43, 33)
    loop = trace_boundaries(img)[0]
    spline, _ = fit_outline(loop)
    mx, avg = spline_errors(loop, spline)
    assert mx < 0.5
    assert avg <= mx


def test_arch_fallback_max_equals_height():
    # closed loop: semicircular arch plus a straight return along the chord;
    # the arch segment is deliberately a chord fallback, so its worst point
    # is the apex at exactly the arch height
    r = 20.0
    n_arc = 25
    arch = [Point2(r - r * math.cos(math.pi * i / (n_arc - 1)),
                   r * math.sin(math.pi * i / (n_arc - 1)))
            for i in range(n_arc)]
    back = [Point2(2.0 * r - 2.0 * r * i / 10.0, 0.0) for i in range(1, 10)]
    contour = Contour(arch + back)
    spline = Spline([
        FittedSegment(chord_fit(arch[0], arch[-1]), (0, n_arc - 1), ["fallback"]),
        FittedSegment(chord_fit(arch[-1], arch[0]), (n_arc - 1, 0), ["corner"]),
    ])
    mx, avg = spline_errors(contour, spline)
    assert mx == pytest.approx(r, abs=1e-2)
    ds = curve_distances(arch, chord_fit(arch[0], arch[-1]))
    assert max(ds) == pytest.approx(r, abs=1e-2)


def test_spline_errors_detects_bad_assignment():
    contour, spline = _two_cubic_spline()
    broken = Spline([spline.segments[0]])
    with pytest.raises(ConsistencyError):
        spline_errors(contour, broken)


def test_spline_errors_detects_double_cover():
    contour, spline = _two_cubic_spline()
    n = contour.n
    overlapped = Spline([
        FittedSegment(spline.segments[0].curve, (0, 70), ["corner"]),
        FittedSegment(spline.segments[1].curve, (59, 0), ["corner"]),
    ])
    with pytest.raises(ConsistencyError):
        spline_errors(contour, overlapped)


def test_compression_ratio_values():
    assert compression_ratio(1612, 20) == pytest.approx(80.60, abs=5e-3)
    assert compression_ratio(1612, 15) == pytest.approx(107.47, abs=5e-3)
    assert compression_ratio(37, 37) == 1.0
    with pytest.raises(DomainError):
        compression_ratio(100, 0)


def test_compression_ratio_identity():
    rng = random.Random(40)
    for _ in range(100):
        n = rng.randint(1, 5000)
        k = rng.randint(1, 60)
        assert abs(compression_ratio(n, k) * k - n) < 0.01


def test_errors_invariant_under_rigid_motion():
    contour, spline = _two_cubic_spline()
    ang = 1.1
    ca, sa = math.cos(ang), math.sin(ang)

    def move(p):
        return Point2(ca * p.x - sa * p.y + 12.0, sa * p.x + ca * p.y + 99.0)

    moved_contour = Contour([move(p) for p in contour.points])
    moved_spline = Spline([
        FittedSegment(CubicBezier(*[move(p) for p in seg.curve]), seg.span,
                      list(seg.flags))
        for seg in spline.segments
    ])
    base = spline_errors(contour, spline)
    moved = spline_errors(moved_contour, moved_spline)
    assert moved[0] == pytest.approx(base[0], abs=1e-6)
    assert moved[1] == pytest.approx(base[1], abs=1e-6)


def test_fit_report_aggregates():
    img = filled_rect_image(48, 38, 4, 4, 43, 33)
    loop = trace_boundaries(img)[0]
    spline, _ = fit_outline(loop)
    report = fit_report([(loop, spline)], wall_time=0.5)
    assert report.n_points == loop.n
    assert report.n_segments == len(spline.segments)
    assert report.max_dev >= report.avg_error >= 0.0
    assert abs(report.compression_ratio * report.n_segments - report.n_points) < 0.01
    assert report.wall_time == 0.5
