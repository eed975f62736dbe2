import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beziertrace.metrics as metrics
import beziertrace.subdivision as subdivision
from beziertrace.bezier_core import CubicBezier, Point2
from beziertrace.contour import trace_boundaries
from beziertrace.corner_detect import CornerParams, detect_corners
from beziertrace.errors import DegenerateSegmentError, DomainError
from beziertrace.metrics import curve_distances, spline_errors
from beziertrace.segment_fit import (CandidatePair, CandidateSpread, FitConfig,
                                     chord_fit, fit_segment)
from beziertrace.subdivision import (FLAG_CORNER, FLAG_DEPTH_CAPPED,
                                     FLAG_FALLBACK, FLAG_SUBDIVIDED,
                                     assemble_spline, fit_outline,
                                     fit_recursive, needs_subdivision,
                                     split_point)

from _reference import reference_curve_distances, reference_split_point
from helpers import (chord_aligned_cubic, circle_image, filled_rect_image,
                     uniform_samples)
from test_metrics import _near, _oracle_cases


def _spread_with_radius(r):
    p2 = Point2(100.0, 100.0)
    cands = [CandidatePair(0.1, Point2(-r, 0.0), p2),
             CandidatePair(0.2, Point2(r, 0.0), p2)]
    return CandidateSpread.from_candidates(cands)


def test_needs_subdivision_thresholds():
    cfg = FitConfig()
    assert not needs_subdivision(_spread_with_radius(0.0), cfg)
    exactly_ten = _spread_with_radius(10.0)
    assert exactly_ten.radius1 == 10.0
    assert not needs_subdivision(exactly_ten, cfg)  # strict inequality
    assert needs_subdivision(_spread_with_radius(25.0), cfg)


def _arch_points(n=25, r=20.0):
    return [Point2(r - r * math.cos(math.pi * i / (n - 1)),
                   r * math.sin(math.pi * i / (n - 1))) for i in range(n)]


def test_split_point_at_arch_apex():
    pts = _arch_points(25)
    fallback_curve = chord_fit(pts[0], pts[-1])
    idx = split_point(pts, fallback_curve, FitConfig())
    dists = curve_distances(pts, fallback_curve)
    expect = max(range(1, len(pts) - 1), key=lambda i: (dists[i], -i))
    assert idx == expect == 12


def test_split_point_too_short():
    pts = _arch_points(12)
    assert split_point(pts, chord_fit(pts[0], pts[-1]), FitConfig()) is None


def test_split_point_collinear_picks_first_admissible():
    pts = [Point2(float(i), 0.0) for i in range(20)]
    idx = split_point(pts, chord_fit(pts[0], pts[-1]), FitConfig())
    assert idx == FitConfig().min_segment_points - 1


def _split_oracle_cases():
    # _oracle_cases brings the case near the range bound: a curve of ~1e152
    # whose 21 points are refined without overflow
    cases = list(_oracle_cases())
    # all-tie runs: on the curve's own line, and all at one offset from it
    line = CubicBezier(Point2(0, 0), Point2(512, 0), Point2(1024, 0),
                       Point2(1536, 0))
    cases.append((line, [Point2(6 * i, 0) for i in range(40)]))
    cases.append((line, [Point2(6 * i, 2) for i in range(40)]))
    flat = chord_fit(Point2(-5, 0), Point2(45, 0))
    cases.append((flat, [Point2(i, 3) for i in range(40)]))
    # the largest distance, exactly 5 at x = 6i, tied by several points
    tied = [Point2(6 * i, 5 if i % 7 == 3 else i % 2) for i in range(40)]
    cases.append((line, tied))
    cases.append((line, tied[::-1]))
    # a tie between point 2, at x = 6i, and point 5, halfway between two:
    # point 5 can have the larger bound, so a cut that drops g == d, or
    # compares squares (y * y here is below the square of its own square
    # root), loses point 2
    y = 7.712471735585844
    cases.append((line, [Point2(6 * i + 3 * (i == 5),
                                y if i in (2, 5) else i % 2)
                         for i in range(12)]))
    # below one pixel a squared distance is smaller than the distance: point
    # 12, at 0.5, beats point 20, at 0.48, whose bound can be larger
    short = CubicBezier(Point2(0, 0), Point2(32, 0), Point2(64, 0),
                        Point2(96, 0))
    cases.append((short, [Point2(0.375 * i + 0.1875 * (i == 20),
                                 {12: 0.5, 20: 0.48}.get(i, 0.0))
                          for i in range(30)]))
    return cases


def _near_split_points(pts, c, msp):
    """Split indices a full distance pass allows: every interior index whose
    distance (reference_curve_distances) is within _near of the largest,
    clamped as reference_split_point clamps; {None} for a run too short."""
    if len(pts) < 2 * msp:
        return {None}
    dists = reference_curve_distances(pts, c)[1:-1]
    top = max(dists)
    return {min(max(i, msp - 1), len(pts) - msp)
            for i, d in enumerate(dists, 1) if _near([d], [top])}


def test_split_point_matches_full_pass_oracle():
    for c, pts in _split_oracle_cases():
        for msp in (4, 8):
            cfg = FitConfig(min_segment_points=msp)
            for order in (pts, pts[::-1]):
                assert (split_point(order, c, cfg)
                        in _near_split_points(order, c, msp)), (c, msp)


def test_split_point_refines_only_possible_maxima(monkeypatch):
    certified = metrics._certified
    calls = []

    def counting_certified(*args):
        distance = certified(*args)

        def counting(pts, u, out, starts=None):
            # points measured in full; the one bound pass is not counted
            if starts is None:
                calls.extend(pts)
            return distance(pts, u, out, starts)
        return counting

    monkeypatch.setattr(metrics, "_certified", counting_certified)
    pts = _arch_points(200)
    split_point(pts, chord_fit(pts[0], pts[-1]), FitConfig())
    assert len(calls) < 20
    # every distance tied: each interior point is measured once, no more
    del calls[:]
    flat = [Point2(float(i), 3.0) for i in range(60)]
    assert split_point(flat, chord_fit(Point2(-5, 0), Point2(65, 0)),
                       FitConfig()) == FitConfig().min_segment_points - 1
    assert len(calls) == len(flat) - 2


@settings(derandomize=True, deadline=None, max_examples=25)
@given(controls=st.lists(st.floats(-300, 300), min_size=8, max_size=8),
       m=st.integers(16, 300), noise=st.integers(0, 12),
       msp=st.integers(4, 8), rnd=st.randoms(use_true_random=False))
def test_split_point_matches_oracle_on_random_runs(controls, m, noise, msp,
                                                   rnd):
    c = CubicBezier(*[Point2(controls[k], controls[k + 1])
                      for k in range(0, 8, 2)])
    pts = [Point2(round(p.x + rnd.randint(-noise, noise)),
                  round(p.y + rnd.randint(-noise, noise)))
           for p in uniform_samples(c, m)]
    assert split_point(pts, c, FitConfig(min_segment_points=msp)) \
        == reference_split_point(pts, c, msp)


def test_fit_recursive_exact_cubic_single_segment():
    curve = chord_aligned_cubic(Point2(0, 0), Point2(200, 0), 60.0, 60.0)
    pieces = fit_recursive(uniform_samples(curve, 60), FitConfig())
    assert len(pieces) == 1
    assert pieces[0].flags == [FLAG_CORNER]
    assert pieces[0].span == (0, 59)


def test_fit_recursive_straight_line_never_splits():
    pts = [Point2(float(i), 0.0) for i in range(64)]
    pieces = fit_recursive(pts, FitConfig())
    assert len(pieces) == 1
    assert pieces[0].flags == [FLAG_CORNER]


def test_fit_recursive_composite_splits_at_join():
    left = CubicBezier(Point2(0, 0), Point2(45, 20), Point2(70, 60), Point2(100, 60))
    right = CubicBezier(Point2(100, 60), Point2(130, 60), Point2(155, 20), Point2(200, 0))
    n = 60
    pts = uniform_samples(left, n) + uniform_samples(right, n)[1:]
    join = n - 1
    pieces = fit_recursive(pts, FitConfig())
    assert len(pieces) <= 2
    assert all(FLAG_SUBDIVIDED in p.flags for p in pieces)
    discovered = pieces[0].span[1]
    assert abs(discovered - join) <= 3
    # halves fit their sources sanely (chord projection differs from the
    # generators' own parameter, so recovery is close but not exact)
    for piece in pieces:
        a, b = piece.span
        ds = curve_distances(pts[a:b + 1], piece.curve)
        assert max(ds) < 2.5


def test_fit_recursive_short_run_fallback_flag():
    pts = [Point2(float(i), float(i % 2)) for i in range(5)]
    pieces = fit_recursive(pts, FitConfig())
    assert len(pieces) == 1
    assert pieces[0].flags == [FLAG_FALLBACK]


def test_fit_recursive_depth_cap(monkeypatch):
    monkeypatch.setattr(subdivision, "MAX_SPLIT_DEPTH", 2)
    rng_pts = []
    seed = 12345
    for i in range(200):
        seed = (seed * 1103515245 + 12345) % (1 << 31)
        rng_pts.append(Point2(float(i), 30.0 * math.sin(i) + seed % 7))
    cfg = FitConfig(spread_threshold=0.01, min_segment_points=4)
    pieces = fit_recursive(rng_pts, cfg)
    assert any(FLAG_DEPTH_CAPPED in p.flags for p in pieces)


def test_max_error_trigger():
    # gentle arc fits within the spread threshold but not within 0.05 px
    curve = chord_aligned_cubic(Point2(0, 0), Point2(120, 0), 9.0, 9.0)
    pts = [Point2(p.x, round(p.y * 2) / 2) for p in uniform_samples(curve, 80)]
    loose = fit_recursive(pts, FitConfig())
    tight = fit_recursive(pts, FitConfig(max_error=0.05))
    assert len(loose) == 1
    assert len(tight) > 1


def test_max_error_split_measures_each_piece_once(monkeypatch):
    # every piece fitted from candidates gets one farthest call, which the
    # max-error test and the split point share; no fit path takes the full
    # distance pass
    curve = chord_aligned_cubic(Point2(0, 0), Point2(120, 0), 9.0, 9.0)
    pts = [Point2(p.x, round(p.y * 2) / 2) for p in uniform_samples(curve, 80)]
    fit_segment = subdivision.fit_segment
    farthest = subdivision.farthest
    fitted = []    # per fit_segment call: whether it had candidates
    searched = []  # per farthest call: the run length
    full = []      # per curve_distances call: the run length

    def counting_fit(run, cfg):
        curve, spread = fit_segment(run, cfg)
        fitted.append(bool(spread.candidates))
        return curve, spread

    def counting_farthest(run, curve, lo, hi):
        searched.append(len(run))
        return farthest(run, curve, lo, hi)

    def counting_distances(run, curve):
        full.append(len(run))
        return curve_distances(run, curve)

    monkeypatch.setattr(subdivision, "fit_segment", counting_fit)
    monkeypatch.setattr(subdivision, "farthest", counting_farthest)
    monkeypatch.setattr(subdivision, "curve_distances", counting_distances)
    monkeypatch.setattr(metrics, "curve_distances", counting_distances)
    pieces = fit_recursive(pts, FitConfig(max_error=0.05))
    assert len(pieces) > 1
    assert len(searched) == sum(fitted)
    assert full == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e160],
                         ids=["nan", "inf", "1e160"])
@pytest.mark.parametrize("where", [0, 40, -1], ids=["start", "inside", "end"])
def test_fit_recursive_rejects_coordinates_out_of_range(where, bad):
    # a DomainError, not a finite curve past a NaN or a chord fallback
    curve = chord_aligned_cubic(Point2(0, 0), Point2(120, 0), 40.0, -30.0)
    pts = uniform_samples(curve, 80)
    pts[where] = pts[where]._replace(y=bad)
    with pytest.raises(DomainError):
        fit_recursive(pts, FitConfig())


def _full_pass_fit(pts, cfg, depth=0, offset=0):
    """fit_recursive by the full-pass definition, as (curve, span, flags):
    split while the spread is too wide or the largest of all the run's
    distances (reference_curve_distances) exceeds max_error, at
    reference_split_point."""
    curve, spread = fit_segment(pts, cfg)
    fallback = not spread.candidates
    wants_split = not fallback and (
        needs_subdivision(spread, cfg)
        or cfg.max_error is not None
        and max(reference_curve_distances(pts, curve)) > cfg.max_error)
    capped = depth >= subdivision.MAX_SPLIT_DEPTH
    if wants_split and not capped:
        idx = reference_split_point(pts, curve, cfg.min_segment_points)
        if idx is not None:
            return (_full_pass_fit(pts[:idx + 1], cfg, depth + 1, offset)
                    + _full_pass_fit(pts[idx:], cfg, depth + 1, offset + idx))
    flags = [FLAG_FALLBACK if fallback
             else (FLAG_SUBDIVIDED if depth > 0 else FLAG_CORNER)]
    if wants_split and capped:
        flags.append(FLAG_DEPTH_CAPPED)
    return [(curve, (offset, offset + len(pts) - 1), flags)]


def _fitted(pts, cfg):
    return [(p.curve, p.span, p.flags) for p in fit_recursive(pts, cfg)]


def _fits_by_full_pass(pts, cfg, got, depth=0, offset=0):
    """Whether got, a list of (curve, span, flags), is _full_pass_fit's
    result up to rounding: where the largest distance is within _near of
    max_error either test result holds, and a split may fall at any index
    of _near_split_points that is a break in got."""
    curve, spread = fit_segment(pts, cfg)
    fallback = not spread.candidates
    decisions = {False}
    if not fallback and needs_subdivision(spread, cfg):
        decisions = {True}
    elif not fallback and cfg.max_error is not None:
        top = max(reference_curve_distances(pts, curve))
        decisions = ({True, False} if _near([top], [cfg.max_error])
                     else {top > cfg.max_error})
    capped = depth >= subdivision.MAX_SPLIT_DEPTH
    msp = cfg.min_segment_points
    ends = [span[1] for _, span, _ in got]
    for wants_split in decisions:
        if wants_split and not capped and len(pts) >= 2 * msp:
            for idx in _near_split_points(pts, curve, msp):
                if offset + idx in ends:
                    k = ends.index(offset + idx) + 1
                    if (_fits_by_full_pass(pts[:idx + 1], cfg, got[:k],
                                           depth + 1, offset)
                            and _fits_by_full_pass(pts[idx:], cfg, got[k:],
                                                   depth + 1, offset + idx)):
                        return True
            continue
        flags = [FLAG_FALLBACK if fallback
                 else (FLAG_SUBDIVIDED if depth > 0 else FLAG_CORNER)]
        if wants_split and capped:
            flags.append(FLAG_DEPTH_CAPPED)
        if got == [(curve, (offset, offset + len(pts) - 1), flags)]:
            return True
    return False


@settings(derandomize=True, deadline=None, max_examples=80)
@given(radius=st.floats(30, 150), step=st.floats(1.0, 2.5),
       m=st.integers(16, 120), noise=st.integers(0, 1),
       max_error=st.sampled_from([0.1, 0.3, 0.8, 2.0]),
       msp=st.integers(4, 8), rnd=st.randoms(use_true_random=False))
def test_max_error_fit_matches_full_pass_on_jittered_arcs(radius, step, m,
                                                         noise, max_error,
                                                         msp, rnd):
    # integer points about step px apart along at most 3 radians of a circle
    turn = min(step / radius, 3.0 / (m - 1))
    pts = [Point2(round(radius * math.cos(turn * k)) + rnd.randint(-noise, noise),
                  round(radius * math.sin(turn * k)) + rnd.randint(-noise, noise))
           for k in range(m)]
    cfg = FitConfig(min_segment_points=msp, max_error=max_error)
    try:
        _full_pass_fit(pts, cfg)
    except DegenerateSegmentError:  # a sub-run that starts where it ends
        with pytest.raises(DegenerateSegmentError):
            fit_recursive(pts, cfg)
        return
    assert _fits_by_full_pass(pts, cfg, _fitted(pts, cfg))


def test_max_error_fit_matches_full_pass_on_a_line():
    # every point lies on the fitted line: its distances, near 4e-15 px,
    # are within max_error, and the full pass's golden section residuals,
    # near 1e-11 px, are within _near of it
    pts = [Point2(float(i), 0.0) for i in range(98)]
    cfg = FitConfig(max_error=1e-12)
    got = _fitted(pts, cfg)
    assert len(got) == 1
    assert _fits_by_full_pass(pts, cfg, got)


def _rect_contour():
    img = filled_rect_image(48, 38, 4, 4, 43, 33)
    return trace_boundaries(img)[0]


def test_assemble_spline_rectangle():
    contour = _rect_contour()
    corners = detect_corners(contour, CornerParams())
    spline = assemble_spline(contour, corners, FitConfig())
    assert len(spline.segments) == 4
    assert set(spline.breaks) == set(corners.indices)
    for seg in spline.segments:
        assert seg.flags == [FLAG_CORNER]
        p0, p1, p2, p3 = seg.curve
        cross1 = (p3.x - p0.x) * (p1.y - p0.y) - (p3.y - p0.y) * (p1.x - p0.x)
        cross2 = (p3.x - p0.x) * (p2.y - p0.y) - (p3.y - p0.y) * (p2.x - p0.x)
        assert abs(cross1) <= 1e-6 and abs(cross2) <= 1e-6


def test_assemble_spline_g0_continuity():
    loop = trace_boundaries(circle_image(50))[0]
    spline, corners = fit_outline(loop)
    assert corners.indices == []
    segs = spline.segments
    assert len(segs) >= 2
    for cur, nxt in zip(segs, segs[1:] + segs[:1]):
        assert cur.curve.p3 == nxt.curve.p0
        assert cur.span[1] == nxt.span[0]
    assert set(spline.breaks).issuperset(set(corners.indices))
    mx, avg = spline_errors(loop, spline)
    assert avg <= 1.5


def test_assemble_spline_deterministic():
    loop = trace_boundaries(circle_image(30))[0]
    a = assemble_spline(loop, detect_corners(loop), FitConfig())
    b = assemble_spline(loop, detect_corners(loop), FitConfig())
    assert [s.curve for s in a.segments] == [s.curve for s in b.segments]
    assert [s.span for s in a.segments] == [s.span for s in b.segments]


def test_spline_breaks_superset_of_corners():
    img = filled_rect_image(80, 60, 6, 6, 73, 53)
    contour = trace_boundaries(img)[0]
    corners = detect_corners(contour)
    spline = assemble_spline(contour, corners, FitConfig())
    assert set(spline.breaks).issuperset(set(corners.indices))


def test_continuous_two_cubic_outline():
    # exact synthetic outline: two chord-aligned cubics joined at two sharp
    # corners, fed to the full per-loop pipeline without rasterization;
    # sampled at roughly pixel spacing so the support chord sees the same
    # arc lengths it would on traced input
    from beziertrace.contour import Contour
    a, b = Point2(0.0, 0.0), Point2(260.0, 0.0)
    upper = chord_aligned_cubic(a, b, 95.0, 95.0)
    lower = chord_aligned_cubic(b, a, 95.0, 95.0)
    pts = uniform_samples(upper, 300) + uniform_samples(lower, 300)[1:-1]
    contour = Contour(list(pts))
    spline, corners = fit_outline(contour)
    assert len(corners) == 2
    assert {tuple(contour.points[i]) for i in corners.indices} == \
        {(0.0, 0.0), (260.0, 0.0)}
    assert len(spline.segments) == 2
    mx, avg = spline_errors(contour, spline)
    assert mx < 1e-3
    assert avg <= mx
