import math
import random

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from beziertrace import segment_fit
from beziertrace.bezier_core import CubicBezier, Point2, blend, evaluate
from beziertrace.contour import trace_boundaries
from beziertrace.errors import (DegenerateChordError, DegenerateSegmentError,
                                DomainError, PreconditionError,
                                SingularParameterError)
from beziertrace.segment_fit import (CandidatePair, CandidateSpread, FitConfig,
                                     build_spread, chord_fit, fit_segment,
                                     parameterize, prune_spread, sample_at,
                                     solve_candidate)
from beziertrace.subdivision import FLAG_FALLBACK, fit_outline

from _reference import reference_fit_segment
from helpers import (chord_aligned_cubic, rasterize_polygon, star_polygon,
                     uniform_samples)


STRAIGHT_RUN = [Point2(float(i), 0.0) for i in range(11)]


# ------------------------------- parameterize --------------------------------


def test_parameterize_straight_run():
    s = parameterize(STRAIGHT_RUN)
    assert not s.arc_length_fallback
    assert s.params == pytest.approx([i / 10 for i in range(11)], abs=1e-15)
    assert s.params[0] == 0.0 and s.params[-1] == 1.0


def test_parameterize_semicircle_apex():
    pts = [Point2(5.0 - 5.0 * math.cos(a), 5.0 * math.sin(a))
           for a in [math.pi * i / 10 for i in range(11)]]
    s = parameterize(pts)
    assert not s.arc_length_fallback
    assert s.params[5] == pytest.approx(0.5, abs=1e-12)


def test_parameterize_hook_falls_back_to_arc_length():
    # tail curls back over the chord: projection retreats by several pixels
    pts = [Point2(x, y) for x, y in
           [(0, 0), (4, 0), (8, 0), (12, 0), (15, 2), (16, 5), (14, 8),
            (10, 9), (7, 8)]]
    s = parameterize(pts)
    assert s.arc_length_fallback
    total = sum(math.hypot(q.x - p.x, q.y - p.y)
                for p, q in zip(pts, pts[1:]))
    acc = 0.0
    expect = [0.0]
    for p, q in zip(pts, pts[1:]):
        acc += math.hypot(q.x - p.x, q.y - p.y)
        expect.append(acc / total)
    assert s.params == pytest.approx(expect, abs=1e-12)


def test_parameterize_repairs_quantization_ties():
    # a raster staircase with zero-increment steps keeps chord projection
    pts = [Point2(x, y) for x, y in
           [(0, 0), (1, 0), (2, 0), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1),
            (7, 0), (8, 0), (10, 0)]]
    s = parameterize(pts)
    assert not s.arc_length_fallback
    assert all(b > a for a, b in zip(s.params, s.params[1:]))


def test_parameterize_keeps_the_last_parameter_pinned():
    # (10.3, 0.5) projects past the chord's end, within the hook tolerance;
    # the repair once carried it into the last parameter, 1.030000000001
    pts = [Point2(x, y) for x, y in
           [(0, 0), (3, 1), (6, 1), (10.3, 0.5), (10, 0)]]
    s = parameterize(pts)
    assert not s.arc_length_fallback
    assert s.params == [0.0, 0.3, 0.6, 1.0 - 1e-12, 1.0]
    assert sample_at(s, 1.0) == pts[-1]


@given(st.lists(st.tuples(st.floats(-1.2, 1.2), st.floats(-3.0, 3.0)),
                min_size=1, max_size=30))
def test_parameterize_pins_both_ends_of_jittered_runs(jitter):
    # each interior point strays at most 1.2 px along the chord, so none
    # retreats 2 px behind another, while those near the end may project
    # past it
    end = len(jitter) + 1
    pts = ([Point2(0.0, 0.0)]
           + [Point2(i + dx, dy) for i, (dx, dy) in enumerate(jitter, 1)]
           + [Point2(float(end), 0.0)])
    s = parameterize(pts)
    assert not s.arc_length_fallback
    assert s.params[0] == 0.0 and s.params[-1] == 1.0
    assert all(b > a for a, b in zip(s.params, s.params[1:]))
    assert sample_at(s, 1.0) == pts[-1]


def test_parameterize_degenerate():
    with pytest.raises(DegenerateSegmentError):
        parameterize([Point2(1, 1)])
    with pytest.raises(DegenerateSegmentError):
        parameterize([Point2(1, 1), Point2(3, 2), Point2(1, 1)])


# --------------------------------- sample_at ----------------------------------


def test_sample_at_nodes_exact():
    s = parameterize(STRAIGHT_RUN)
    for i, t in enumerate(s.params):
        assert sample_at(s, t) == STRAIGHT_RUN[i]


def test_sample_at_interpolates():
    s = parameterize(STRAIGHT_RUN)
    assert sample_at(s, 0.55) == pytest.approx((5.5, 0.0), abs=1e-12)


def test_sample_at_domain():
    s = parameterize(STRAIGHT_RUN)
    assert sample_at(s, 0.0) == STRAIGHT_RUN[0]
    assert sample_at(s, 1.0) == STRAIGHT_RUN[-1]
    with pytest.raises(DomainError):
        sample_at(s, 1.2)


# ------------------------------- solve_candidate ------------------------------


def test_solve_candidate_hand_case():
    p1, p2 = solve_candidate(Point2(0, 0), Point2(1, 0),
                             Point2(1 / 3, 2 / 3), Point2(2 / 3, 2 / 3), 1 / 3)
    assert p1 == pytest.approx((1 / 3, 1.0), abs=1e-12)
    assert p2 == pytest.approx((2 / 3, 1.0), abs=1e-12)


def test_solve_candidate_singular_at_half():
    with pytest.raises(SingularParameterError):
        solve_candidate(Point2(0, 0), Point2(1, 0),
                        Point2(0.5, 0.75), Point2(0.5, 0.75), 0.5)


@pytest.mark.parametrize("t", [0.0, 1.0, 0.0005, 0.9999, 0.4995])
def test_solve_candidate_singular_window(t):
    with pytest.raises(SingularParameterError):
        solve_candidate(Point2(0, 0), Point2(1, 0),
                        Point2(0.2, 0.1), Point2(0.8, 0.1), t)


def test_solve_candidate_mirror_symmetry():
    # feeding the mirrored sample pair at the mirrored parameter builds the
    # same system (the weights swap places), so the solution is unchanged;
    # reversing the segment direction as well swaps the two control points
    rng = random.Random(3)
    for _ in range(200):
        p0 = Point2(rng.uniform(-50, 50), rng.uniform(-50, 50))
        p3 = Point2(rng.uniform(-50, 50), rng.uniform(-50, 50))
        ca = Point2(rng.uniform(-50, 50), rng.uniform(-50, 50))
        cm = Point2(rng.uniform(-50, 50), rng.uniform(-50, 50))
        t = rng.uniform(0.05, 0.45)
        a1, a2 = solve_candidate(p0, p3, ca, cm, t)
        s1, s2 = solve_candidate(p0, p3, cm, ca, 1.0 - t)
        assert s1 == pytest.approx(a1, abs=1e-9)
        assert s2 == pytest.approx(a2, abs=1e-9)
        r1, r2 = solve_candidate(p3, p0, ca, cm, 1.0 - t)
        assert r1 == pytest.approx(a2, abs=1e-9)
        assert r2 == pytest.approx(a1, abs=1e-9)


def test_solve_candidate_residual():
    rng = random.Random(4)
    for _ in range(200):
        p0 = Point2(rng.uniform(-50, 50), rng.uniform(-50, 50))
        p3 = Point2(rng.uniform(-50, 50), rng.uniform(-50, 50))
        ca = Point2(rng.uniform(-50, 50), rng.uniform(-50, 50))
        cm = Point2(rng.uniform(-50, 50), rng.uniform(-50, 50))
        t = rng.uniform(0.05, 0.45)
        p1, p2 = solve_candidate(p0, p3, ca, cm, t)
        bt, bm = blend(t), blend(1.0 - t)
        c1 = (ca.x - p0.x * bt.b0 - p3.x * bt.b3,
              ca.y - p0.y * bt.b0 - p3.y * bt.b3)
        c2 = (cm.x - p0.x * bm.b0 - p3.x * bm.b3,
              cm.y - p0.y * bm.b0 - p3.y * bm.b3)
        assert p1.x * bt.b1 + p2.x * bt.b2 == pytest.approx(c1[0], abs=1e-9)
        assert p1.y * bt.b1 + p2.y * bt.b2 == pytest.approx(c1[1], abs=1e-9)
        assert p1.x * bt.b2 + p2.x * bt.b1 == pytest.approx(c2[0], abs=1e-9)
        assert p1.y * bt.b2 + p2.y * bt.b1 == pytest.approx(c2[1], abs=1e-9)


# -------------------------------- build_spread --------------------------------


def test_build_spread_exact_cubic_zero_variance():
    curve = chord_aligned_cubic(Point2(10, 20), Point2(210, 80), 55.0, -35.0)
    s = parameterize(uniform_samples(curve, 50))
    sp = build_spread(s, FitConfig())
    assert len(sp.candidates) > 10
    assert sp.radius1 <= 1e-9 and sp.radius2 <= 1e-9
    assert sp.mean1 == pytest.approx(curve.p1, abs=1e-9)
    assert sp.mean2 == pytest.approx(curve.p2, abs=1e-9)


def test_build_spread_straight_run_chord_thirds():
    s = parameterize(STRAIGHT_RUN)
    sp = build_spread(s, FitConfig(min_segment_points=8))
    assert sp.candidates
    for c in sp.candidates:
        assert c.p1 == pytest.approx((10 / 3, 0.0), abs=1e-9)
        assert c.p2 == pytest.approx((20 / 3, 0.0), abs=1e-9)
        # candidates stay on the chord line
        assert abs(c.p1.y) <= 1e-9 and abs(c.p2.y) <= 1e-9


def test_build_spread_all_parameters_singular():
    pts = [Point2(0, 0), Point2(4.9, 1.0), Point2(5.0, 1.2),
           Point2(5.1, 1.0), Point2(10, 0)]
    cfg = FitConfig(eps_t=0.02, min_segment_points=5)
    s = parameterize(pts)
    assert [round(t, 2) for t in s.params[1:-1]] == [0.49, 0.5, 0.51]
    sp = build_spread(s, cfg)
    assert sp.candidates == []


def test_build_spread_too_short():
    s = parameterize(STRAIGHT_RUN[:5])
    with pytest.raises(PreconditionError):
        build_spread(s, FitConfig(min_segment_points=8))


# -------------------------------- prune_spread --------------------------------


def _identical_spread(n, p1, p2, t0=0.1):
    cands = [CandidatePair(t0 + 0.001 * i, p1, p2) for i in range(n)]
    return CandidateSpread.from_candidates(cands)


def test_prune_identical_statistics_unchanged():
    sp = _identical_spread(20, Point2(3, 4), Point2(8, -2))
    out = prune_spread(sp, FitConfig())
    assert out.mean1 == sp.mean1 and out.mean2 == sp.mean2
    assert out.radius1 == sp.radius1 == 0.0
    assert out.radius2 == sp.radius2 == 0.0
    assert len(out.candidates) < len(sp.candidates)


def test_prune_removes_planted_outlier():
    clean1, clean2 = Point2(10, 10), Point2(50, 50)
    cands = [CandidatePair(0.1 + 0.001 * i, clean1, clean2) for i in range(20)]
    cands.append(CandidatePair(0.3, Point2(110, 10), clean2))  # 100 px off
    sp = CandidateSpread.from_candidates(cands)
    out = prune_spread(sp, FitConfig(removal_iters=1))
    assert out.mean1 == clean1
    assert out.mean2 == clean2
    assert out.radius1 == 0.0 and out.radius2 == 0.0
    assert len(out.candidates) == 19  # ceil(0.05 * 21) = 2 removed


def test_prune_radii_non_increasing_on_contaminated_clusters():
    rng = random.Random(606)
    cfg = FitConfig()
    for _ in range(100):
        n = rng.randint(8, 40)
        base1 = Point2(rng.uniform(-200, 200), rng.uniform(-200, 200))
        base2 = Point2(rng.uniform(-200, 200), rng.uniform(-200, 200))
        cands = [CandidatePair(0.1 + 0.3 * i / n, base1, base2) for i in range(n)]
        for j in range(rng.randint(0, math.ceil(cfg.removal_rate * n))):
            ang = rng.uniform(0, 2 * math.pi)
            dist = rng.uniform(30, 200)
            cands[j] = CandidatePair(
                cands[j].t,
                Point2(base1.x + dist * math.cos(ang), base1.y + dist * math.sin(ang)),
                Point2(base2.x - dist * math.sin(ang), base2.y + dist * math.cos(ang)))
        spread = CandidateSpread.from_candidates(cands)
        radii = [(spread.radius1, spread.radius2)]
        stage = spread
        for _ in range(cfg.removal_iters):
            stage = prune_spread(stage, FitConfig(removal_iters=1))
            radii.append((stage.radius1, stage.radius2))
        for (a1, a2), (b1, b2) in zip(radii, radii[1:]):
            assert b1 <= a1 + 1e-9
            assert b2 <= a2 + 1e-9


def test_prune_never_empties_spread():
    sp = _identical_spread(2, Point2(0, 0), Point2(1, 1))
    out = prune_spread(sp, FitConfig(removal_rate=0.49, removal_iters=10))
    assert len(out.candidates) == 1


# -------------------------------- fit_segment ---------------------------------


def test_fit_segment_exact_recovery():
    curve = chord_aligned_cubic(Point2(-40, 12), Point2(180, 95), 70.0, 40.0)
    fitted, spread = fit_segment(uniform_samples(curve, 50), FitConfig())
    assert spread.candidates
    assert fitted.p0 == curve.p0 and fitted.p3 == curve.p3
    assert fitted.p1 == pytest.approx(curve.p1, abs=1e-9)
    assert fitted.p2 == pytest.approx(curve.p2, abs=1e-9)


def test_fit_segment_straight_line():
    fitted, spread = fit_segment(STRAIGHT_RUN, FitConfig())
    assert spread.candidates
    for p in fitted:
        assert abs(p.y) <= 1e-9


def test_fit_segment_short_run_falls_back():
    pts = STRAIGHT_RUN[:4]
    fitted, spread = fit_segment(pts, FitConfig(min_segment_points=8))
    assert spread.candidates == []
    assert fitted == chord_fit(pts[0], pts[-1])


def test_fit_segment_singular_params_fall_back():
    pts = [Point2(0, 0), Point2(4.9, 1.0), Point2(5.0, 1.2),
           Point2(5.1, 1.0), Point2(10, 0)]
    cfg = FitConfig(eps_t=0.02, min_segment_points=5)
    fitted, spread = fit_segment(pts, cfg)
    assert spread.candidates == []
    assert fitted == chord_fit(pts[0], pts[-1])
    assert all(math.isfinite(v) for p in fitted for v in p)


def test_fit_segment_rigid_motion_equivariance():
    curve = chord_aligned_cubic(Point2(0, 0), Point2(150, 40), 45.0, -25.0)
    pts = uniform_samples(curve, 60)
    ang = 0.7
    ca, sa = math.cos(ang), math.sin(ang)

    def rigid(p):
        return Point2(ca * p.x - sa * p.y + 31.0, sa * p.x + ca * p.y - 17.0)

    base, _ = fit_segment(pts, FitConfig())
    moved, _ = fit_segment([rigid(p) for p in pts], FitConfig())
    for got, want in zip(moved, (rigid(p) for p in base)):
        assert got == pytest.approx(want, abs=1e-6)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e160],
                         ids=["nan", "inf", "-inf", "1e160"])
@pytest.mark.parametrize("where", [0, 1, -1], ids=["start", "inside", "end"])
@pytest.mark.parametrize("n", [20, 3], ids=["fitted", "chord"])
def test_fit_segment_rejects_coordinates_out_of_range(bad, where, n):
    # the distance layer's precondition: finite and below 1e153 in size
    curve = chord_aligned_cubic(Point2(0, 0), Point2(60, 20), 15.0, -10.0)
    for axis in "xy":
        pts = uniform_samples(curve, n)
        pts[where] = pts[where]._replace(**{axis: bad})
        with pytest.raises(DomainError):
            fit_segment(pts, FitConfig())


def test_fit_segment_in_range_overflow_is_domain_error():
    # in range, but a candidate is an offset over a solve denominator near
    # 1e-5, so its squared offset from the means is past the float range
    rng = random.Random(2)
    pts = [Point2(9e152 * i / 999, rng.uniform(-5e152, 5e152))
           for i in range(1000)]
    pts[0], pts[-1] = Point2(0.0, 0.0), Point2(9e152, 0.0)
    with pytest.raises(DomainError, match="squared offset overflows"):
        fit_segment(pts, FitConfig())


def test_fit_segment_degenerate():
    with pytest.raises(DegenerateSegmentError):
        fit_segment([Point2(0, 0)], FitConfig())
    with pytest.raises(DegenerateSegmentError):
        fit_segment([Point2(2, 2), Point2(3, 1), Point2(2, 2)], FitConfig())


def test_chord_fit_thirds():
    c = chord_fit(Point2(0, 0), Point2(10, 0))
    assert c.p1 == pytest.approx((10 / 3, 0.0), abs=1e-12)
    assert c.p2 == pytest.approx((20 / 3, 0.0), abs=1e-12)


def test_fit_config_validation():
    with pytest.raises(DomainError):
        FitConfig(removal_rate=0.6)
    with pytest.raises(DomainError):
        FitConfig(spread_threshold=0.0)
    with pytest.raises(DomainError):
        FitConfig(eps_t=0.3)
    with pytest.raises(DomainError):
        FitConfig(min_segment_points=2)
    with pytest.raises(DomainError):
        FitConfig(max_error=-1.0)


@pytest.mark.parametrize("field, value", [("removal_iters", 1.5),
                                          ("min_segment_points", 8.5),
                                          ("removal_iters", False),
                                          ("min_segment_points", True)])
def test_fit_config_rejects_counts_that_are_not_ints(field, value):
    # removal_iters=1.5 used to pass and then fail in range() with a bare
    # TypeError; min_segment_points=8.5 passed silently; False passed as 0,
    # and True was refused as "must be at least 4"
    with pytest.raises(DomainError, match=field):
        FitConfig(**{field: value})


# ------------------------- fit_segment against the oracle -------------------------


def _plain(curve, spread):
    """fit_segment's result in reference_fit_segment's shape."""
    return (tuple(map(tuple, curve)),
            [(c.t, tuple(c.p1), tuple(c.p2)) for c in spread.candidates],
            tuple(spread.mean1), tuple(spread.mean2),
            spread.radius1, spread.radius2)


_HOOK = [(0, 0), (4, 0), (8, 0), (12, 0), (15, 2), (16, 5), (14, 8), (10, 9),
         (7, 8)]
_STAIRS = [(0, 0), (1, 0), (2, 0), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1),
           (7, 0), (8, 0), (10, 0)]
# on the chord (0, 0)-(1000, 0), t is x / 1000: x = 1 and x = 499 sit exactly
# on the eps_t = 1e-3 window's ends, 1.001 and 498.999 just inside it
_WINDOW = [(0, 0), (1, 3), (1.001, 5), (100, 9), (498.999, 7), (499, 6),
           (499.5, 5), (500, 4), (750, 2), (998.999, 1), (1000, 0)]
# with eps_t = 1e-6, t = 1e-5 (x = 0.01) has a solve denominator of 9e-10,
# under the 1e-9 floor, and t = 2e-5 one of 3.6e-9; with eps_t = 1e-12,
# t = 0.5 - 2e-10 has 2.3e-10
_FLOOR = [(0, 0), (0.01, 0.5), (0.02, 1), (1, 2), (300, 8), (499.9999998, 6),
          (700, 3), (999.99, 1), (1000, 0)]
_NOISY = [(round(50 * math.cos(a) * 2) / 2, round(50 * math.sin(a) * 2) / 2)
          for a in (math.pi * (0.05 + 0.9 * i / 29) for i in range(30))]
_SINGULAR = [(0, 0), (4.9, 1.0), (5.0, 1.2), (5.1, 1.0), (10, 0)]
# two candidates mirrored about their means: equal scores, and the pruning
# round drops the lower index
_ZIGZAG = [(0, 0), (1, 1), (2, 0), (3, 1), (4, 0), (5, 1)]


@st.composite
def _fit_cases(draw):
    n = draw(st.integers(2, 40))
    if draw(st.booleans()):
        # raster-like: a random cubic at increasing parameters, on half pixels
        coord = st.integers(-80, 80)
        c = CubicBezier(*(Point2(draw(coord), draw(coord)) for _ in range(4)))
        us = sorted(draw(st.lists(st.floats(0, 1), min_size=n, max_size=n)))
        pts = [(round(q.x * 2) / 2, round(q.y * 2) / 2)
               for q in (evaluate(c, u) for u in us)]
    else:
        # a free polyline, which often hooks back over its chord
        coord = st.integers(-20, 20)
        pts = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
    assume(pts[0] != pts[-1])
    cfg = FitConfig(
        removal_rate=draw(st.sampled_from([0.0, 0.05, 0.2, 0.45])),
        removal_iters=draw(st.integers(0, 3)),
        eps_t=draw(st.sampled_from([1e-3, 0.02, 1e-6, 1e-12])),
        min_segment_points=draw(st.integers(4, 10)))
    return pts, cfg


@given(_fit_cases())
@example((_HOOK, FitConfig(min_segment_points=4)))
@example((_STAIRS, FitConfig(removal_iters=0)))
@example((_WINDOW, FitConfig(min_segment_points=4)))
@example((_FLOOR, FitConfig(eps_t=1e-6, min_segment_points=4)))
@example((_FLOOR, FitConfig(eps_t=1e-12, min_segment_points=4)))
@example((_SINGULAR, FitConfig(eps_t=0.02, min_segment_points=5)))
@example((_ZIGZAG, FitConfig(min_segment_points=4)))
@example((_NOISY, FitConfig(removal_rate=0.2, removal_iters=0)))
@example((_NOISY, FitConfig(removal_rate=0.2, removal_iters=1)))
@example((_NOISY, FitConfig(removal_rate=0.2, removal_iters=2)))
@example((_NOISY, FitConfig(removal_rate=0.2, removal_iters=3)))
def test_fit_segment_matches_reference_oracle(case):
    # bit for bit: every curve, candidate, mean and radius has the same repr
    raw, cfg = case
    pts = [Point2(float(x), float(y)) for x, y in raw]
    try:
        want = reference_fit_segment(
            [tuple(p) for p in pts], cfg.removal_rate, cfg.removal_iters,
            cfg.eps_t, cfg.min_segment_points)
    except ValueError:  # coincident chord ends or duplicate points
        with pytest.raises((DegenerateSegmentError, DegenerateChordError)):
            fit_segment(pts, cfg)
        return
    assert repr(_plain(*fit_segment(pts, cfg))) == repr(want)


@given(_fit_cases())
@example((_ZIGZAG, FitConfig(min_segment_points=4)))
@example((_NOISY, FitConfig(removal_rate=0.2, removal_iters=3)))
def test_spread_rebuilt_from_its_pairs_is_the_same_cloud(case):
    raw, cfg = case
    pts = [Point2(float(x), float(y)) for x, y in raw]
    assume(len(pts) >= cfg.min_segment_points)
    try:
        sp = build_spread(parameterize(pts), cfg)
    except (DegenerateSegmentError, DegenerateChordError):
        return
    again = CandidateSpread.from_candidates(sp.candidates)
    assert (repr((again.mean1, again.mean2, again.radius1, again.radius2))
            == repr((sp.mean1, sp.mean2, sp.radius1, sp.radius2)))
    assert (prune_spread(again, cfg).candidates
            == prune_spread(sp, cfg).candidates)


def test_fit_builds_no_pair_and_no_radius_unread(monkeypatch):
    def unread(*args):
        raise AssertionError("built though nothing read it")

    contour = trace_boundaries(rasterize_polygon(
        star_polygon(random.Random(7)), 170, 170))[0]
    monkeypatch.setattr(segment_fit, "CandidatePair", unread)
    spline, _ = fit_outline(contour)
    assert any(FLAG_FALLBACK not in s.flags for s in spline.segments)
    monkeypatch.setattr(segment_fit, "_radius", unread)
    curve, spread = fit_segment(contour.points[:40])
    assert spread.ts and curve.p1 == spread.mean1
