import math
import random

import pytest

from beziertrace.bezier_core import Point2, blend
from beziertrace.errors import (DegenerateSegmentError, DomainError,
                                PreconditionError, SingularParameterError)
from beziertrace.segment_fit import (CandidatePair, CandidateSpread, FitConfig,
                                     build_spread, chord_fit, fit_segment,
                                     parameterize, prune_spread, sample_at,
                                     solve_candidate)

from helpers import chord_aligned_cubic, uniform_samples


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
