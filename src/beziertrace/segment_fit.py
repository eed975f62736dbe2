"""Closed-form control point estimation for one outline segment.

Every usable contour sample, paired with the sample at its mirror parameter,
pins the two interior control points of a cubic exactly: subtracting the
known endpoint terms from both samples leaves a 2x2 linear system whose
weights swap places between the two equations.  One such candidate pair is
solved per sample; the cloud of candidates is pruned of joint outliers and
its means become the fitted control points.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from .bezier_core import CubicBezier, Point2, blend, project_parameter
from .errors import (DegenerateSegmentError, DomainError, PreconditionError,
                     SingularParameterError)

# solve denominators smaller than this are rejected outright
_DEN_FLOOR = 1e-9

# backward travel along the chord (in pixels) beyond which a non-monotone
# projection counts as a genuine hook rather than quantization jitter
_HOOK_TOLERANCE_PX = 2.0


@dataclass
class FitConfig:
    """Tuning for candidate generation, pruning, and subdivision."""

    removal_rate: float = 0.05
    removal_iters: int = 2
    spread_threshold: float = 10.0
    eps_t: float = 1e-3
    min_segment_points: int = 8
    max_error: float | None = None  # optional extra subdivision trigger, px

    def __post_init__(self):
        if not 0.0 <= self.removal_rate < 0.5:
            raise DomainError("removal_rate must be in [0, 0.5)")
        if self.removal_iters < 0:
            raise DomainError("removal_iters must be non-negative")
        if not 0.0 < self.spread_threshold < math.inf:  # also rejects NaN
            raise DomainError("spread_threshold must be finite and positive")
        if not 0.0 < self.eps_t < 0.25:
            raise DomainError("eps_t must be in (0, 0.25)")
        if self.min_segment_points < 4:
            raise DomainError("min_segment_points must be at least 4")
        if self.max_error is not None and not 0.0 < self.max_error < math.inf:
            raise DomainError("max_error must be finite and positive when set")


@dataclass
class SegmentSamples:
    """A segment's points with their chord parameters.

    Parameters are strictly increasing with the endpoints pinned to exactly
    0 and 1; arc_length_fallback records that chord projection was not
    monotone and cumulative chord length was used instead.
    """

    pts: list[Point2]
    params: list[float]
    arc_length_fallback: bool = False


@dataclass
class CandidatePair:
    """One per-sample solution for the two interior control points."""

    t: float
    p1: Point2
    p2: Point2


@dataclass
class CandidateSpread:
    """Candidate cloud with its dispersion statistics.

    Means and per-coordinate population variances are kept for both control
    points; each radius is the largest candidate distance from its mean.
    """

    candidates: list[CandidatePair]
    mean1: Point2 = Point2(0.0, 0.0)
    mean2: Point2 = Point2(0.0, 0.0)
    var1: Point2 = Point2(0.0, 0.0)
    var2: Point2 = Point2(0.0, 0.0)
    radius1: float = 0.0
    radius2: float = 0.0

    @classmethod
    def from_candidates(cls, candidates: list[CandidatePair]) -> CandidateSpread:
        if not candidates:
            return cls([])
        n = len(candidates)
        m1x = math.fsum(c.p1.x for c in candidates) / n
        m1y = math.fsum(c.p1.y for c in candidates) / n
        m2x = math.fsum(c.p2.x for c in candidates) / n
        m2y = math.fsum(c.p2.y for c in candidates) / n
        v1x = math.fsum((c.p1.x - m1x) ** 2 for c in candidates) / n
        v1y = math.fsum((c.p1.y - m1y) ** 2 for c in candidates) / n
        v2x = math.fsum((c.p2.x - m2x) ** 2 for c in candidates) / n
        v2y = math.fsum((c.p2.y - m2y) ** 2 for c in candidates) / n
        r1 = max(math.hypot(c.p1.x - m1x, c.p1.y - m1y) for c in candidates)
        r2 = max(math.hypot(c.p2.x - m2x, c.p2.y - m2y) for c in candidates)
        return cls(list(candidates), Point2(m1x, m1y), Point2(m2x, m2y),
                   Point2(v1x, v1y), Point2(v2x, v2y), r1, r2)


def parameterize(pts: list[Point2]) -> SegmentSamples:
    """Chord-projection parameters for a segment's points.

    Falls back to normalized cumulative chord length when the segment
    genuinely hooks back over its chord (projection retreats by more than a
    couple of pixels).  Sub-pixel retreats are ordinary quantization jitter
    on traced outlines and are repaired in place instead, so that raster
    input keeps the chord-projection parameterization the solve assumes.
    """
    if len(pts) < 2:
        raise DegenerateSegmentError("need at least 2 points")
    a, b = pts[0], pts[-1]
    if a == b:
        raise DegenerateSegmentError("segment endpoints coincide")
    ts = [project_parameter(p, a, b) for p in pts]
    ts[0] = 0.0
    ts[-1] = 1.0
    chord = math.hypot(b.x - a.x, b.y - a.y)
    running = 0.0
    excursion = 0.0
    for t in ts[1:]:
        if t > running:
            running = t
        elif running - t > excursion:
            excursion = running - t
    fallback = excursion * chord > _HOOK_TOLERANCE_PX
    if not fallback:
        repaired = _repair_increasing(ts)
        if repaired is None:
            fallback = True
        else:
            ts = repaired
    if fallback:
        ts = _arc_length_params(pts)
    return SegmentSamples(list(pts), ts, fallback)


def _repair_increasing(ts: list[float]) -> list[float] | None:
    """Nudge jittered parameters into a strictly increasing sequence.

    Returns None when the values are too crowded to separate (which means
    the projection is degenerate and arc length should be used instead).
    """
    eps = 1e-12
    out = list(ts)
    for i in range(1, len(out)):
        if out[i] <= out[i - 1]:
            out[i] = out[i - 1] + eps
    for i in range(len(out) - 2, 0, -1):
        if out[i] >= out[i + 1]:
            out[i] = out[i + 1] - eps
    for t0, t1 in zip(out, out[1:]):
        if t1 <= t0:
            return None
    return out


def _arc_length_params(pts: list[Point2]) -> list[float]:
    ts = [0.0]
    total = 0.0
    for p, q in zip(pts, pts[1:]):
        step = math.hypot(q.x - p.x, q.y - p.y)
        if step == 0.0:
            raise DegenerateSegmentError("duplicate consecutive points")
        total += step
        ts.append(total)
    ts = [t / total for t in ts]
    ts[-1] = 1.0
    return ts


def sample_at(s: SegmentSamples, t: float) -> Point2:
    """Piecewise-linear interpolation of the segment polyline at parameter t."""
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"sample parameter {t!r} outside [0, 1]")
    ts = s.params
    i = bisect_right(ts, t) - 1
    if i >= len(ts) - 1:
        return s.pts[-1]
    w = (t - ts[i]) / (ts[i + 1] - ts[i])
    p, q = s.pts[i], s.pts[i + 1]
    return Point2(p.x + w * (q.x - p.x), p.y + w * (q.y - p.y))


def solve_candidate(p0: Point2, p3: Point2, c_at: Point2, c_at_mirror: Point2,
                    t: float, eps_t: float = 1e-3) -> tuple[Point2, Point2]:
    """Solve the two interior control points from one sample/mirror pair.

    c_at is the segment evaluated at t, c_at_mirror at 1 - t.  The system is
    singular at t = 0.5 (the two interior weights coincide) and both
    interior weights vanish at the endpoints, so parameters within eps_t of
    0, 0.5, or 1 are rejected.
    """
    if t < eps_t or t > 1.0 - eps_t or abs(t - 0.5) < eps_t:
        raise SingularParameterError(
            f"parameter {t!r} within {eps_t} of 0, 0.5, or 1")
    bt = blend(t)
    bm = blend(1.0 - t)
    den = bt.b1 * bt.b1 - bt.b2 * bt.b2
    if abs(den) < _DEN_FLOOR:
        raise SingularParameterError(f"vanishing solve denominator at t={t!r}")
    c1x = c_at.x - p0.x * bt.b0 - p3.x * bt.b3
    c1y = c_at.y - p0.y * bt.b0 - p3.y * bt.b3
    c2x = c_at_mirror.x - p0.x * bm.b0 - p3.x * bm.b3
    c2y = c_at_mirror.y - p0.y * bm.b0 - p3.y * bm.b3
    p1 = Point2((c1x * bt.b1 - c2x * bt.b2) / den,
                (c1y * bt.b1 - c2y * bt.b2) / den)
    p2 = Point2((c2x * bt.b1 - c1x * bt.b2) / den,
                (c2y * bt.b1 - c1y * bt.b2) / den)
    return p1, p2


def build_spread(s: SegmentSamples, cfg: FitConfig) -> CandidateSpread:
    """One candidate pair per interior sample with a usable parameter.

    Only parameters in (eps_t, 0.5 - eps_t) are used: each such parameter
    paired with its mirror forms the same system the mirrored pair would,
    so the upper half would only duplicate equations.
    """
    if len(s.pts) < cfg.min_segment_points:
        raise PreconditionError(
            f"segment of {len(s.pts)} points, need {cfg.min_segment_points}")
    p0, p3 = s.pts[0], s.pts[-1]
    lo = cfg.eps_t
    hi = 0.5 - cfg.eps_t
    candidates = []
    for i in range(1, len(s.pts) - 1):
        t = s.params[i]
        if not lo < t < hi:
            continue
        mirror = sample_at(s, 1.0 - t)
        try:
            p1, p2 = solve_candidate(p0, p3, s.pts[i], mirror, t, cfg.eps_t)
        except SingularParameterError:
            continue
        candidates.append(CandidatePair(t, p1, p2))
    return CandidateSpread.from_candidates(candidates)


def prune_spread(sp: CandidateSpread, cfg: FitConfig) -> CandidateSpread:
    """Repeatedly drop the worst joint outlier pairs and refresh statistics.

    Each iteration scores every pair by its squared distance from the
    current means (both control points together), removes the
    ceil(removal_rate * count) highest scores, and recomputes statistics.
    At least one candidate always survives.
    """
    if not sp.candidates:
        return sp
    spread = sp
    for _ in range(cfg.removal_iters):
        cands = spread.candidates
        k = min(math.ceil(cfg.removal_rate * len(cands)), len(cands) - 1)
        if k <= 0:
            break
        m1, m2 = spread.mean1, spread.mean2
        scores = [(c.p1.x - m1.x) ** 2 + (c.p1.y - m1.y) ** 2
                  + (c.p2.x - m2.x) ** 2 + (c.p2.y - m2.y) ** 2
                  for c in cands]
        order = sorted(range(len(cands)), key=lambda i: (-scores[i], i))
        drop = set(order[:k])
        spread = CandidateSpread.from_candidates(
            [c for i, c in enumerate(cands) if i not in drop])
    return spread


def chord_fit(p0: Point2, p3: Point2) -> CubicBezier:
    """Straight-line cubic: interior controls at thirds of the chord."""
    dx = p3.x - p0.x
    dy = p3.y - p0.y
    return CubicBezier(p0,
                       Point2(p0.x + dx / 3.0, p0.y + dy / 3.0),
                       Point2(p0.x + 2.0 * dx / 3.0, p0.y + 2.0 * dy / 3.0),
                       p3)


def fit_segment(pts: list[Point2],
                cfg: FitConfig | None = None) -> tuple[CubicBezier, CandidateSpread]:
    """Fit one cubic to a point run.

    Endpoints are pinned to the run's first and last points.  Short runs
    and runs yielding no candidates fall back to the straight chord fit,
    recognizable by the returned spread being empty.
    """
    cfg = cfg or FitConfig()
    if len(pts) < 2:
        raise DegenerateSegmentError("need at least 2 points")
    p0, p3 = pts[0], pts[-1]
    if p0 == p3:
        raise DegenerateSegmentError("segment endpoints coincide")
    if len(pts) >= cfg.min_segment_points:
        spread = build_spread(parameterize(pts), cfg)
        if spread.candidates:
            spread = prune_spread(spread, cfg)
            return CubicBezier(p0, spread.mean1, spread.mean2, p3), spread
    return chord_fit(p0, p3), CandidateSpread([])
