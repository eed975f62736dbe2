"""Closed-form control point estimation for one outline segment.

Every usable contour sample, paired with the sample at its mirror parameter,
pins the two interior control points of a cubic exactly: subtracting the
known endpoint terms from both samples leaves a 2x2 linear system whose
weights swap places between the two equations.  One such candidate pair is
solved per sample; the cloud of candidates is pruned of joint outliers and
its means become the fitted control points.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass

from .bezier_core import CubicBezier, Point2, _check_range, _new_tuple
from .errors import (DegenerateChordError, DegenerateSegmentError, DomainError,
                     PreconditionError, SingularParameterError, require_int)

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
        require_int("removal_iters", self.removal_iters)
        if self.removal_iters < 0:
            raise DomainError("removal_iters must be non-negative")
        if not 0.0 < self.spread_threshold < math.inf:  # also rejects NaN
            raise DomainError("spread_threshold must be finite and positive")
        if not 0.0 < self.eps_t < 0.25:
            raise DomainError("eps_t must be in (0, 0.25)")
        require_int("min_segment_points", self.min_segment_points)
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
    """Candidate cloud as columns: parameters ts, control points x1, y1,
    x2, y2, and their means.  candidates and the radii (the largest
    candidate distance from its mean, 0.0 when empty) are built when read.
    """

    ts: Sequence[float] = ()
    x1: Sequence[float] = ()
    y1: Sequence[float] = ()
    x2: Sequence[float] = ()
    y2: Sequence[float] = ()
    mean1: Point2 = Point2(0.0, 0.0)
    mean2: Point2 = Point2(0.0, 0.0)

    @property
    def candidates(self) -> list[CandidatePair]:
        return [CandidatePair(t, Point2(a, b), Point2(c, d)) for t, a, b, c, d
                in zip(self.ts, self.x1, self.y1, self.x2, self.y2)]

    radius1 = property(lambda sp: _radius(sp.x1, sp.y1, sp.mean1))
    radius2 = property(lambda sp: _radius(sp.x2, sp.y2, sp.mean2))

    @classmethod
    def from_candidates(cls, candidates: list[CandidatePair]) -> CandidateSpread:
        return _spread([c.t for c in candidates], *zip(*[
            c.p1 + c.p2 for c in candidates])) if candidates else cls()


def _spread(ts, x1, y1, x2, y2) -> CandidateSpread:
    """The cloud of these columns, with their fsum means."""
    n = len(ts)
    return CandidateSpread(
        ts, x1, y1, x2, y2,
        _new_tuple(Point2, (math.fsum(x1) / n, math.fsum(y1) / n)),
        _new_tuple(Point2, (math.fsum(x2) / n, math.fsum(y2) / n)))


def _radius(xs, ys, m: Point2) -> float:
    # dist(p, m) is hypot(p.x - m.x, p.y - m.y), bit for bit
    return max(map(math.dist, zip(xs, ys), [m] * len(xs)), default=0.0)


def parameterize(pts: list[Point2]) -> SegmentSamples:
    """Chord-projection parameters for a segment's points.

    Each is project_parameter's, computed inline.  Falls back to normalized
    cumulative chord length when the segment genuinely hooks back over its
    chord (projection retreats by more than a couple of pixels).  Sub-pixel
    retreats are ordinary quantization jitter on traced outlines and are
    repaired in place instead, so that raster input keeps the
    chord-projection parameterization the solve assumes; parameters that
    already strictly increase need no repair.
    """
    if len(pts) < 2:
        raise DegenerateSegmentError("need at least 2 points")
    (ax, ay), (bx, by) = a, b = pts[0], pts[-1]
    if a == b:
        raise DegenerateSegmentError("segment endpoints coincide")
    dx, dy = bx - ax, by - ay
    d2 = dx * dx + dy * dy
    if d2 == 0.0:
        raise DegenerateChordError("chord endpoints coincide")
    ts = [((x - ax) * dx + (y - ay) * dy) / d2 for x, y in pts]
    ts[0] = 0.0
    ts[-1] = 1.0
    chord = math.hypot(dx, dy)
    running = excursion = 0.0
    jitter = False  # stays False while the parameters strictly increase
    for t in ts[1:]:
        if t > running:
            running = t
        else:
            jitter = True
            excursion = max(excursion, running - t)
    fallback = excursion * chord > _HOOK_TOLERANCE_PX
    if jitter and not fallback:
        repaired = _repair_increasing(ts)
        if repaired is None:
            fallback = True
        else:
            ts = repaired
    if fallback:
        ts = _arc_length_params(pts)
    return SegmentSamples(list(pts), ts, fallback)


def _repair_increasing(ts: list[float]) -> list[float] | None:
    """Nudge jittered parameters into a strictly increasing sequence, the
    pinned ends 0 and 1 left as they are.

    The forward pass lifts each interior parameter above the one before it,
    and the backward pass lowers each below the one after it, so a point
    that projects at or past the chord's end is pulled back below 1.
    Returns None when the values are too crowded to separate (which means
    the projection is degenerate and arc length should be used instead).
    """
    eps = 1e-12
    out = list(ts)
    for i in range(1, len(out) - 1):
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


def _solve(x0: float, y0: float, x3: float, y3: float, ax: float, ay: float,
           mx: float, my: float, t: float) -> tuple[float, ...] | None:
    """x1, y1, x2, y2 from (ax, ay) at t and (mx, my) at 1 - t, in blend's
    operation order; None when the denominator is below _DEN_FLOOR."""
    v = 1.0 - t
    vv = v * v
    b0, b1, b2, b3 = v * vv, 3.0 * t * vv, 3.0 * (t * t) * v, t * (t * t)
    den = b1 * b1 - b2 * b2
    if abs(den) < _DEN_FLOOR:
        return None
    # blend(1 - t) has u = v, so its b3 is b0, and its own v is 1 - v
    w = 1.0 - v
    m0 = w * (w * w)
    c1x, c1y = ax - x0 * b0 - x3 * b3, ay - y0 * b0 - y3 * b3
    c2x, c2y = mx - x0 * m0 - x3 * b0, my - y0 * m0 - y3 * b0
    return ((c1x * b1 - c2x * b2) / den, (c1y * b1 - c2y * b2) / den,
            (c2x * b1 - c1x * b2) / den, (c2y * b1 - c1y * b2) / den)


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
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"blend parameter {t!r} outside [0, 1]")
    sol = _solve(*p0, *p3, *c_at, *c_at_mirror, t)
    if sol is None:
        raise SingularParameterError(f"vanishing solve denominator at t={t!r}")
    return Point2(*sol[:2]), Point2(*sol[2:])


def build_spread(s: SegmentSamples, cfg: FitConfig) -> CandidateSpread:
    """One candidate pair per interior sample with a usable parameter.

    Only parameters in (eps_t, 0.5 - eps_t) are used: each such parameter
    paired with its mirror forms the same system the mirrored pair would,
    so the upper half would only duplicate equations.  The mirror sample
    is sample_at(s, 1 - t), its interval found by a pointer that only
    moves down, as the parameters increase and so 1 - t falls.
    """
    pts, ts = s.pts, s.params
    if len(pts) < cfg.min_segment_points:
        raise PreconditionError(
            f"segment of {len(pts)} points, need {cfg.min_segment_points}")
    (x0, y0), (x3, y3) = pts[0], pts[-1]
    used, sols = [], []
    last = j = len(pts) - 1  # j: the last index whose parameter is <= 1 - t
    # the usable parameters: eps_t < t < 0.5 - eps_t
    for i in range(bisect_right(ts, cfg.eps_t),
                   bisect_left(ts, 0.5 - cfg.eps_t)):
        t = ts[i]
        m = 1.0 - t
        while ts[j] > m:
            j -= 1
        if j < last:
            (px, py), (qx, qy) = pts[j], pts[j + 1]
            f = (m - ts[j]) / (ts[j + 1] - ts[j])
            mx, my = px + f * (qx - px), py + f * (qy - py)
        else:
            mx, my = x3, y3
        sol = _solve(x0, y0, x3, y3, *pts[i], mx, my, t)
        if sol is not None:
            used.append(t)
            sols.append(sol)
    return _spread(used, *zip(*sols)) if sols else CandidateSpread()


def prune_spread(sp: CandidateSpread, cfg: FitConfig) -> CandidateSpread:
    """Repeatedly drop the worst joint outlier pairs and refresh the means.

    Each round scores every pair by its squared distance from the current
    means (both control points together), removes the
    ceil(removal_rate * count) highest scores, the lower index first among
    equal scores, and takes the means of the rest.  It deletes from copies
    of the columns; the radii are computed when read.  At least one
    candidate always survives.
    """
    if not sp.ts:
        return sp
    cols = ts, x1, y1, x2, y2 = [list(c) for c in
                                 (sp.ts, sp.x1, sp.y1, sp.x2, sp.y2)]
    out = sp
    for _ in range(cfg.removal_iters):
        n = len(ts)
        k = min(math.ceil(cfg.removal_rate * n), n - 1)
        if k <= 0:
            break
        (m1x, m1y), (m2x, m2y) = out.mean1, out.mean2
        # ** 2.0 is ** 2 (pow, not d * d) without converting the int
        try:
            scores = [(a - m1x) ** 2.0 + (b - m1y) ** 2.0
                      + (c - m2x) ** 2.0 + (d - m2y) ** 2.0
                      for a, b, c, d in zip(x1, y1, x2, y2)]
        except OverflowError:  # pow raises where d * d would give inf
            raise DomainError("candidate control points too far from their "
                              "means to score: a squared offset overflows"
                              ) from None
        # nlargest is sorted(..., reverse=True)[:k], which is stable, so
        # equal scores keep index order
        worst = heapq.nlargest(k, range(n), key=scores.__getitem__)
        for i in sorted(worst, reverse=True):
            del ts[i], x1[i], y1[i], x2[i], y2[i]
        out = _spread(*cols)
    return out


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
    recognizable by the returned spread being empty.  A coordinate that is
    not finite or not below 1e153 in size is a DomainError (_check_range),
    as is a run whose candidates lie too far apart to score.
    """
    cfg = cfg or FitConfig()
    if len(pts) < 2:
        raise DegenerateSegmentError("need at least 2 points")
    p0, p3 = pts[0], pts[-1]
    if p0 == p3:
        raise DegenerateSegmentError("segment endpoints coincide")
    _check_range(pts)
    if len(pts) >= cfg.min_segment_points:
        spread = build_spread(parameterize(pts), cfg)
        if spread.ts:
            spread = prune_spread(spread, cfg)
            return CubicBezier(p0, spread.mean1, spread.mean2, p3), spread
    return chord_fit(p0, p3), CandidateSpread()
