"""Recursive segment splitting driven by candidate spread dispersion."""

from __future__ import annotations

from dataclasses import dataclass, field

from .bezier_core import CubicBezier
from .contour import Contour
from .corner_detect import (CornerParams, CornerSet, detect_corners,
                            range_points, segment_boundaries)
# curve_distances is not called here; it stays bound because the traced
# benchmark wraps subdivision.curve_distances (perfbench/spans.py)
from .metrics import curve_distances, farthest
from .segment_fit import CandidateSpread, FitConfig, fit_segment

MAX_SPLIT_DEPTH = 16

FLAG_CORNER = "corner"          # fitted directly over a corner range
FLAG_SUBDIVIDED = "subdivided"  # produced by at least one split
FLAG_FALLBACK = "fallback"      # straight chord fit (no usable candidates)
FLAG_DEPTH_CAPPED = "depth-capped"


@dataclass
class FittedSegment:
    """One fitted cubic with its contour index span and provenance flags."""

    curve: CubicBezier
    span: tuple[int, int]
    flags: list[str]


@dataclass
class Spline:
    """Ordered cubic segments covering one closed contour, G0 at joins."""

    segments: list[FittedSegment] = field(default_factory=list)

    @property
    def breaks(self) -> list[int]:
        """Contour indices of all final break points (segment starts)."""
        return [s.span[0] for s in self.segments]


def needs_subdivision(sp: CandidateSpread, cfg: FitConfig) -> bool:
    """True when either control point's spread radius exceeds the threshold."""
    return max(sp.radius1, sp.radius2) > cfg.spread_threshold


def split_point(pts, fitted: CubicBezier, cfg: FitConfig,
                worst: tuple[int, float] | None = None) -> int | None:
    """Index of the interior point farthest from the fitted curve.

    Ties go to the smaller index and the result is clamped so both halves
    keep at least min_segment_points points; None when the run is too short
    to split at all.  worst, when given, is farthest(pts, fitted, 1,
    len(pts) - 1) already found by the caller; otherwise farthest finds it
    here, refining only the few distances that can be the largest.
    """
    msp = cfg.min_segment_points
    if len(pts) < 2 * msp:
        return None
    best_i = (worst or farthest(pts, fitted, 1, len(pts) - 1))[0]
    return min(max(best_i, msp - 1), len(pts) - msp)


def fit_recursive(pts, cfg: FitConfig | None = None) -> list[FittedSegment]:
    """Fit one corner-delimited run, splitting while the spread is too wide.

    Splits recurse on both halves with the split point duplicated as the
    new shared break; spans in the result are local to pts.
    """
    cfg = cfg or FitConfig()
    out: list[FittedSegment] = []
    _fit_into(pts, 0, cfg, 0, out)
    return out


def _fit_into(pts, offset, cfg, depth, out) -> None:
    curve, spread = fit_segment(pts, cfg)
    fallback = not spread.candidates
    wants_split = False
    worst = None
    if not fallback:
        wants_split = needs_subdivision(spread, cfg)
        if not wants_split and cfg.max_error is not None:
            # ends are pinned (distance 0.0); candidate runs have >= 4 points
            worst = farthest(pts, curve, 1, len(pts) - 1)
            wants_split = worst[1] > cfg.max_error
    if wants_split and depth < MAX_SPLIT_DEPTH:
        idx = split_point(pts, curve, cfg, worst)
        if idx is not None:
            _fit_into(pts[:idx + 1], offset, cfg, depth + 1, out)
            _fit_into(pts[idx:], offset + idx, cfg, depth + 1, out)
            return
    flags = [FLAG_FALLBACK if fallback
             else (FLAG_SUBDIVIDED if depth > 0 else FLAG_CORNER)]
    if wants_split and depth >= MAX_SPLIT_DEPTH:
        flags.append(FLAG_DEPTH_CAPPED)
    out.append(FittedSegment(curve, (offset, offset + len(pts) - 1), flags))


def assemble_spline(contour: Contour, corners: CornerSet,
                    cfg: FitConfig | None = None) -> Spline:
    """Corner ranges, recursive fits, and concatenation into one spline."""
    cfg = cfg or FitConfig()
    n = contour.n
    segments: list[FittedSegment] = []
    for a, b in segment_boundaries(contour, corners):
        pts = range_points(contour, a, b)
        for piece in fit_recursive(pts, cfg):
            s, e = piece.span
            piece.span = ((a + s) % n, (a + e) % n)
            segments.append(piece)
    return Spline(segments)


def fit_outline(contour: Contour, params: CornerParams | None = None,
                cfg: FitConfig | None = None) -> tuple[Spline, CornerSet]:
    """Full per-loop pipeline: detect corners, then assemble the spline."""
    corners = detect_corners(contour, params)
    return assemble_spline(contour, corners, cfg), corners
