"""Vectorize closed raster outlines into cubic Bezier splines.

Pipeline: trace a binary image into closed pixel loops, break each loop at
detected corners, fit one cubic per corner range from the per-sample
closed-form control point candidates, subdivide while the candidate spread
stays too dispersed, then measure and serialize the result.
"""

from .bezier_core import (BlendingVector, CubicBezier, Point2, blend, evaluate,
                          perpendicular_distance, project_parameter)
from .contour import (Contour, ContourDocument, RasterImage, load_image,
                      read_contour, trace_boundaries, write_contour)
from .corner_detect import CornerParams, CornerSet, detect_corners, \
    segment_boundaries
from .errors import (BezierTraceError, ConsistencyError, DegenerateChordError,
                     DegenerateSegmentError, DomainError, FormatError,
                     PreconditionError, SingularParameterError)
from .metrics import (FitReport, compression_ratio, curve_distances,
                      fit_report, point_deviation, report_from_errors,
                      spline_errors)
from .render_io import SplineDocument, read_spline, to_svg, write_spline
from .segment_fit import (CandidatePair, CandidateSpread, FitConfig,
                          SegmentSamples, build_spread, chord_fit, fit_segment,
                          parameterize, prune_spread, sample_at,
                          solve_candidate)
from .subdivision import (FittedSegment, Spline, assemble_spline,
                          fit_outline, fit_recursive, needs_subdivision,
                          split_point)

__version__ = "0.1.0"

__all__ = [
    "BlendingVector", "CubicBezier", "Point2", "blend", "evaluate",
    "perpendicular_distance", "project_parameter",
    "Contour", "ContourDocument", "RasterImage", "load_image", "read_contour",
    "trace_boundaries", "write_contour",
    "CornerParams", "CornerSet", "detect_corners", "segment_boundaries",
    "BezierTraceError", "ConsistencyError", "DegenerateChordError",
    "DegenerateSegmentError", "DomainError", "FormatError",
    "PreconditionError", "SingularParameterError",
    "FitReport", "compression_ratio", "curve_distances", "fit_report",
    "point_deviation", "report_from_errors", "spline_errors",
    "SplineDocument", "read_spline", "to_svg", "write_spline",
    "CandidatePair", "CandidateSpread", "FitConfig", "SegmentSamples",
    "build_spread", "chord_fit", "fit_segment", "parameterize",
    "prune_spread", "sample_at", "solve_candidate",
    "FittedSegment", "Spline", "assemble_spline", "fit_outline",
    "fit_recursive", "needs_subdivision", "split_point",
    "__version__",
]
