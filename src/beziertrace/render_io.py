"""Spline serialization: SVG rendering and a lossless JSON document format.

The JSON document is the lossless channel (full float precision, canonical
key order, versioned with ``format_version``); SVG is presentation with
coordinates printed to three decimals.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from .bezier_core import CubicBezier, Point2
from .contour import _integer, _load_json, _write_json
from .errors import DomainError, FormatError
from .metrics import FitReport
from .subdivision import FittedSegment, Spline

FORMAT_VERSION = 1

DEBUG_LAYERS = ("input", "breaks", "controls", "polygons")


@dataclass
class SplineDocument:
    """Fitted splines of one image plus the report and the config echo."""

    width: int
    height: int
    splines: list[Spline] = field(default_factory=list)
    report: FitReport | None = None
    config: dict = field(default_factory=dict)


def _fmt(v: float) -> str:
    s = f"{v:.3f}"
    return "0.000" if s == "-0.000" else s


def _fmt_pt(p: Point2) -> str:
    return f"{_fmt(p.x)},{_fmt(p.y)}"


def path_data(spline: Spline) -> str:
    """SVG path string: M, one C per segment, Z."""
    parts = [f"M {_fmt_pt(spline.segments[0].curve.p0)}"]
    for seg in spline.segments:
        c = seg.curve
        parts.append(f"C {_fmt_pt(c.p1)} {_fmt_pt(c.p2)} {_fmt_pt(c.p3)}")
    parts.append("Z")
    return " ".join(parts)


def to_svg(doc: SplineDocument, debug_layers=(), contours=None) -> str:
    """Render the document as an SVG 1.1 fragment.

    Curves are stroked, one path per contour; the even-odd fill rule is set
    on the group so filled restyling nests holes correctly.  debug_layers
    may include "input" (source polylines, needs contours), "breaks",
    "controls", and "polygons".
    """
    layers = set(debug_layers)
    unknown = layers.difference(DEBUG_LAYERS)
    if unknown:
        raise DomainError(f"unknown debug layers: {sorted(unknown)}")
    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{doc.width}" height="{doc.height}" '
        f'viewBox="0 0 {doc.width} {doc.height}">'
    ]
    if "input" in layers and contours:
        out.append('<g class="input" fill="none" stroke="#9ad" stroke-width="0.5">')
        for c in contours:
            pts = " ".join(_fmt_pt(p) for p in c.points)
            out.append(f'<polygon points="{pts}"/>')
        out.append("</g>")
    out.append('<g fill="none" fill-rule="evenodd" stroke="#000" stroke-width="1">')
    for spline in doc.splines:
        if spline.segments:
            out.append(f'<path d="{path_data(spline)}"/>')
    out.append("</g>")
    if "polygons" in layers:
        out.append('<g class="polygons" fill="none" stroke="#fa0" stroke-width="0.5">')
        for spline in doc.splines:
            for seg in spline.segments:
                c = seg.curve
                pts = " ".join(_fmt_pt(p) for p in c)
                out.append(f'<polyline points="{pts}"/>')
        out.append("</g>")
    if "controls" in layers:
        out.append('<g class="controls" fill="#fa0" stroke="none">')
        for spline in doc.splines:
            for seg in spline.segments:
                for p in (seg.curve.p1, seg.curve.p2):
                    out.append(f'<circle cx="{_fmt(p.x)}" cy="{_fmt(p.y)}" r="1"/>')
        out.append("</g>")
    if "breaks" in layers:
        out.append('<g class="breaks" fill="#d33" stroke="none">')
        for spline in doc.splines:
            for seg in spline.segments:
                p = seg.curve.p0
                out.append(f'<circle cx="{_fmt(p.x)}" cy="{_fmt(p.y)}" r="1.5"/>')
        out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ------------------------------ JSON document --------------------------------


def _report_payload(report: FitReport | None):
    if report is None:
        return None
    # measured time varies run to run; kept out of the canonical bytes
    return {**asdict(report), "wall_time": None}


def write_spline(path: str, doc: SplineDocument) -> None:
    """Write the document as canonical JSON (stable bytes for stable input)."""
    _write_json(path, {
        "format_version": FORMAT_VERSION,
        "width": doc.width,
        "height": doc.height,
        "config": doc.config,
        "report": _report_payload(doc.report),
        "contours": [
            {
                "segments": [
                    {
                        "controls": [[p.x, p.y] for p in seg.curve],
                        "span": list(seg.span),
                        "flags": list(seg.flags),
                    }
                    for seg in spline.segments
                ]
            }
            for spline in doc.splines
        ],
    })


def read_spline(path: str) -> SplineDocument:
    """Read and validate a document written by ``write_spline``."""
    payload, fail = _load_json(path, "spline document",
                               ("format_version", "width", "height", "contours"))
    if payload["format_version"] != FORMAT_VERSION:
        raise fail("format_version",
                   f"unsupported version {payload['format_version']!r}")
    width = _integer(payload["width"], "width", 1, fail)
    height = _integer(payload["height"], "height", 1, fail)
    if not isinstance(payload["contours"], list):
        raise fail("contours", "expected a list")

    def number(value, where) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise fail(where, f"expected a number, got {value!r}")
        try:
            v = float(value)
        except OverflowError:  # an integer past the float range
            v = math.inf
        if not math.isfinite(v):
            raise fail(where, "non-finite coordinate")
        return v

    splines = []
    for ci, entry in enumerate(payload["contours"]):
        where = f"contours[{ci}]"
        raw_segments = entry.get("segments") if isinstance(entry, dict) else None
        if not isinstance(raw_segments, list):
            raise fail(where, "expected an object with a segments list")
        segments = []
        for si, seg in enumerate(raw_segments):
            sw = f"{where}.segments[{si}]"
            if not isinstance(seg, dict):
                raise fail(sw, "expected an object")
            controls = seg.get("controls")
            if not isinstance(controls, list) or len(controls) != 4:
                raise fail(f"{sw}.controls", "expected 4 control points")
            pts = []
            for pi, pair in enumerate(controls):
                if not isinstance(pair, list) or len(pair) != 2:
                    raise fail(f"{sw}.controls[{pi}]", "expected an [x, y] pair")
                pts.append(Point2(number(pair[0], f"{sw}.controls[{pi}].x"),
                                  number(pair[1], f"{sw}.controls[{pi}].y")))
            span = seg.get("span")
            if not isinstance(span, list) or len(span) != 2:
                raise fail(f"{sw}.span", "expected an [start, end] index pair")
            span = [_integer(v, f"{sw}.span[{k}]", 0, fail)
                    for k, v in enumerate(span)]
            flags = seg.get("flags")
            if (not isinstance(flags, list)
                    or not all(isinstance(f, str) for f in flags)):
                raise fail(f"{sw}.flags", "expected a list of strings")
            segments.append(FittedSegment(CubicBezier(*pts),
                                          (span[0], span[1]), list(flags)))
        splines.append(Spline(segments))

    report = None
    rep = payload.get("report")
    if rep is not None:
        if not isinstance(rep, dict):
            raise fail("report", "expected an object")
        try:
            report = FitReport(
                n_points=_integer(rep["n_points"], "report.n_points", 0, fail),
                n_segments=_integer(rep["n_segments"], "report.n_segments", 0,
                                    fail),
                max_dev=number(rep["max_dev"], "report.max_dev"),
                avg_error=number(rep["avg_error"], "report.avg_error"),
                compression_ratio=number(rep["compression_ratio"],
                                         "report.compression_ratio"),
            )
        except KeyError as exc:
            raise fail("report", f"missing field {exc}") from exc
    config = payload.get("config")
    if not isinstance(config, (dict, type(None))):
        raise fail("config", "expected an object")
    return SplineDocument(width, height, splines, report, config or {})
