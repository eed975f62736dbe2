"""Output checks for one vectorized document.

Every check is recomputed from the document's own files; none compares
against stored hashes, so a change that alters the output bytes on purpose
still passes as long as the output stays valid and self-consistent.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, field

from beziertrace import metrics
from beziertrace.contour import read_contour, write_contour
from beziertrace.errors import ConsistencyError, FormatError
from beziertrace.render_io import read_spline, write_spline

REPORT_FIELDS = ("n_points", "n_segments", "max_dev", "avg_error",
                 "compression_ratio")


def _rewritten_equal(path: str, doc, writer) -> bool:
    """write -> read -> write: the reread document writes the same bytes."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path))
    os.close(fd)
    try:
        writer(tmp, doc)
        with open(path, "rb") as a, open(tmp, "rb") as b:
            return a.read() == b.read()
    finally:
        os.unlink(tmp)


def _joins(i: int, contour, spline) -> list[str]:
    """G0 joins, finite controls, and segment ends on their contour points."""
    segs = spline.segments
    if not segs:
        return [f"loop {i}: no segments"]
    problems = []
    for k, seg in enumerate(segs):
        c = seg.curve
        if not all(math.isfinite(v) for p in c for v in p):
            problems.append(f"loop {i} segment {k}: non-finite control")
        a, b = seg.span
        if not (0 <= a < contour.n and 0 <= b < contour.n):
            problems.append(f"loop {i} segment {k}: span {seg.span} out of range")
            continue
        if c.p0 != contour.points[a] or c.p3 != contour.points[b]:
            problems.append(f"loop {i} segment {k}: ends off the contour")
        if c.p3 != segs[(k + 1) % len(segs)].curve.p0:
            problems.append(f"loop {i} segment {k}: G0 break at the join")
    return problems


@dataclass
class Checked:
    problems: list[str] = field(default_factory=list)  # empty: passed
    loops: int = 0        # loops in the contour document
    loop_max_devs: list[float] = field(default_factory=list)  # per fitted loop


def _fit_report_by_loop(pairs):
    """fit_report, plus the max deviation of each loop it measured."""
    per_loop = []
    spline_errors = metrics.spline_errors

    def recording(contour, spline):
        result = spline_errors(contour, spline)
        per_loop.append(result[0])
        return result

    metrics.spline_errors = recording
    try:
        return metrics.fit_report(pairs), per_loop
    finally:
        metrics.spline_errors = spline_errors


def check_document(contour_path: str, spline_path: str,
                   printed: dict) -> Checked:
    """Check one document's outputs.

    printed is the report ``fit --json`` wrote to standard output.
    """
    out = Checked()
    try:
        cdoc = read_contour(contour_path)  # revalidates every loop
        sdoc = read_spline(spline_path)    # rejects non-finite numbers
    except FormatError as exc:
        out.problems.append(f"output does not read back: {exc}")
        return out
    out.loops = len(cdoc.contours)
    if not _rewritten_equal(contour_path, cdoc, write_contour):
        out.problems.append("contour document changes on rewrite")
    if not _rewritten_equal(spline_path, sdoc, write_spline):
        out.problems.append("spline document changes on rewrite")

    support = sdoc.config.get("support_length")
    if not isinstance(support, int) or sdoc.report is None:
        out.problems.append("spline document lacks its report or config echo")
        return out
    loops = [c for c in cdoc.contours if c.n > 2 * support]
    if len(loops) != len(sdoc.splines):
        out.problems.append(f"{len(sdoc.splines)} splines for {len(loops)} "
                            "fittable loops")
        return out
    for i, (contour, spline) in enumerate(zip(loops, sdoc.splines)):
        out.problems += _joins(i, contour, spline)
    try:
        # spline_errors, inside fit_report, raises when the segments cover a
        # contour point twice or miss one
        report, out.loop_max_devs = _fit_report_by_loop(
            list(zip(loops, sdoc.splines)))
    except ConsistencyError as exc:
        out.problems.append(f"coverage: {exc}")
        return out
    for name in REPORT_FIELDS:
        want = getattr(report, name)
        if getattr(sdoc.report, name) != want or printed.get(name) != want:
            out.problems.append(f"report {name}: written "
                                f"{getattr(sdoc.report, name)!r}, printed "
                                f"{printed.get(name)!r}, recomputed {want!r}")
    return out
