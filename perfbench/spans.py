"""In-memory spans and counts recorded around calls into the program.

The traced run swaps module bindings such as ``cli.trace_boundaries`` or
``subdivision.fit_segment`` for wrappers that record one span per call and
tally counts from the call's arguments and result.  The program's source is
not changed, and the bindings are restored when the run leaves the
``installed`` block.
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    doc: int      # spans of one document share this identifier
    name: str     # "<layer>.<call>"
    start: float
    end: float


class Recorder:
    """Spans kept in memory, plus counts taken at the same boundaries."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.outlines: list[tuple[Span, int]] = []  # (fit_outline span, points)
        self.doc = 0
        self._ids = itertools.count()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, self.doc, name, start, end))

    def wrap(self, name: str, fn, tally=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if tally is not None:
                tally(self, args, result)
            return result
        return traced

    def self_times(self) -> Counter:
        """Seconds per span name, less the time its child spans cover."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        out: Counter = Counter()
        for s in self.spans:
            covered = 0.0
            reach = s.start
            for a, b in sorted(children[s.id]):
                a = max(a, reach)
                if b > a:
                    covered += b - a
                    reach = b
            out[s.name] += (s.end - s.start) - covered
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def _tally_image(rec, args, image):
    rec.counts["pixels"] += image.width * image.height


def _tally_loops(rec, args, contours):
    rec.counts["loops"] += len(contours)


def _tally_outline(rec, args, result):
    spline, _ = result
    points = args[0].n
    # the loop's own span ended last, after its children
    rec.outlines.append((rec.spans[-1], points))
    rec.counts["outline_points"] += points
    rec.counts["segments"] += len(spline.segments)
    rec.counts["depth_capped"] += sum("depth-capped" in s.flags
                                      for s in spline.segments)


def _tally_corners(rec, args, corners):
    rec.counts["corners"] += len(corners)
    rec.counts["synthetic_break_loops"] += len(corners) < 2


def _tally_fit(rec, args, result):
    rec.counts["fit_calls"] += 1
    rec.counts["chord_fallbacks"] += not result[1].candidates


def _tally_spread(rec, args, spread):
    rec.counts["candidates"] += len(spread.candidates)


def _tally_split(rec, args, index):
    rec.counts["splits"] += index is not None


def _tally_svg(rec, args, text):
    rec.counts["svg_bytes"] += len(text)


@contextmanager
def installed(rec: Recorder):
    """Route the program's layer boundaries through the recorder."""
    from beziertrace import cli, segment_fit, subdivision

    patches = [
        (cli, "load_image", "contour.load", _tally_image),
        (cli, "trace_boundaries", "contour.trace", _tally_loops),
        (cli, "write_contour", "contour.write", None),
        (cli, "read_contour", "contour.read", None),
        (cli, "fit_outline", "subdivision.fit_outline", _tally_outline),
        (subdivision, "detect_corners", "corner_detect.detect", _tally_corners),
        (subdivision, "fit_segment", "segment_fit.fit_segment", _tally_fit),
        (segment_fit, "build_spread", "segment_fit.build_spread",
         _tally_spread),
        (subdivision, "split_point", "subdivision.split_point", _tally_split),
        (subdivision, "curve_distances", "subdivision.split_distance", None),
        (cli, "fit_report", "metrics.fit_report", None),
        (cli, "to_svg", "render_io.svg", _tally_svg),
        (cli, "write_spline", "render_io.json_write", None),
    ]
    originals = [(module, attr, getattr(module, attr))
                 for module, attr, _, _ in patches]
    try:
        for module, attr, name, tally in patches:
            setattr(module, attr, rec.wrap(name, getattr(module, attr), tally))
        yield rec
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)


class LogCounter(logging.Handler):
    """Counts the program's dropped-loop and too-short warnings."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.dropped = 0
        self.skipped_short = 0

    def emit(self, record):
        if record.msg.startswith("dropping "):
            self.dropped += 1
        elif "too short" in record.msg:
            self.skipped_short += 1
