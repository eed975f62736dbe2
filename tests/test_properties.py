"""Properties of the whole pipeline on random bitmaps, and of the three
readers on fuzzed bytes."""

import contextlib
import io
import json
import logging
import math
import os
import tempfile

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from beziertrace import cli
from beziertrace.contour import (Contour, ContourDocument, RasterImage,
                                 load_image, read_contour, trace_boundaries,
                                 write_contour)
from beziertrace.corner_detect import CornerParams
from beziertrace.errors import FormatError
from beziertrace.metrics import fit_report
from beziertrace.render_io import SplineDocument, read_spline, write_spline
from beziertrace.segment_fit import FitConfig
from beziertrace.subdivision import fit_outline

from helpers import pbm_plain_bytes, pbm_raw_bytes
from _reference import reference_trace


@st.composite
def bitmaps(draw, max_side=40):
    """A small raster of a few filled rectangles and discs, with some
    pixels flipped, so that loops of every length and a pinch or a
    one-pixel whisker now and then appear."""
    width = draw(st.integers(1, max_side))
    height = draw(st.integers(1, max_side))
    bits = bytearray(width * height)
    for _ in range(draw(st.integers(1, 4))):
        x0, x1 = sorted(draw(st.integers(0, width - 1)) for _ in range(2))
        y0, y1 = sorted(draw(st.integers(0, height - 1)) for _ in range(2))
        disc = draw(st.booleans())
        cx, cy = (x0 + x1) / 2, (y0 + y1) / 2
        rx, ry = (x1 - x0) / 2 + 0.5, (y1 - y0) / 2 + 0.5
        for y in range(y0, y1 + 1):
            for x in range(x0, x1 + 1):
                if (not disc
                        or ((x - cx) / rx) ** 2 + ((y - cy) / ry) ** 2 <= 1):
                    bits[y * width + x] = 1
    for i in draw(st.lists(st.integers(0, width * height - 1), max_size=12)):
        bits[i] ^= 1
    return RasterImage(width, height, bits)


def _rewrites_equal(write, read, doc) -> bool:
    """write -> read -> write gives the same bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        first = os.path.join(tmp, "first.json")
        second = os.path.join(tmp, "second.json")
        write(first, doc)
        write(second, read(first))
        with open(first, "rb") as a, open(second, "rb") as b:
            return a.read() == b.read()


@settings(max_examples=60)
@given(img=bitmaps(), support=st.integers(2, 14),
       max_error=st.one_of(st.none(), st.floats(0.3, 3.0)))
def test_pipeline_invariants_on_random_bitmaps(img, support, max_error):
    params = CornerParams(support_length=support)
    cfg = FitConfig(max_error=max_error)
    contours = trace_boundaries(img)
    assert _rewrites_equal(write_contour, read_contour,
                           ContourDocument(img.width, img.height, contours))
    loops = [c for c in contours if c.n > 2 * support]
    pairs = []
    for contour in loops:
        n = contour.n
        spline, _ = fit_outline(contour, params, cfg)
        segs = spline.segments
        covered = [0] * n
        for k, seg in enumerate(segs):
            a, b = seg.span
            nxt = segs[(k + 1) % len(segs)]
            # G0: each segment starts on its contour point and ends where
            # the next one starts
            assert seg.curve.p0 == contour.points[a]
            assert seg.curve.p3 == contour.points[b] == nxt.curve.p0
            assert b == nxt.span[0]
            assert all(math.isfinite(v) for p in seg.curve for v in p)
            for j in range((b - a) % n):
                covered[(a + j) % n] += 1
        assert covered == [1] * n
        pairs.append((contour, spline))
    report = fit_report(pairs) if pairs else None
    doc = SplineDocument(img.width, img.height, [s for _, s in pairs], report,
                         {"support_length": support, "max_error": max_error})
    assert _rewrites_equal(write_spline, read_spline, doc)


class _Warnings(logging.Handler):
    """The package's warnings, as the CLI prints them."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.lines = []

    def emit(self, record):
        self.lines.append(record.getMessage())


@contextlib.contextmanager
def _captured_warnings():
    handler = _Warnings()
    logger = logging.getLogger("beziertrace")
    logger.addHandler(handler)
    try:
        yield handler.lines
    finally:
        logger.removeHandler(handler)


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


@given(img=bitmaps())
def test_trace_command_writes_what_point_built_loops_write(img):
    # the trace command writes loops from the tracer's integer columns;
    # copies built from their points write the same bytes, and the file
    # read back (columns again) rewrites itself byte for byte
    with tempfile.TemporaryDirectory() as tmp:
        page, traced, built, again = (os.path.join(tmp, name) for name in (
            "page.pbm", "traced.json", "built.json", "again.json"))
        with open(page, "wb") as fh:
            fh.write(pbm_raw_bytes(img))
        out = io.StringIO()
        with _captured_warnings() as command_warnings, \
                contextlib.redirect_stdout(out):
            assert cli.main(["trace", page, "-o", traced]) == 0
        with _captured_warnings() as tracer_warnings:
            loops = [Contour(list(c.points))
                     for c in trace_boundaries(load_image(page))]
        write_contour(built, ContourDocument(img.width, img.height, loops))
        assert _read_bytes(traced) == _read_bytes(built)
        assert command_warnings == tracer_warnings
        counts = ", ".join(str(len(c.points)) for c in loops) or "none"
        assert out.getvalue() == (f"traced {len(loops)} loop(s) "
                                  f"(points: {counts})\n")
        write_contour(again, read_contour(traced))
        assert _read_bytes(again) == _read_bytes(traced)


@given(img=bitmaps(), data=st.data())
def test_trace_matches_reference_on_any_object_byte(img, data):
    # any nonzero byte is object, so each object pixel gets a byte of 1-255
    n = len(img.bits)
    redrawn = data.draw(st.binary(min_size=n, max_size=n))
    bits = bytearray(v % 255 + 1 if on else 0
                     for on, v in zip(img.bits, redrawn))
    got = trace_boundaries(RasterImage(img.width, img.height, bits))
    assert [c.points for c in got] == reference_trace(img.width, img.height,
                                                      bits)


def _scan_message(loops) -> str | None:
    """The contour reader's error text for these point lists, found pair by
    pair and step by step, or None when every loop is valid."""
    for ci, raw in enumerate(loops):
        for pi, pair in enumerate(raw):
            if not (type(pair) is list and len(pair) == 2
                    and all(type(v) is int and abs(v) <= 2 ** 53
                            for v in pair)):
                return (f"contours[{ci}].points[{pi}]: expected an [x, y] "
                        f"pair of integers within +-2**53, got {pair!r}")
        pts = [tuple(pair) for pair in raw]
        n = len(pts)
        if n < 4:
            return (f"contours[{ci}].points: loop has {n} points, need at "
                    "least 4")
        if len(set(pts)) != n:
            return f"contours[{ci}].points: loop revisits a pixel"
        for a, b in zip(pts, pts[1:] + pts[:1]):
            if max(abs(a[0] - b[0]), abs(a[1] - b[1])) != 1:
                return (f"contours[{ci}].points: points {a} and {b} are not "
                        "8-neighbors")
    return None


_ODD_PAIRS = st.one_of(
    st.lists(st.one_of(st.integers(), st.booleans(), st.none(),
                       st.floats(allow_nan=False, allow_infinity=False),
                       st.integers(2 ** 53 - 1, 2 ** 53 + 1),
                       st.integers(-2 ** 53 - 1, -2 ** 53 + 1)), max_size=3),
    st.text(max_size=3), st.none(), st.booleans(), st.integers(),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


@given(img=bitmaps(), data=st.data())
def test_read_contour_names_what_the_pair_scan_names(img, data):
    loops = [[[int(p.x), int(p.y)] for p in c.points]
             for c in trace_boundaries(img)]
    assume(loops)
    ci = data.draw(st.integers(0, len(loops) - 1))
    pi = data.draw(st.integers(0, len(loops[ci]) - 1))
    x, y = loops[ci][pi]
    loops[ci][pi] = data.draw({
        "odd": _ODD_PAIRS,
        "repeat": st.sampled_from(loops[ci]).map(list),
        "shift": st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(
            lambda d: [x + d[0], y + d[1]]),  # a gap in x, y or both
    }[data.draw(st.sampled_from(("odd", "repeat", "shift")))])
    expected = _scan_message(loops)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w") as fh:
            json.dump({"width": img.width, "height": img.height, "contours": [
                {"closed": True, "points": loop} for loop in loops]}, fh)
        try:
            read_contour(path)
            got = None
        except FormatError as exc:
            got = str(exc)[len(path) + 2:]
    assert got == expected


# ------------------------------- reader fuzzing ------------------------------


@st.composite
def mutated(draw, documents):
    """A valid document with a few bytes replaced, inserted or deleted, or
    cut short."""
    data = bytearray(draw(documents))
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(("replace", "insert", "delete", "cut")))
        i = draw(st.integers(0, len(data)))
        if op == "insert":
            data[i:i] = draw(st.binary(min_size=1, max_size=8))
        elif op == "cut":
            del data[i:]
        elif i < len(data):
            if op == "replace":
                data[i] = draw(st.integers(0, 255))
            else:
                del data[i]
    return bytes(data)


def _huge_number():
    """Decimal digits past any coordinate or dimension a reader can hold:
    beyond 2**53, past the float range, or past the interpreter's limit on
    digits converted to an integer."""
    return st.one_of(st.integers(2 ** 53 - 2, 2 ** 1100).map(str),
                     st.integers(4000, 6000).map(lambda k: "9" * k))


def _json_values():
    scalars = st.one_of(st.none(), st.booleans(), st.integers(-5, 5),
                        st.floats(allow_nan=False, allow_infinity=False),
                        st.text(max_size=6))
    return st.recursive(scalars, lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.dictionaries(st.sampled_from(
            ("width", "height", "contours", "closed", "points", "segments",
             "controls", "span", "flags", "report", "config",
             "format_version", "n_points", "max_dev")), inner, max_size=5)),
        max_leaves=20)


def _documents(valid):
    """Bytes a reader might be handed: valid documents mutated, JSON of the
    right shape with odd values, deep nesting, huge numbers, noise."""
    deep = st.integers(1, 100_000).map(lambda k: b"[" * k + b"]" * k)
    huge = st.tuples(valid, _huge_number()).map(
        lambda t: t[0].replace(b"1", t[1].encode(), 1))
    return st.one_of(mutated(valid), _json_values().map(
        lambda v: json.dumps(v).encode()), deep, huge, st.binary(max_size=64))


def _reads_or_format_error(read, data: bytes) -> None:
    """read returns, or raises FormatError; any other exception fails."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            read(path)
        except FormatError:
            pass


def _written(write, doc) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc")
        write(path, doc)
        with open(path, "rb") as fh:
            return fh.read()


_IMAGES = bitmaps(max_side=12)
_PBMS = st.one_of(_IMAGES.map(pbm_plain_bytes), _IMAGES.map(pbm_raw_bytes))
_HEADERS = st.tuples(st.sampled_from((b"P1", b"P4")),
                     st.one_of(st.integers(0, 10 ** 12).map(str),
                               _huge_number()),
                     st.one_of(st.integers(0, 10 ** 12).map(str),
                               _huge_number()),
                     st.binary(max_size=32)).map(
    lambda t: t[0] + b" " + t[1].encode() + b" " + t[2].encode() + b"\n"
    + t[3])


@given(data=st.one_of(mutated(_PBMS), _HEADERS, st.binary(max_size=64)))
def test_load_image_raises_only_format_error(data):
    _reads_or_format_error(load_image, data)


def _contour_file(img):
    doc = ContourDocument(img.width, img.height, trace_boundaries(img))
    return _written(write_contour, doc)


def _spline_file(img):
    pairs = [(c, fit_outline(c, CornerParams(support_length=3))[0])
             for c in trace_boundaries(img) if c.n > 6]
    doc = SplineDocument(img.width, img.height, [s for _, s in pairs],
                         fit_report(pairs) if pairs else None,
                         {"support_length": 3})
    return _written(write_spline, doc)


@given(data=_documents(_IMAGES.map(_contour_file)))
def test_read_contour_raises_only_format_error(data):
    _reads_or_format_error(read_contour, data)


@given(data=_documents(_IMAGES.map(_spline_file)))
def test_read_spline_raises_only_format_error(data):
    _reads_or_format_error(read_spline, data)
