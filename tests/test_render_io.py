import xml.etree.ElementTree as ET

import pytest

from beziertrace.bezier_core import CubicBezier, Point2
from beziertrace.contour import read_contour, trace_boundaries
from beziertrace.errors import DomainError, FormatError
from beziertrace.metrics import FitReport
from beziertrace.render_io import (SplineDocument, path_data, read_spline,
                                   to_svg, write_spline)
from beziertrace.segment_fit import chord_fit
from beziertrace.subdivision import FittedSegment, Spline, fit_outline

from helpers import filled_rect_image


def _chord_doc():
    seg = FittedSegment(chord_fit(Point2(0, 0), Point2(10, 0)), (0, 0), ["fallback"])
    return SplineDocument(16, 16, [Spline([seg])])


def test_path_data_golden_chord():
    doc = _chord_doc()
    assert path_data(doc.splines[0]) == \
        "M 0.000,0.000 C 3.333,0.000 6.667,0.000 10.000,0.000 Z"


def test_svg_empty_document():
    svg = to_svg(SplineDocument(32, 20, []))
    root = ET.fromstring(svg)
    assert root.attrib["viewBox"] == "0 0 32 20"
    assert not [el for el in root.iter() if el.tag.endswith("path")]


def test_svg_rectangle_structure():
    img = filled_rect_image(48, 38, 4, 4, 43, 33)
    loop = trace_boundaries(img)[0]
    spline, _ = fit_outline(loop)
    doc = SplineDocument(48, 38, [spline])
    svg = to_svg(doc)
    root = ET.fromstring(svg)
    paths = [el for el in root.iter() if el.tag.endswith("path")]
    assert len(paths) == 1
    d = paths[0].attrib["d"]
    assert d.startswith("M ") and d.endswith(" Z")
    assert d.count("C ") == 4
    first = spline.segments[0].curve.p0
    assert d.split()[1] == f"{first.x:.3f},{first.y:.3f}"
    group = root.find("{http://www.w3.org/2000/svg}g")
    assert group.attrib["fill-rule"] == "evenodd"


def test_svg_debug_layers():
    img = filled_rect_image(48, 38, 4, 4, 43, 33)
    loop = trace_boundaries(img)[0]
    spline, _ = fit_outline(loop)
    doc = SplineDocument(48, 38, [spline])
    svg = to_svg(doc, debug_layers=("input", "breaks", "controls", "polygons"),
                 contours=[loop])
    root = ET.fromstring(svg)
    classes = {el.attrib.get("class") for el in root.iter() if el.tag.endswith("g")}
    assert {"input", "breaks", "controls", "polygons"}.issubset(classes)
    assert [el for el in root.iter() if el.tag.endswith("circle")]
    assert [el for el in root.iter() if el.tag.endswith("polygon")]


def test_svg_unknown_layer():
    with pytest.raises(DomainError):
        to_svg(_chord_doc(), debug_layers=("bogus",))


def test_svg_deterministic():
    img = filled_rect_image(48, 38, 4, 4, 43, 33)
    loop = trace_boundaries(img)[0]
    spline, _ = fit_outline(loop)
    doc = SplineDocument(48, 38, [spline])
    assert to_svg(doc) == to_svg(doc)


def test_negative_zero_formatting():
    seg = FittedSegment(chord_fit(Point2(-0.0001, 0), Point2(10, 0)), (0, 0), [])
    svg = path_data(Spline([seg]))
    assert "-0.000" not in svg


def test_spline_roundtrip_byte_identical(tmp_path):
    img = filled_rect_image(48, 38, 4, 4, 43, 33)
    loop = trace_boundaries(img)[0]
    spline, _ = fit_outline(loop)
    report = FitReport(loop.n, len(spline.segments), 0.25, 0.125,
                       loop.n / len(spline.segments), wall_time=1.25)
    doc = SplineDocument(48, 38, [spline], report, {"support_length": 14})
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    write_spline(p1, doc)
    back = read_spline(p1)
    write_spline(p2, back)
    assert p1.read_bytes() == p2.read_bytes()
    assert back.width == 48 and back.height == 38
    assert [s.curve for s in back.splines[0].segments] == \
        [s.curve for s in spline.segments]
    assert [s.span for s in back.splines[0].segments] == \
        [s.span for s in spline.segments]
    assert back.report.n_points == loop.n
    assert back.report.wall_time is None  # measured time is not canonical
    assert back.config == {"support_length": 14}


def test_read_spline_missing_version(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"width": 4, "height": 4, "contours": []}')
    with pytest.raises(FormatError) as err:
        read_spline(p)
    assert "format_version" in str(err.value)


def test_read_spline_unknown_version(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"format_version": 99, "width": 4, "height": 4, "contours": []}')
    with pytest.raises(FormatError):
        read_spline(p)


def test_read_spline_rejects_nan(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"format_version": 1, "width": 4, "height": 4, "contours": '
                 '[{"segments": [{"controls": [[NaN, 0], [0, 0], [1, 1], [2, 2]],'
                 ' "span": [0, 3], "flags": []}]}]}')
    with pytest.raises(FormatError):
        read_spline(p)


def test_read_spline_rejects_bad_controls(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"format_version": 1, "width": 4, "height": 4, "contours": '
                 '[{"segments": [{"controls": [[0, 0], [1, 1]], "span": [0, 1],'
                 ' "flags": []}]}]}')
    with pytest.raises(FormatError) as err:
        read_spline(p)
    assert "controls" in str(err.value)


_GOOD_REPORT = ('{"n_points": 4, "n_segments": 1, "max_dev": 0, "avg_error": 0,'
                ' "compression_ratio": 4, "wall_time": null}')


@pytest.mark.parametrize("fields", [
    '"width": true, "height": 4, "contours": []',
    '"width": 0, "height": 4, "contours": []',
    '"width": 4, "height": -1, "contours": []',
    '"width": 4, "height": 4, "contours": 5',
    '"width": 4, "height": 4, "contours": {"segments": []}',
    '"width": 4, "height": 4, "contours": [{"segments": 3}]',
    '"width": 4, "height": 4, "contours": [{"segments": "abc"}]',
    '"width": 4, "height": 4, "contours": [], "report": '
    + _GOOD_REPORT.replace('"n_points": 4', '"n_points": null'),
    '"width": 4, "height": 4, "contours": [], "report": '
    + _GOOD_REPORT.replace('"n_points": 4', '"n_points": "four"'),
    '"width": 4, "height": 4, "contours": [], "report": '
    + _GOOD_REPORT.replace('"n_segments": 1', '"n_segments": true'),
])
def test_read_spline_rejects_malformed_fields(tmp_path, fields):
    p = tmp_path / "bad.json"
    p.write_text('{"format_version": 1, ' + fields + '}')
    with pytest.raises(FormatError):
        read_spline(p)
    p.write_text('{"format_version": 1, "width": 4, "height": 4, "contours": [],'
                 ' "report": ' + _GOOD_REPORT + '}')
    assert read_spline(p).report.n_points == 4


@pytest.mark.parametrize("config", ["false", "0", '""', "[]"])
def test_read_spline_rejects_config_not_an_object(tmp_path, config):
    p = tmp_path / "bad.json"
    head = '{"format_version": 1, "width": 4, "height": 4, "contours": []'
    p.write_text(head + ', "config": ' + config + '}')
    with pytest.raises(FormatError) as err:
        read_spline(p)
    assert "config: expected an object" in str(err.value)
    for absent in (head + '}', head + ', "config": null}'):
        p.write_text(absent)
        assert read_spline(p).config == {}


def _document(head, width="4", tail=""):
    return f'{{{head}"width":{width},"height":4,"contours":[]{tail}}}'.encode()


# each case: the file's bytes from the reader's leading fields (None: no
# file), and what the error must name
_SHARED_READER_CASES = {
    "unreadable": (None, "cannot read"),
    "non-ascii": (lambda h: _document(h, tail=',"note":"\u00e9"'),
                  "not valid JSON"),
    "bad-json": (lambda h: _document(h)[:-1], "not valid JSON"),
    "long-integer": (lambda h: _document(h, width="1" * 4301),
                     "not valid JSON"),
    "deep-nesting": (lambda h: _document(
        h, tail=',"note":' + "[" * 100_000 + "]" * 100_000), "not valid JSON"),
    "nan-ignored-field": (lambda h: _document(h, tail=',"note":NaN'),
                          "non-finite number 'NaN'"),
    "top-level-array": (lambda h: b"[" + _document(h) + b"]",
                        "document: expected a JSON object"),
    "missing-width": (lambda h: _document(h).replace(b'"width":4,', b""),
                      "width: missing field"),
    "width-true": (lambda h: _document(h, width="true"),
                   "width: expected an integer >= 1, got True"),
    "width-zero": (lambda h: _document(h, width="0"),
                   "width: expected an integer >= 1, got 0"),
    "width-negative": (lambda h: _document(h, width="-1"),
                       "width: expected an integer >= 1, got -1"),
}


@pytest.mark.parametrize("case", sorted(_SHARED_READER_CASES))
@pytest.mark.parametrize("read, head", [(read_contour, ""),
                                        (read_spline, '"format_version":1,')],
                         ids=["contour", "spline"])
def test_readers_share_json_rules(tmp_path, read, head, case):
    make, named = _SHARED_READER_CASES[case]
    path = tmp_path / "doc.json"
    if make is not None:
        path.write_bytes(make(head))
    with pytest.raises(FormatError) as err:
        read(path)
    assert err.value.path == str(path)
    assert str(err.value).startswith(f"{path}: ")
    assert named in str(err.value)
    path.write_bytes(_document(head))
    assert read(path).width == 4  # the unbroken document reads


def test_write_spline_rejects_nan(tmp_path):
    bad = CubicBezier(Point2(float("nan"), 0), Point2(0, 0), Point2(1, 1),
                      Point2(2, 2))
    doc = SplineDocument(4, 4, [Spline([FittedSegment(bad, (0, 3), [])])])
    with pytest.raises(FormatError):
        write_spline(tmp_path / "bad.json", doc)
