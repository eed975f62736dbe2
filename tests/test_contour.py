import logging
import random

import pytest

from beziertrace.contour import (Contour, ContourDocument, RasterImage,
                                 load_image, read_contour, trace_boundaries,
                                 write_contour)
from beziertrace.bezier_core import Point2
from beziertrace.errors import FormatError

from helpers import (boundary_pixel_set, circle_image, filled_rect_image,
                     pbm_plain_bytes, pbm_raw_bytes, pixels_adjacent_to,
                     rect_with_hole_image)
from _reference import reference_trace


# ------------------------------ bitmap parsing -------------------------------


def test_plain_pbm_diagonal(tmp_path):
    p = tmp_path / "d.pbm"
    p.write_bytes(b"P1\n2 2\n1 0\n0 1\n")
    img = load_image(p)
    assert (img.width, img.height) == (2, 2)
    assert list(img.bits) == [1, 0, 0, 1]


def test_raw_pbm_matches_plain(tmp_path):
    plain = tmp_path / "a.pbm"
    raw = tmp_path / "b.pbm"
    plain.write_bytes(b"P1\n2 2\n1 0\n0 1\n")
    raw.write_bytes(b"P4\n2 2\n" + bytes([0x80, 0x40]))
    assert load_image(plain).bits == load_image(raw).bits


def test_pbm_comments_and_packing(tmp_path):
    p = tmp_path / "c.pbm"
    p.write_bytes(b"P1 # plain\n# size next\n3 2 # dims\n110\n011\n")
    img = load_image(p)
    assert list(img.bits) == [1, 1, 0, 0, 1, 1]


def test_truncated_plain_pbm(tmp_path):
    p = tmp_path / "t.pbm"
    p.write_bytes(b"P1\n3 3\n1 0 1\n")
    with pytest.raises(FormatError) as err:
        load_image(p)
    assert "offset" in str(err.value)


def test_truncated_raw_pbm(tmp_path):
    p = tmp_path / "t.pbm"
    p.write_bytes(b"P4\n16 4\n\x00\x01")
    with pytest.raises(FormatError):
        load_image(p)


def test_bad_magic(tmp_path):
    p = tmp_path / "x.pbm"
    p.write_bytes(b"P5\n2 2\n\x00\x00\x00\x00")
    with pytest.raises(FormatError):
        load_image(p)


def test_trailing_garbage(tmp_path):
    p = tmp_path / "g.pbm"
    p.write_bytes(b"P1\n1 1\n1\nextra")
    with pytest.raises(FormatError):
        load_image(p)


def test_missing_file():
    with pytest.raises(FormatError) as err:
        load_image("/nonexistent/image.pbm")
    assert "/nonexistent/image.pbm" in str(err.value)


def test_pbm_roundtrip_helpers(tmp_path):
    img = filled_rect_image(10, 8, 2, 3, 7, 6)
    plain = tmp_path / "r.pbm"
    raw = tmp_path / "r4.pbm"
    plain.write_bytes(pbm_plain_bytes(img))
    raw.write_bytes(pbm_raw_bytes(img))
    assert load_image(plain).bits == img.bits
    assert load_image(raw).bits == img.bits


def test_raw_pbm_partial_last_byte(tmp_path):
    rng = random.Random(17)
    for width in (1, 7, 8, 9, 17):
        bits = bytearray(rng.random() < 0.5 for _ in range(width * 3))
        img = RasterImage(width, 3, bits)
        raw = tmp_path / f"w{width}.pbm"
        raw.write_bytes(pbm_raw_bytes(img))
        assert load_image(raw).bits == bits


# ----------------------------- boundary tracing ------------------------------


def test_single_pixel_produces_no_contour():
    img = filled_rect_image(8, 8, 3, 3, 3, 3)
    assert trace_boundaries(img) == []


def test_empty_image():
    assert trace_boundaries(RasterImage(5, 5, bytearray(25))) == []


def test_filled_rectangle_boundary():
    img = filled_rect_image(14, 10, 2, 2, 11, 7)  # 10x6 object
    loops = trace_boundaries(img)
    assert len(loops) == 1
    loop = loops[0]
    assert loop.n == 2 * (10 - 1) + 2 * (6 - 1)  # 28 boundary pixels
    assert {(int(p.x), int(p.y)) for p in loop.points} == boundary_pixel_set(img)
    assert loop.signed_area() > 0


def test_rectangle_with_hole():
    img = rect_with_hole_image()
    loops = trace_boundaries(img)
    assert len(loops) == 2
    outer, hole = loops
    assert outer.signed_area() > 0
    assert hole.signed_area() < 0
    hole_px = {(x, y) for y in range(6, 9) for x in range(8, 11)}
    assert {(int(p.x), int(p.y)) for p in hole.points} == \
        pixels_adjacent_to(img, hole_px)
    outer_set = {(int(p.x), int(p.y)) for p in outer.points}
    assert outer_set == boundary_pixel_set(img) - pixels_adjacent_to(img, hole_px)


def test_trace_idempotent():
    img = circle_image(12)
    a = trace_boundaries(img)
    b = trace_boundaries(img)
    assert [c.points for c in a] == [c.points for c in b]


def test_loop_invariants_on_random_blobs():
    rng = random.Random(5)
    for _ in range(20):
        img = RasterImage(40, 40, bytearray(1600))
        for _ in range(rng.randint(1, 4)):
            x0, y0 = rng.randint(2, 20), rng.randint(2, 20)
            w, h = rng.randint(3, 15), rng.randint(3, 15)
            for y in range(y0, min(38, y0 + h)):
                for x in range(x0, min(38, x0 + w)):
                    img.bits[y * 40 + x] = 1
        for loop in trace_boundaries(img):
            pts = [(int(p.x), int(p.y)) for p in loop.points]
            assert len(set(pts)) == len(pts)
            assert len(pts) >= 4
            n = len(pts)
            for i in range(n):
                a, b = pts[i], pts[(i + 1) % n]
                assert max(abs(a[0] - b[0]), abs(a[1] - b[1])) == 1
            for x, y in pts:
                on_edge = x in (0, 39) or y in (0, 39)
                has_bg4 = not (img.at(x + 1, y) and img.at(x - 1, y)
                               and img.at(x, y + 1) and img.at(x, y - 1))
                assert on_edge or has_bg4


def test_loop_ordering_deterministic():
    img = RasterImage(30, 20, bytearray(600))
    for y in range(10, 16):
        for x in range(3, 9):
            img.bits[y * 30 + x] = 1
    for y in range(2, 8):
        for x in range(15, 24):
            img.bits[y * 30 + x] = 1
    loops = trace_boundaries(img)
    assert len(loops) == 2
    # the block whose topmost-leftmost pixel is higher comes first
    assert loops[0].points[0] == Point2(15.0, 2.0)
    assert loops[1].points[0] == Point2(3.0, 10.0)


def test_one_pixel_wide_whisker_dropped():
    img = filled_rect_image(20, 12, 3, 3, 10, 8)
    for x in range(11, 17):  # 1-px tail forces a revisit
        img.bits[5 * 20 + x] = 1
    assert trace_boundaries(img) == []


def test_dropped_loop_warning_names_image_coordinates(caplog):
    img = filled_rect_image(20, 12, 3, 3, 10, 8)
    for x in range(11, 17):
        img.bits[5 * 20 + x] = 1
    with caplog.at_level(logging.WARNING, logger="beziertrace.contour"):
        trace_boundaries(img)
    assert caplog.messages == [
        "dropping outer boundary at (3, 3): loop revisits a pixel"]


def _oracle_bitmaps():
    rng = random.Random(0x7ACE)
    for _ in range(300):  # noise
        w, h = rng.randint(1, 24), rng.randint(1, 24)
        density = rng.uniform(0.2, 0.8)
        yield w, h, bytearray(rng.random() < density for _ in range(w * h))
    for _ in range(60):  # rectangles, then holes and islands cut into them
        w, h = rng.randint(1, 60), rng.randint(1, 60)
        bits = bytearray(w * h)
        for i in range(rng.randint(1, 8)):
            x0, y0 = rng.randrange(w), rng.randrange(h)
            x1, y1 = rng.randint(x0, w - 1), rng.randint(y0, h - 1)
            value = i % 2 == 0
            for y in range(y0, y1 + 1):
                bits[y * w + x0:y * w + x1 + 1] = bytes([value]) * (x1 - x0 + 1)
        yield w, h, bits
    for w, h in ((1, 1), (1, 9), (9, 1), (7, 5)):
        yield w, h, bytearray(w * h)
        yield w, h, bytearray(b"\x01" * (w * h))
        yield w, h, bytearray(b"\x01\x00" * (w * h))[:w * h]


def test_trace_matches_two_flood_oracle():
    for w, h, bits in _oracle_bitmaps():
        got = [c.points for c in trace_boundaries(RasterImage(w, h, bits))]
        assert got == reference_trace(w, h, bits), (w, h, bytes(bits))


# ----------------------------- contour documents -----------------------------


def test_contour_roundtrip(tmp_path):
    img = rect_with_hole_image()
    doc = ContourDocument(img.width, img.height, trace_boundaries(img))
    path = tmp_path / "c.json"
    write_contour(path, doc)
    back = read_contour(path)
    assert (back.width, back.height) == (doc.width, doc.height)
    assert [c.points for c in back.contours] == [c.points for c in doc.contours]


def test_contour_rejects_short_loop(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"width":4,"height":4,"contours":'
                    '[{"closed":true,"points":[[0,0],[1,0],[1,1]]}]}')
    with pytest.raises(FormatError) as err:
        read_contour(path)
    assert "points" in str(err.value)


def test_contour_rejects_non_adjacent(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"width":8,"height":8,"contours":'
                    '[{"closed":true,"points":[[0,0],[1,0],[4,4],[0,1]]}]}')
    with pytest.raises(FormatError) as err:
        read_contour(path)
    assert "8-neighbor" in str(err.value)


def test_contour_rejects_duplicate_point(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"width":8,"height":8,"contours":'
                    '[{"closed":true,"points":[[0,0],[1,0],[0,0],[1,0],[0,1]]}]}')
    with pytest.raises(FormatError):
        read_contour(path)


def test_contour_rejects_float_coords(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"width":8,"height":8,"contours":'
                    '[{"closed":true,"points":[[0,0],[1.5,0],[1,1],[0,1]]}]}')
    with pytest.raises(FormatError):
        read_contour(path)


@pytest.mark.parametrize("x", [2 ** 53, 2 ** 60, 10 ** 400])
def test_contour_rejects_coords_floats_cannot_hold(tmp_path, x):
    # past 2**53 neighbouring pixels read into the same float; past 1e308
    # into none
    path = tmp_path / "bad.json"
    path.write_text('{"width":8,"height":8,"contours":[{"closed":true,'
                    f'"points":[[{x},0],[{x + 1},0],[{x + 1},1],[{x},1]]}}]}}')
    with pytest.raises(FormatError) as err:
        read_contour(path)
    assert "2**53" in str(err.value)


@pytest.mark.parametrize("bad", [0.6, float("nan"), float("inf"),
                                 float(2 ** 60)])
def test_write_contour_refuses_what_the_reader_refuses(tmp_path, bad):
    # the reader's rule: integral values within +-2**53; the error names
    # the point and comes before the file is opened
    square = Contour([Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(1.0, 1.0),
                      Point2(0.0, 1.0)])
    for point in (Point2(bad, 0.0), Point2(1.0, bad)):
        odd = Contour([Point2(0.0, 0.0), point, Point2(1.0, 1.0),
                       Point2(0.0, 1.0)])
        path = tmp_path / "bad.json"
        with pytest.raises(FormatError) as err:
            write_contour(path, ContourDocument(8, 8, [square, odd]))
        assert "contours[1].points[1]" in str(err.value)
        assert "2**53" in str(err.value)
        assert not path.exists()


def test_contour_rejects_missing_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"width":8,"contours":[]}')
    with pytest.raises(FormatError) as err:
        read_contour(path)
    assert "height" in str(err.value)


@pytest.mark.parametrize("width, height, bad", [
    ("true", "4", "width"), ("4", "false", "height"),
    ("0", "4", "width"), ("4", "-2", "height"),
])
def test_contour_rejects_bad_dimensions(tmp_path, width, height, bad):
    path = tmp_path / "bad.json"
    path.write_text(f'{{"width":{width},"height":{height},"contours":[]}}')
    with pytest.raises(FormatError) as err:
        read_contour(path)
    assert bad in str(err.value)
