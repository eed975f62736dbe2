import logging
import random
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from beziertrace import cli
from beziertrace.contour import (Contour, ContourDocument, PackedImage,
                                 RasterImage, load_image, read_bitmap,
                                 read_contour, trace_boundaries, write_contour)
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


@st.composite
def _raw_rows(draw):
    """A raw P4 raster of any width: packed rows with random padding bits,
    some rows all zero bytes and some with only their padding bits set."""
    width, height = draw(st.integers(1, 70)), draw(st.integers(1, 12))
    stride = (width + 7) // 8
    padding = ((1 << (stride * 8 - width)) - 1).to_bytes(stride, "big")
    row = st.one_of(st.binary(min_size=stride, max_size=stride),
                    st.just(bytes(stride)), st.just(padding))
    return width, height, b"".join(draw(st.lists(row, min_size=height,
                                                 max_size=height)))


@given(_raw_rows())
@example((9, 2, bytes([0xA5, 0x7F, 0x3C, 0x80])))  # padding bits set
@example((70, 1, bytes(range(0xF0, 0xF9))))
@example((13, 5, bytes([0, 0, 0, 7, 0x80, 0, 0, 0, 0, 1])))  # blank rows too
def test_raw_pbm_matches_per_bit_decode(tmp_path_factory, raster):
    width, height, raw = raster
    stride = (width + 7) // 8
    path = tmp_path_factory.mktemp("p4") / "r.pbm"
    path.write_bytes(b"P4\n%d %d\n" % (width, height) + raw)
    naive = [(raw[y * stride + x // 8] >> (7 - x % 8)) & 1
             for y in range(height) for x in range(width)]
    assert list(load_image(path).bits) == naive


# a run of separators between plain pixels: whitespace, or a comment that
# ends its line (one holding '#' and digits too)
_PLAIN_SEP = st.sampled_from([b" ", b"\t", b"\r", b"\n", b"\x0b", b"\x0c",
                              b"# note\n", b"#1 0 # 01\n", b"#\r\n"])


@st.composite
def _plain_pages(draw):
    """A random bitmap as a plain P1 file, with a random run of separators
    before each pixel (at least one before the first) and after the last,
    where a final comment may end the file without a newline."""
    width, height = draw(st.integers(1, 40)), draw(st.integers(1, 8))
    bits = draw(st.lists(st.integers(0, 1), min_size=width * height,
                         max_size=width * height))
    out = [b"P1\n%d %d" % (width, height)]
    for i, bit in enumerate(bits):
        out += draw(st.lists(_PLAIN_SEP, min_size=1 if i == 0 else 0,
                             max_size=3))
        out.append(b"01"[bit:bit + 1])
    out += draw(st.lists(_PLAIN_SEP, max_size=3))
    out.append(draw(st.sampled_from([b"", b"\n", b"# end", b"#"])))
    return RasterImage(width, height, bytearray(bits)), b"".join(out)


@given(_plain_pages())
@example((RasterImage(3, 2, bytearray([1, 1, 0, 0, 1, 1])),
          b"P1 3 2\n1#0\n1 0#1\n\n01#1\n1# end"))
def test_plain_pbm_matches_raw_decode(tmp_path_factory, page):
    img, plain = page
    where = tmp_path_factory.mktemp("p1")
    (where / "a.pbm").write_bytes(plain)
    (where / "b.pbm").write_bytes(pbm_raw_bytes(img))
    assert load_image(where / "a.pbm").bits == load_image(where / "b.pbm").bits


@pytest.mark.parametrize("data, message", [
    (b"P1\n2 2\n1 0 # note\n x1\n",
     "unexpected raster byte 'x' (byte offset 19)"),
    (b"P1\n2 2\n1 0\n# last pixel\n1\n",
     "truncated raster: 3 of 4 pixels (byte offset 26)"),
    (b"P1\n2 1\n1 0 # end\n1\n",
     "trailing data after raster (byte offset 17)"),
])
def test_plain_pbm_failures_keep_their_words_and_offsets(tmp_path, data,
                                                         message):
    p = tmp_path / "f.pbm"
    p.write_bytes(data)
    with pytest.raises(FormatError) as err:
        load_image(p)
    assert str(err.value) == f"{p}: {message}"


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


def _whiskers_in_two_bands():
    """Two bands split by a blank row: above, a ring whose hole a 1-px spike
    pinches; below, a block with a 1-px tail.  Both loops revisit a pixel."""
    img = RasterImage(20, 14, bytearray(20 * 14))
    for x0, y0, x1, y1, value in ((2, 0, 10, 6, 0xFF), (3, 1, 9, 5, 0),
                                  (2, 3, 5, 3, 0xFF), (3, 8, 9, 12, 1),
                                  (10, 10, 15, 10, 1)):
        for y in range(y0, y1 + 1):
            img.bits[y * 20 + x0:y * 20 + x1 + 1] = bytes([value]) * (x1 - x0 + 1)
    return img


def test_dropped_loop_warnings_run_outers_then_holes_across_bands(caplog):
    with caplog.at_level(logging.WARNING, logger="beziertrace.contour"):
        loops = trace_boundaries(_whiskers_in_two_bands())
    assert [c.points[0] for c in loops] == [Point2(2.0, 0.0)]
    assert caplog.messages == [
        "dropping outer boundary at (3, 8): loop revisits a pixel",
        "dropping hole boundary at (3, 0): loop revisits a pixel"]


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
    for _ in range(120):  # bands of live rows between blank ones
        w, h = rng.randint(1, 30), rng.randint(1, 30)
        bits = bytearray(rng.choice((1, 2, 0x80, 0xFF))
                         * (rng.random() < rng.uniform(0.2, 0.8))
                         for _ in range(w * h))
        for y in rng.sample(range(1, h - 1), rng.randint(0, max(0, h - 2))):
            bits[y * w:(y + 1) * w] = bytes(w)  # the first and last stay live
        yield w, h, bits
    ring = b"\0\0\0\0\0\0\x01\x01\x01\0\0\x01\0\x01\0\0\x01\x01\xff\0"
    yield 5, 8, bytearray(b"\x01" * 5 + bytes(5) + ring + bytes(5) + b"\x02" * 5)
    yield 20, 14, _whiskers_in_two_bands().bits
    for w, h in ((1, 1), (1, 9), (9, 1), (7, 5)):
        yield w, h, bytearray(w * h)
        yield w, h, bytearray(b"\x01" * (w * h))
        yield w, h, bytearray(b"\x01\x00" * (w * h))[:w * h]


def test_trace_matches_two_flood_oracle():
    for w, h, bits in _oracle_bitmaps():
        got = [c.points for c in trace_boundaries(RasterImage(w, h, bits))]
        assert got == reference_trace(w, h, bits), (w, h, bytes(bits))


def _traced_and_warned(img):
    """trace_boundaries(img) as point lists, and the warnings it logged."""
    records = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = records.append
    logger = logging.getLogger("beziertrace.contour")
    logger.addHandler(handler)
    try:
        loops = trace_boundaries(img)
    finally:
        logger.removeHandler(handler)
    return [c.points for c in loops], [r.getMessage() for r in records]


def _p4(width, height, pixels, padding=()):
    """The raw P4 bytes of a 0/1 pixel list, with the padding bits of row y
    set to padding[y] (none if padding is empty)."""
    stride = (width + 7) // 8
    spare = stride * 8 - width
    return b"P4\n%d %d\n" % (width, height) + b"".join(
        ((int("".join(map(str, pixels[y * width:(y + 1) * width])), 2)
          << spare) | (padding[y] if padding else 0)).to_bytes(stride, "big")
        for y in range(height))


@st.composite
def _p4_pages(draw):
    """A random page as pixels and padding bits: noise of a random density,
    with some rows and columns blanked so that bands split and crop, any
    pixel of the page edge may be set, and padding bits are random."""
    width, height = draw(st.integers(1, 70)), draw(st.integers(1, 14))
    density = draw(st.integers(1, 3))
    cells = draw(st.lists(st.integers(0, 3), min_size=width * height,
                          max_size=width * height))
    blank_rows = draw(st.sets(st.integers(0, height - 1)))
    blank_cols = draw(st.sets(st.integers(0, width - 1)))
    pixels = [int(cells[y * width + x] < density and y not in blank_rows
                  and x not in blank_cols)
              for y in range(height) for x in range(width)]
    spare = (-width) % 8
    padding = draw(st.lists(st.integers(0, (1 << spare) - 1),
                            min_size=height, max_size=height))
    return width, height, pixels, padding


@given(_p4_pages())
@example((9, 3, [1] * 27, [0x7F, 0, 0x7F]))  # a full page, edges and padding
@example((17, 4, [0, 1] * 34, [0x7F] * 4))  # stripes: crops at every column
@example((3, 5, [1, 1, 1, 1, 0, 1, 1, 1, 1, 0, 0, 0, 0, 1, 0],
          [0x1F, 0, 0x1F, 0x1F, 0]))  # a ring, a blank row of padding only
def test_packed_trace_matches_page_trace_and_oracle(tmp_path_factory, page):
    width, height, pixels, padding = page
    path = tmp_path_factory.mktemp("p4") / "page.pbm"
    path.write_bytes(_p4(width, height, pixels, padding))
    packed = read_bitmap(path)
    assert isinstance(packed, PackedImage)
    streamed = _traced_and_warned(packed)
    assert streamed == _traced_and_warned(load_image(path))
    assert streamed[0] == reference_trace(width, height, pixels)


def test_padding_bits_never_become_pixels(tmp_path):
    # every padding bit set: the same loops and warnings as zero padding,
    # from the packed raster and from the page alike
    width, height = 21, 9
    pixels = [int(0 < x < 18 and 0 < y < 8 and not (x == 7 and y == 4)
                  or x >= 18 and y == 4)  # a 1-px tail out to the page edge
              for y in range(height) for x in range(width)]
    clean, padded = tmp_path / "clean.pbm", tmp_path / "padded.pbm"
    clean.write_bytes(_p4(width, height, pixels))
    padded.write_bytes(_p4(width, height, pixels, [0x07] * height))
    assert clean.read_bytes() != padded.read_bytes()
    want = _traced_and_warned(read_bitmap(clean))
    assert len(want[0]) == 1 and want[1] == [  # the hole stays
        "dropping outer boundary at (1, 1): loop revisits a pixel"]
    assert _traced_and_warned(read_bitmap(padded)) == want
    assert _traced_and_warned(load_image(padded)) == want
    assert load_image(padded).bits == load_image(clean).bits


def _traced_peak(fn, *args):
    """fn(*args), and the most memory it held at once by tracemalloc."""
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def _square_page(tmp_path):
    """A 2000x2000 page holding one 20x20 square, as pixels and as raw P4."""
    w = h = 2000
    bits = bytearray(w * h)
    for y in range(990, 1010):
        bits[y * w + 990:y * w + 1010] = b"\x01" * 20
    row = (((1 << 20) - 1) << (w - 1010)).to_bytes(w // 8, "big")
    path = tmp_path / "square.pbm"
    path.write_bytes(b"P4\n%d %d\n" % (w, h) + b"".join(
        row if 990 <= y < 1010 else bytes(w // 8) for y in range(h)))
    return RasterImage(w, h, bits), path


def test_tracer_holds_only_the_live_band(tmp_path):
    # the tracer frames only the square's band cropped to its live columns,
    # 22 rows of 22 bytes, and holds that and the band's marks; the rest is
    # the loop it returns and a row or two read as integers.  One uncropped
    # framed band, 22 rows of 2002 bytes, would not fit in the bound
    page, path = _square_page(tmp_path)
    for img in (page, read_bitmap(path)):
        loops, peak = _traced_peak(trace_boundaries, img)
        assert [c.n for c in loops] == [76]
        assert peak < 32_000


def test_trace_command_holds_only_the_file_and_the_live_band(tmp_path,
                                                             capsys):
    # an 8000x8000 raw page (8 MB) with one 40x40 square: trace reads the
    # file and decodes the square's band, and never builds the 64 MB page
    w = 8000
    row = (((1 << 40) - 1) << (w - 4040)).to_bytes(w // 8, "big")
    path = tmp_path / "big.pbm"
    path.write_bytes(b"P4\n%d %d\n" % (w, w) + b"".join(
        row if 4000 <= y < 4040 else bytes(w // 8) for y in range(w)))
    out = tmp_path / "big.contours.json"
    code, peak = _traced_peak(cli.main, ["trace", str(path), "-o", str(out)])
    assert code == 0 and "traced 1 loop(s) (points: 156)" in capsys.readouterr().out
    assert peak < 1.1 * path.stat().st_size < 12e6


def test_loader_holds_only_the_page_and_the_file(tmp_path):
    # the loader holds the zeroed page it returns, the packed file and the
    # decoded band, not a digit string and a copy of the whole page
    page, path = _square_page(tmp_path)
    img, peak = _traced_peak(load_image, path)
    assert img.bits == page.bits
    assert peak < 1.25 * page.width * page.height


def test_plain_loader_holds_the_file_and_the_pixels_only(tmp_path):
    # the plain decode strips the raster text a stretch at a time, with no
    # copy of the whole text and no second page: about the file plus the
    # page, which is half the file here
    page = filled_rect_image(1000, 800, 100, 150, 599, 449)
    lines = pbm_plain_bytes(page).split(b"\n")
    lines[1] += b" # a comment after the size"
    lines[400] += b"# a comment with 0 and 1 in it"
    path = tmp_path / "plain.pbm"
    path.write_bytes(b"\n".join(lines))
    img, peak = _traced_peak(load_image, path)
    assert img.bits == page.bits
    assert peak < 2.2 * path.stat().st_size


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


# Each bad document below names the pair or loop the per-pair scan names;
# the messages are literal, so a bulk check may only decide when to scan.
_SQUARE = ["[0,0]", "[1,0]", "[1,1]", "[0,1]"]
_RING = ["[2,2]", "[3,2]", "[4,2]", "[4,3]", "[4,4]", "[3,4]", "[2,4]",
         "[2,3]"]
_PAIR_RULE = "expected an [x, y] pair of integers within +-2**53, got "


def _contour_text(loops) -> str:
    return ('{"width":8,"height":8,"contours":[' + ",".join(
        '{"closed":true,"points":[' + ",".join(loop) + "]}" for loop in loops)
        + "]}")


def _read_error(tmp_path, loops) -> str:
    path = tmp_path / "bad.json"
    path.write_text(_contour_text(loops))
    with pytest.raises(FormatError) as err:
        read_contour(path)
    prefix = f"{path}: "
    assert str(err.value).startswith(prefix)
    return str(err.value)[len(prefix):]


@pytest.mark.parametrize("ci, pi", [(0, 0), (1, 5)])
@pytest.mark.parametrize("pair, shown", [
    ("[true,0]", "[True, 0]"),
    ("[0,false]", "[0, False]"),
    ("[1.0,0]", "[1.0, 0]"),
    ("[0,1.0]", "[0, 1.0]"),
    ("[9007199254740993,0]", "[9007199254740993, 0]"),
    ("[0,-9007199254740993]", "[0, -9007199254740993]"),
    ("[1]", "[1]"),
    ("[1,2,3]", "[1, 2, 3]"),
    ('"ab"', "'ab'"),
    ('{"x":1}', "{'x': 1}"),
    ("null", "None"),
])
def test_read_contour_names_the_first_bad_pair(tmp_path, ci, pi, pair, shown):
    loops = [list(_SQUARE), list(_RING)]
    loops[1][7] = '"later"'  # a later bad pair is not the one named
    loops[ci][pi] = pair
    assert _read_error(tmp_path, loops) == \
        f"contours[{ci}].points[{pi}]: {_PAIR_RULE}{shown}"


@pytest.mark.parametrize("loops, message", [
    ([_SQUARE, _RING[:4] + ["[2,2]"] + _RING[5:]],
     "contours[1].points: loop revisits a pixel"),
    ([_SQUARE, _RING[:2] + ["[5,2]"] + _RING[3:]],
     "contours[1].points: points (3, 2) and (5, 2) are not 8-neighbors"),
    ([_SQUARE, _RING[:4] + ["[4,5]"] + _RING[5:]],  # a gap in y alone
     "contours[1].points: points (4, 3) and (4, 5) are not 8-neighbors"),
    ([_SQUARE[:3] + ["[0,2]"], _RING],  # the closing step
     "contours[0].points: points (0, 2) and (0, 0) are not 8-neighbors"),
    ([_SQUARE[:3], _RING],
     "contours[0].points: loop has 3 points, need at least 4"),
    ([_SQUARE, []], "contours[1].points: loop has 0 points, need at least 4"),
])
def test_read_contour_names_the_broken_loop(tmp_path, loops, message):
    assert _read_error(tmp_path, loops) == message


_UNIT_SQUARE = Contour([Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(1.0, 1.0),
                        Point2(0.0, 1.0)])
_RING_POINTS = [Point2(float(x), float(y)) for x, y in (
    (2, 2), (3, 2), (4, 2), (4, 3), (4, 4), (3, 4), (2, 4), (2, 3))]


@pytest.mark.parametrize("pi, axis, shown", [
    (0, "x", "({}, 2.0)"), (3, "y", "(4.0, {})"), (7, "x", "({}, 3.0)")])
@pytest.mark.parametrize("bad, text", [
    (float("nan"), "nan"), (float("inf"), "inf"), (float("-inf"), "-inf"),
    (0.5, "0.5"), (2.0 ** 53 + 2, "9007199254740994.0"),
    (2 ** 53 + 1, "9007199254740993")])
def test_write_contour_names_the_first_bad_point(tmp_path, pi, axis, shown,
                                                 bad, text):
    ring = list(_RING_POINTS)
    if pi == 0:
        ring[5] = Point2(0.5, 4.0)  # a later bad point is not the one named
    ring[pi] = ring[pi]._replace(**{axis: bad})
    path = tmp_path / "bad.json"
    with pytest.raises(FormatError) as err:
        write_contour(path, ContourDocument(8, 8, [_UNIT_SQUARE,
                                                   Contour(ring)]))
    assert str(err.value) == (
        f"{path}: contours[1].points[{pi}]: expected integral coordinates "
        f"within +-2**53, got {shown.format(text)}")
    assert not path.exists()


def _written_or_refused(path, doc) -> bytes | str:
    try:
        write_contour(path, doc)
    except FormatError as exc:
        assert not path.exists()
        return str(exc)
    return path.read_bytes()


# edits of a loop's points after trace_boundaries or read_contour built it
_EDITS = {
    "moved in place": lambda c: c.points.__setitem__(0, Point2(-1.0, -1.0)),
    "fraction in place": lambda c: c.points.__setitem__(2, Point2(0.5, 3.0)),
    "appended": lambda c: c.points.append(Point2(7.0, 7.0)),
    "assigned": lambda c: setattr(c, "points", c.points[::-1][:5]),
    "assigned nan": lambda c: setattr(c, "points", [Point2(float("nan"), 0)]),
}


@pytest.mark.parametrize("edit", sorted(_EDITS))
@pytest.mark.parametrize("source", ["traced", "read"])
def test_write_contour_follows_points_edited_after_a_read(tmp_path, source,
                                                          edit):
    # a traced or read loop is written from its integer columns only while
    # its points were never read or assigned; after that the writer and n
    # follow the points, exactly as for a loop built from points
    doc = ContourDocument(20, 16, trace_boundaries(rect_with_hole_image()))
    if source == "read":
        write_contour(tmp_path / "first.json", doc)
        doc = read_contour(tmp_path / "first.json")
    edited = doc.contours[-1]
    _EDITS[edit](edited)
    assert edited.n == len(edited.points)
    got = _written_or_refused(tmp_path / "out.json", doc)
    built = ContourDocument(doc.width, doc.height,
                            [Contour(list(c.points)) for c in doc.contours])
    assert got == _written_or_refused(tmp_path / "out.json", built)


def test_write_contour_writes_signed_zero_bool_and_int_as_ints(tmp_path):
    path = tmp_path / "odd.json"
    write_contour(path, ContourDocument(3, 2, [Contour(
        [Point2(-0.0, 0), Point2(True, 0), Point2(1, 1.0),
         Point2(False, True)])]))
    assert path.read_bytes() == (b'{"contours":[{"closed":true,"points":'
                                 b'[[0,0],[1,0],[1,1],[0,1]]}],"height":2,'
                                 b'"width":3}\n')
