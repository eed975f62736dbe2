"""Binary raster ingestion and boundary tracing into closed pixel loops.

Input images are 1-bit portable bitmaps (plain ``P1`` or raw ``P4``); traced
loops are exchanged through a small JSON document, see ``write_contour``.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from operator import mul, sub

from .bezier_core import Point2, _new_tuple
from .errors import FormatError

log = logging.getLogger(__name__)

# Moore neighborhood in clockwise screen order (y grows downward), E first.
_CW8 = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))
# Tracing marks: a loop visited the pixel; a loop already follows the crack
# between the pixel and its east neighbour.
_VISITED = 1
_EAST_CLOSED = 2
# backtrack directions (_CW8 indices) at a loop's first pixel: an outer's
# first pixel is entered from its west, a hole's from the background below
_WEST, _SOUTH = 4, 2
# any nonzero byte is object, as in RasterImage.at
_AS_BIT = bytes([0] + [1] * 255)


@dataclass
class RasterImage:
    """Row-major binary occupancy grid; 1 = object, 0 = background."""

    width: int
    height: int
    bits: bytearray

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise FormatError(f"bad image dimensions {self.width}x{self.height}")
        if len(self.bits) != self.width * self.height:
            raise FormatError(
                f"bit count {len(self.bits)} does not match "
                f"{self.width}x{self.height}"
            )

    def at(self, x: int, y: int) -> bool:
        """Object test; coordinates outside the grid read as background."""
        if 0 <= x < self.width and 0 <= y < self.height:
            return bool(self.bits[y * self.width + x])
        return False


@dataclass
class PackedImage:
    """A raw (P4) raster left packed, as read_bitmap found it: height rows
    of (width + 7) // 8 bytes from data[start], each pixel one bit, most
    significant first, 1 = object.  Bits past width in a row's last byte
    are padding and never pixels."""

    width: int
    height: int
    data: bytes
    start: int


class Contour:
    """One closed 8-connected pixel loop.

    Points are stored in traversal order; the loop closes from the last
    point back to the first.  Outer boundaries carry positive shoelace area
    under the stored (x, y) coordinates, holes negative.

    trace_boundaries and read_contour build a contour from the integer x and
    y columns they hold.  Its Point2 list is built from them the first time
    points is read, and the columns are dropped then, so a list the caller
    may change is never written from stale columns.  Until then n is their
    length and write_contour writes them as they are.
    """

    __slots__ = ("_pts", "_cols")
    __hash__ = None  # mutable, compared by value

    def __init__(self, points: list[Point2] | None = None):
        self._pts = [] if points is None else points
        self._cols = None

    @classmethod
    def _from_columns(cls, xs, ys) -> Contour:
        c = cls.__new__(cls)
        c._pts, c._cols = None, (xs, ys)
        return c

    @property
    def points(self) -> list[Point2]:
        if self._cols is not None:
            self._pts, self._cols = _points(*self._cols), None
        return self._pts

    @points.setter
    def points(self, value: list[Point2]) -> None:
        self._pts, self._cols = value, None

    @property
    def n(self) -> int:
        return len(self._pts if self._cols is None else self._cols[0])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.points,) == (other.points,)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(points={self.points!r})"

    def signed_area(self) -> float:
        pts = self.points
        total = 0.0
        for i, p in enumerate(pts):
            q = pts[(i + 1) % len(pts)]
            total += p.x * q.y - q.x * p.y
        return 0.5 * total


@dataclass
class ContourDocument:
    """Traced loops of one image plus the image dimensions."""

    width: int
    height: int
    contours: list[Contour] = field(default_factory=list)


# --------------------------- portable bitmap input ---------------------------

_DIGIT_BIT = bytes.maketrans(b"01", b"\0\1")
# bytes of plain raster text stripped at a time, beside the file and pixels
_P1_STRETCH = 1 << 16


def _bands(buf, start: int, stride: int, count: int) -> list[list[int]]:
    """[first, end) runs of live rows, rows of stride bytes not all zero."""
    zero, bands = bytes(stride), [[0, -1]]
    for r in range(count):
        if not buf.startswith(zero, start + r * stride):
            if bands[-1][1] != r:
                bands.append([r, r])
            bands[-1][1] = r + 1
    return bands[1:]


class _Scanner:
    """Byte cursor with PBM whitespace/comment skipping and offset reporting."""

    _WS = b" \t\r\n\x0b\x0c"

    def __init__(self, data: bytes, path: str):
        self.data = data
        self.pos = 0
        self.path = path

    def error(self, message: str, offset: int | None = None) -> FormatError:
        return FormatError(message, path=self.path,
                           offset=self.pos if offset is None else offset)

    def skip_separators(self) -> None:
        data = self.data
        while self.pos < len(data):
            c = data[self.pos]
            if c in self._WS:
                self.pos += 1
            elif c == 0x23:  # '#' comment runs to end of line
                nl = data.find(b"\n", self.pos)
                self.pos = len(data) if nl < 0 else nl + 1
            else:
                break

    def read_int(self, what: str) -> int:
        self.skip_separators()
        start = self.pos
        data = self.data
        while self.pos < len(data) and 0x30 <= data[self.pos] <= 0x39:
            self.pos += 1
        if self.pos == start:
            raise self.error(f"expected {what}", offset=start)
        try:
            return int(data[start:self.pos])
        except ValueError:  # past the interpreter's digit limit
            raise self.error(f"{what} has too many digits",
                             offset=start) from None


def read_bitmap(path: str) -> RasterImage | PackedImage:
    """Read a 1-bit portable bitmap (plain or raw); 1/black is the object.
    A plain raster is decoded by translates, a stretch of its text at a
    time, into a RasterImage.  A raw raster is checked and kept packed, as
    a PackedImage: trace_boundaries decodes only its live bands, so the page
    is never built."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read image: {exc}", path=str(path)) from exc

    sc = _Scanner(data, str(path))
    magic = data[:2]
    if magic not in (b"P1", b"P4"):
        raise sc.error(f"not a portable bitmap (magic {magic!r})", offset=0)
    sc.pos = 2

    width = sc.read_int("width")
    height = sc.read_int("height")
    if width <= 0 or height <= 0:
        raise sc.error(f"bad dimensions {width}x{height}")

    if magic == b"P1":
        total = width * height
        # each pixel takes a byte at least, so a file too short for its
        # dimensions is rejected before the raster is allocated
        if len(data) - sc.pos < total:
            raise sc.error(f"truncated raster: {len(data) - sc.pos} bytes "
                           f"for {width}x{height} pixels", offset=len(data))
        # comments cut to their line ends and separators deleted, one
        # stretch of at most _P1_STRETCH bytes at a time, straight into the
        # pixels: the rest must be 0 or 1, total of them; the byte scan runs
        # only to word a failure
        bits, bad, pos = bytearray(), False, sc.pos
        while pos < len(data):
            end = data.find(b"#", pos)
            end = len(data) if end < 0 else end
            for a in range(pos, end, _P1_STRETCH):
                digits = data[a:min(end, a + _P1_STRETCH)].translate(
                    None, _Scanner._WS)
                bad = bad or digits.translate(None, b"01")
                bits += digits.translate(_DIGIT_BIT)
            nl = data.find(b"\n", end)
            pos = len(data) if nl < 0 else nl + 1
        bad = bad or len(bits) != total
        for count in range(total + 1 if bad else 0):
            sc.skip_separators()
            if count == total:
                raise sc.error("trailing data after raster")
            if sc.pos >= len(data):
                raise sc.error(f"truncated raster: {count} of {total} pixels")
            c = data[sc.pos]
            if c not in b"01":
                raise sc.error(f"unexpected raster byte {chr(c)!r}")
            sc.pos += 1
        return RasterImage(width, height, bits)
    # exactly one separator byte after the header, then packed rows
    if sc.pos >= len(data) or data[sc.pos] not in _Scanner._WS:
        raise sc.error("expected whitespace before raw raster")
    sc.pos += 1
    need = (width + 7) // 8 * height
    if len(data) - sc.pos < need:
        raise sc.error(
            f"truncated raster: {len(data) - sc.pos} bytes for "
            f"{width}x{height} pixels", offset=len(data))
    if len(data) - sc.pos > need:
        raise sc.error("trailing data after raster", offset=sc.pos + need)
    return PackedImage(width, height, data, sc.pos)


def load_image(path: str) -> RasterImage:
    """Read a 1-bit portable bitmap (plain or raw) into a whole page.  A raw
    raster's live bands are decoded as the tracer decodes them
    (_framed_bands) and pasted into a zeroed page."""
    img = read_bitmap(path)
    if isinstance(img, RasterImage):
        return img
    w = img.width
    bits = bytearray(w * img.height)
    for top, left, fw, band in _framed_bands(img):
        for r in range(fw, len(band) - fw, fw):  # each row inside the frame
            at = (top + r // fw) * w + left + 1
            bits[at:at + fw - 2] = band[r + 1:r + fw - 1]
    return RasterImage(w, img.height, bits)


# ------------------------------ boundary tracing -----------------------------


def _framed_bands(img: RasterImage | PackedImage):
    """Each band of live rows of img (_bands), cropped to its live byte
    columns and copied into a grid framed by 0-pixels, as (page row and
    column of the frame's top-left pixel, row stride, grid).  In the grid,
    1 is object and 0 background.

    The live columns are the OR of the band's rows as big integers, stripped
    of zero bytes at both ends; every other column is blank in every row of
    the band, so the frame reads as they or the image edge would.  A band
    is framed in two passes: one join puts two frame bytes between its rows,
    and one translate makes each object byte 1.  A packed row is one
    big-endian integer of its live bytes, written as binary digits and cut
    at the width, so padding bits never become pixels; the digits are
    joined and translated the same way.
    """
    w, packed = img.width, isinstance(img, PackedImage)
    buf, start, stride = ((img.data, img.start, (w + 7) // 8) if packed
                          else (img.bits, 0, w))
    view = memoryview(buf)
    for y0, y1 in _bands(buf, start, stride, img.height):
        rows = [view[i:i + stride] for i in
                range(start + y0 * stride, start + y1 * stride, stride)]
        live = 0
        for row in rows:
            live |= int.from_bytes(row, "big")
        live = live.to_bytes(stride, "big")
        a, b = stride - len(live.lstrip(b"\0")), len(live.rstrip(b"\0"))
        if packed:
            x0, cols, digits = 8 * a, min(8 * b, w) - 8 * a, f"0{8 * (b - a)}b"
            edge = "0" * (cols + 1)  # with a separator: a frame row and pixel
            band = "00".join([edge, *(
                format(int.from_bytes(row[a:b], "big"), digits)[:cols]
                for row in rows), edge]).encode().translate(_DIGIT_BIT)
        else:
            x0, cols, edge = a, b - a, bytes(b - a + 1)
            band = bytearray(b"\0\0").join(
                [edge, *(row[a:b] for row in rows), edge]).translate(_AS_BIT)
        yield y0 - 1, x0 - 1, cols + 2, band


def _moore_table(fw: int) -> list[tuple]:
    """For each direction of the backtrack (a _CW8 index), the seven Moore
    probes clockwise after it in a grid of row stride fw, as flat offsets,
    and a map from each to the direction from that pixel back to the one
    probed before it, and whether the scan passed the east neighbour on
    its way there."""
    steps = [dx + dy * fw for dx, dy in _CW8]
    direction = {step: d for d, step in enumerate(steps)}
    return [(steps[d + 1:] + steps[:d],
             {steps[k % 8]: (direction[steps[k % 8 - 1] - steps[k % 8]],
                             d == 0 or k > 8)  # probes d .. k - 1 hold east
              for k in range(d + 1, d + 8)}) for d in range(8)]


def _moore_trace(bits, marks, table, start, back):
    """Follow one boundary loop of the framed grid from the pixel start,
    entered from its background neighbour in direction back; table is the
    grid's _moore_table.

    Each step scans clockwise around the current pixel from its backtrack
    to the next object pixel; the background pixel scanned just before it
    is the new backtrack.  Every pixel the loop visits is flagged visited,
    and every pixel whose east neighbour the scan passes, east-closed.
    """
    marks[start] |= _VISITED
    loop = [start]
    seen = {start * 8 + back}  # states: pixel * 8 + backtrack direction
    cur = start
    while True:
        probes, turns = table[back]  # the backtrack itself is background
        for step in probes:
            if bits[cur + step]:
                break
        else:
            marks[cur] |= _EAST_CLOSED
            return loop  # an isolated pixel
        back, east = turns[step]
        if east:
            marks[cur] |= _EAST_CLOSED
        cur += step
        # Jacob's criterion: the start state comes round again; any other
        # repeat is a safety net, and validation rejects the loop if broken
        state = cur * 8 + back
        if state in seen:
            return loop
        seen.add(state)
        loop.append(cur)
        marks[cur] |= _VISITED


def _loop_violation(xs, ys) -> str | None:
    """First closed-loop invariant the pixel loop with columns xs, ys
    breaks, or None.  The steps are checked in bulk; the pairs are scanned
    one by one only to name the first that breaks."""
    n = len(xs)
    if n < 4:
        return f"loop has {n} points, need at least 4"
    if len(set(zip(xs, ys))) != n:
        return "loop revisits a pixel"
    steps = [*map(sub, xs[1:], xs), *map(sub, ys[1:], ys),
             xs[0] - xs[-1], ys[0] - ys[-1]]
    if -1 <= min(steps) and max(steps) <= 1:  # none is 0, 0: no repeats
        return None
    for i in range(n):
        a, b = (xs[i], ys[i]), (xs[i + 1 - n], ys[i + 1 - n])
        if max(abs(a[0] - b[0]), abs(a[1] - b[1])) != 1:
            return f"points {a} and {b} are not 8-neighbors"


def _points(xs, ys) -> list[Point2]:
    """The Point2 list of the integer columns xs and ys."""
    return list(map(_new_tuple, [Point2] * len(xs),
                    zip(map(float, xs), map(float, ys))))


def trace_boundaries(img: RasterImage | PackedImage) -> list[Contour]:
    """Trace every outer and hole boundary of the object pixels.

    One raster scan finds each border at its first pixel (Suzuki & Abe,
    1985) from the marks earlier traces left; Moore-neighbor tracing with
    Jacob's stopping criterion follows it.  The object is 8-connected, the
    background 4-connected.  Loops are returned ordered by the page (row,
    column) of their topmost-leftmost pixel, outer before hole; outer loops
    are oriented to positive shoelace area and holes to negative.  Regions
    whose boundary cannot form a valid loop (single pixels, one-pixel-wide
    features that force a pixel to repeat) are dropped with a warning,
    outers first, in raster order.

    Each band of live rows is cropped to its live columns and traced in a
    grid framed by 0-pixels (_framed_bands), as Suzuki & Abe assume, on flat
    indices: every probe and run end lands in the grid.  No 8-connected
    object crosses a blank row, or a column blank across its band, and no
    hole holds one, as it reaches the image edge: cropped bands suffice.
    img is a page or a raw raster left packed (read_bitmap); both give the
    same loops.  Each loop is returned as the integer columns it was
    checked in; no Point2 is built until its points are read (Contour).
    """
    outers, holes = [], []  # (frame corner, stride, flat indices), raster order
    for top, left, fw, bits in _framed_bands(img):
        marks = bytearray(len(bits))
        table = _moore_table(fw)
        s = bits.find(1)  # runs in raster order, over the whole band at once
        while s >= 0:
            e = bits.find(0, s)  # the right frame column ends every run
            if not marks[s] & _VISITED:  # first pixel of a new object
                outers.append((top, left, fw, _moore_trace(
                    bits, marks, table, s, _WEST)))
            if bits[e - fw] and not marks[e - 1] & _EAST_CLOSED:
                # east of the run, below object, on no traced loop: a new hole
                holes.append((top, left, fw, _moore_trace(
                    bits, marks, table, e - fw, _SOUTH)))
            s = bits.find(1, e)

    raw = [(*t, False) for t in outers] + [(*t, True) for t in holes]
    contours: list[tuple[tuple, Contour]] = []
    for seq, (top, left, fw, loop, is_hole) in enumerate(raw):
        xs, ys = [i % fw + left for i in loop], [i // fw + top for i in loop]
        problem = _loop_violation(xs, ys)
        if problem is not None:
            if len(loop) > 1:
                log.warning("dropping %s boundary at %s: %s", "hole"
                            if is_hole else "outer", (xs[0], ys[0]), problem)
            continue
        if (sum(map(mul, xs, ys[1:] + ys[:1]))  # exact shoelace sign
                < sum(map(mul, xs[1:] + xs[:1], ys))) != is_hole:
            xs[1:], ys[1:] = xs[:0:-1], ys[:0:-1]  # keep the head
        # flat indices run in row-major order: the least is topmost-leftmost
        head = min(loop)
        contours.append(((head // fw + top, head % fw + left, is_hole, seq),
                         Contour._from_columns(xs, ys)))

    contours.sort(key=lambda item: item[0])
    return [c for _, c in contours]


# ------------------------------ JSON documents -------------------------------
# The rules both document formats share: canonical bytes out, and on the way
# in, any bad byte, number or shape is a FormatError naming the file.


def _write_json(path: str, payload, check_circular: bool = True) -> None:
    """Write payload as canonical JSON: sorted keys, no spaces, ASCII and a
    trailing newline.  A payload JSON cannot encode (a non-finite number, a
    circular reference, a value of another type) is refused before the file
    is opened.  check_circular=False skips json's cycle check, for a payload
    whose every container the caller built itself."""
    try:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                          allow_nan=False, check_circular=check_circular)
    except ValueError as exc:
        if str(exc).startswith("Circular reference"):
            raise FormatError("document contains a circular reference") from exc
        raise FormatError(f"document contains non-finite numbers: {exc}") from exc
    except TypeError as exc:
        raise FormatError(f"document cannot be encoded as JSON: {exc}") from exc
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text + "\n")


def _reject_constant(value: str):
    raise FormatError(f"non-finite number {value!r} in document")


def _load_json(path: str, what: str, keys):
    """The JSON object in the ASCII file at path, which must hold every key
    of keys, and the maker of field errors that name the file."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            payload = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise FormatError(f"cannot read {what}: {exc}", path=str(path)) from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad JSON, bad ASCII, over-long integers and the
        # non-finite constants; RecursionError, nesting too deep to parse
        raise FormatError(f"not valid JSON: {exc}", path=str(path)) from exc

    def fail(field_name: str, message: str) -> FormatError:
        return FormatError(f"{field_name}: {message}", path=str(path))

    if not isinstance(payload, dict):
        raise fail("document", "expected a JSON object")
    for key in keys:
        if key not in payload:
            raise fail(key, "missing field")
    return payload, fail


def _integer(value, where: str, least: int, fail) -> int:
    """value if it is an integer, not a bool, of at least least."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise fail(where, f"expected an integer >= {least}, got {value!r}")
    return value


# Coordinates are read into floats, which hold every integer up to 2**53.
_EXACT_INT = 2 ** 53


def _pixel_pairs(where: str, points, path) -> list:
    """points as (x, y) pairs of ints, under the reader's rule: a coordinate
    that is not an integral value within +-2**53 is a FormatError.  The loop
    is checked whole, and point by point only to name the first bad one."""
    try:
        xs, ys = zip(*points)
        ix, iy = tuple(map(int, xs)), tuple(map(int, ys))
        if ix == xs and iy == ys and max(map(abs, ix + iy)) <= _EXACT_INT:
            return list(zip(ix, iy))
    except (ValueError, OverflowError, TypeError):  # no points, NaN, inf
        pass
    pairs = []
    for pi, (x, y) in enumerate(points):
        if not (abs(x) <= _EXACT_INT and abs(y) <= _EXACT_INT
                and x % 1 == 0 and y % 1 == 0):
            raise FormatError(f"{where}.points[{pi}]: expected integral "
                              f"coordinates within +-2**53, got {(x, y)!r}",
                              path=str(path))
        pairs.append((int(x), int(y)))
    return pairs


def _exact_ints(xs, ys) -> bool:
    """Whether the columns xs and ys hold only ints within +-2**53 (a bool
    is no int), checked in bulk."""
    return ({*map(type, xs), *map(type, ys)} == {int}
            and max(map(abs, xs + ys)) <= _EXACT_INT)


def _pixel_columns(raw, where: str, fail) -> tuple:
    """The x and y columns of raw, which holds only [x, y] pairs of integers
    within +-2**53: checked in bulk, pair by pair only to word the error."""
    if set(map(type, raw)) == {list} and set(map(len, raw)) == {2}:
        xs, ys = zip(*raw)
        if _exact_ints(xs, ys):
            return xs, ys
    for pi, pair in enumerate(raw):
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(isinstance(v, int) and not isinstance(v, bool)
                           and -_EXACT_INT <= v <= _EXACT_INT
                           for v in pair)):
            raise fail(f"{where}.points[{pi}]",
                       "expected an [x, y] pair of integers within "
                       f"+-2**53, got {pair!r}")
    return tuple(zip(*raw)) or ((), ())


def _loop_pairs(where: str, c: Contour, path) -> list:
    """c's points as (x, y) pairs of ints: straight from its columns while
    its points were never read or assigned, else by _pixel_pairs."""
    cols = c._cols
    if cols is not None and _exact_ints(*cols):
        return list(zip(*cols))
    return _pixel_pairs(where, c.points, path)


def write_contour(path: str, doc: ContourDocument) -> None:
    """Write traced loops as a canonical JSON document.  A coordinate the
    reader would refuse is a FormatError before the file is opened.

    A loop still held as integer columns (trace_boundaries, read_contour)
    is written from them, checked in bulk; any other goes through its
    points.  Every container of the payload is built here, so json's cycle
    check is skipped when the dimensions are ints."""
    _write_json(path, {
        "width": doc.width,
        "height": doc.height,
        "contours": [
            {"closed": True,
             "points": _loop_pairs(f"contours[{ci}]", c, path)}
            for ci, c in enumerate(doc.contours)
        ],
    }, check_circular=not (type(doc.width) is type(doc.height) is int))


def read_contour(path: str) -> ContourDocument:
    """Read and validate a contour document written by ``write_contour``.
    Each loop is checked in bulk and rescanned only to word its error, and
    kept as the checked integer columns: its Point2 list is built when its
    points are first read (Contour)."""
    payload, fail = _load_json(path, "contours", ("width", "height", "contours"))
    width = _integer(payload["width"], "width", 1, fail)
    height = _integer(payload["height"], "height", 1, fail)
    if not isinstance(payload["contours"], list):
        raise fail("contours", "expected a list")

    contours = []
    for ci, entry in enumerate(payload["contours"]):
        where = f"contours[{ci}]"
        if not isinstance(entry, dict):
            raise fail(where, "expected an object")
        if entry.get("closed") is not True:
            raise fail(f"{where}.closed", "must be true")
        pts_raw = entry.get("points")
        if not isinstance(pts_raw, list):
            raise fail(f"{where}.points", "expected a list")
        xs, ys = _pixel_columns(pts_raw, where, fail)
        problem = _loop_violation(xs, ys)
        if problem is not None:
            raise fail(f"{where}.points", problem)
        contours.append(Contour._from_columns(xs, ys))
    return ContourDocument(width, height, contours)
