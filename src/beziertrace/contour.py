"""Binary raster ingestion and boundary tracing into closed pixel loops.

Input images are 1-bit portable bitmaps (plain ``P1`` or raw ``P4``); traced
loops are exchanged through a small JSON document, see ``write_contour``.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

from .bezier_core import Point2
from .errors import FormatError

log = logging.getLogger(__name__)

# Moore neighborhood in clockwise screen order (y grows downward), E first.
_CW8 = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))
# Tracing marks: a loop visited the pixel; a loop already follows the crack
# between the pixel and its east neighbour.
_VISITED = 1
_EAST_CLOSED = 2
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
class Contour:
    """One closed 8-connected pixel loop.

    Points are stored in traversal order; the loop closes from the last
    point back to the first.  Outer boundaries carry positive shoelace area
    under the stored (x, y) coordinates, holes negative.
    """

    points: list[Point2] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.points)

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

# one packed P4 byte as its eight pixels, most significant bit first
_UNPACK = [bytes((b >> (7 - i)) & 1 for i in range(8)) for b in range(256)]


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


def load_image(path: str, format: str = "auto") -> RasterImage:
    """Read a 1-bit portable bitmap (plain or raw); 1/black is the object."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read image: {exc}", path=str(path)) from exc

    sc = _Scanner(data, str(path))
    magic = data[:2]
    if magic not in (b"P1", b"P4"):
        raise sc.error(f"not a portable bitmap (magic {magic!r})", offset=0)
    kind = "plain" if magic == b"P1" else "raw"
    if format not in ("auto", "plain", "raw"):
        raise FormatError(f"unknown format hint {format!r}", path=str(path))
    if format != "auto" and format != kind:
        raise sc.error(f"expected a {format} bitmap but found {kind}", offset=0)
    sc.pos = 2

    width = sc.read_int("width")
    height = sc.read_int("height")
    if width <= 0 or height <= 0:
        raise sc.error(f"bad dimensions {width}x{height}")

    if kind == "plain":
        total = width * height
        # each pixel takes a byte at least, so a file too short for its
        # dimensions is rejected before the raster is allocated
        if len(data) - sc.pos < total:
            raise sc.error(f"truncated raster: {len(data) - sc.pos} bytes "
                           f"for {width}x{height} pixels", offset=len(data))
        bits = bytearray(total)
        count = 0
        while count < total:
            sc.skip_separators()
            if sc.pos >= len(data):
                raise sc.error(f"truncated raster: {count} of {total} pixels")
            c = data[sc.pos]
            if c == 0x31:
                bits[count] = 1
            elif c != 0x30:
                raise sc.error(f"unexpected raster byte {chr(c)!r}")
            count += 1
            sc.pos += 1
        sc.skip_separators()
        if sc.pos != len(data):
            raise sc.error("trailing data after raster")
    else:
        # exactly one separator byte after the header, then packed rows
        if sc.pos >= len(data) or data[sc.pos] not in _Scanner._WS:
            raise sc.error("expected whitespace before raw raster")
        sc.pos += 1
        stride = (width + 7) // 8
        need = stride * height
        if len(data) - sc.pos < need:
            raise sc.error(
                f"truncated raster: {len(data) - sc.pos} bytes for "
                f"{width}x{height} pixels", offset=len(data))
        if len(data) - sc.pos > need:
            raise sc.error("trailing data after raster", offset=sc.pos + need)
        unpack = _UNPACK.__getitem__
        bits = bytearray().join(
            b"".join(map(unpack, data[row:row + stride]))[:width]
            for row in range(sc.pos, sc.pos + need, stride))
    return RasterImage(width, height, bits)


# ------------------------------ boundary tracing -----------------------------


def _moore_trace(bits, marks, ring, start, back):
    """Follow one boundary loop of the framed grid from the pixel start,
    entered from its background neighbour back; ring holds the flat
    offsets of the Moore neighbours clockwise from east, twice over.

    Each step scans clockwise around the current pixel from its backtrack
    to the next object pixel; the background pixel scanned just before it
    is the new backtrack.  Every pixel the loop visits is flagged visited,
    and every pixel whose east neighbour the scan passes, east-closed.
    """
    marks[start] |= _VISITED
    loop = [start]
    seen = {(start, back)}
    cur = start
    while True:
        k = ring.index(back - cur)
        for step in ring[k:k + 8]:  # the first probe is back, background
            nxt = cur + step
            if bits[nxt]:
                break
            if step == 1:
                marks[cur] |= _EAST_CLOSED
            back = nxt
        else:
            return loop  # an isolated pixel
        # Jacob's criterion: the start state comes round again; any other
        # repeat is a safety net, and validation rejects the loop if broken
        if (nxt, back) in seen:
            return loop
        seen.add((nxt, back))
        loop.append(nxt)
        marks[nxt] |= _VISITED
        cur = nxt


def _loop_violation(points) -> str | None:
    """First closed-loop invariant the pixel list breaks, or None."""
    n = len(points)
    if n < 4:
        return f"loop has {n} points, need at least 4"
    if len(set(points)) != n:
        return "loop revisits a pixel"
    for i in range(n):
        a = points[i]
        b = points[(i + 1) % n]
        if max(abs(a[0] - b[0]), abs(a[1] - b[1])) != 1:
            return f"points {a} and {b} are not 8-neighbors"
    return None


def trace_boundaries(img: RasterImage) -> list[Contour]:
    """Trace every outer and hole boundary of the object pixels.

    One raster scan finds each border at its first pixel (Suzuki & Abe,
    1985) from the marks earlier traces left; Moore-neighbor tracing with
    Jacob's stopping criterion follows it.  The object is 8-connected, the
    background 4-connected.  Loops are returned ordered by the (row, column)
    of their topmost-leftmost pixel; outer loops are oriented to positive
    shoelace area and holes to negative.  Regions whose boundary cannot form
    a valid loop (single pixels, one-pixel-wide features that force a pixel
    to repeat) are dropped with a warning.

    The image is copied into a grid with one background pixel on every
    side, the frame of 0-pixels that Suzuki & Abe assume, and traced on flat
    indices into it.  Every neighbour probe and every run end then lands
    inside the grid, and the frame reads as background wherever the image
    edge would, so no probe or run needs a bounds check.
    """
    w, h = img.width, img.height
    fw = w + 2  # row stride of the framed grid
    bits = bytearray(fw * (h + 2))
    for y in range(h):
        row = (y + 1) * fw + 1
        bits[row:row + w] = img.bits[y * w:y * w + w].translate(_AS_BIT)
    marks = bytearray(len(bits))
    ring = tuple(dx + dy * fw for dx, dy in _CW8) * 2
    outers, holes = [], []  # flat index lists, each kind in raster order
    for row in range(fw, fw * (h + 1), fw):
        end = row + fw
        s = bits.find(1, row, end)
        while s >= 0:
            e = bits.find(0, s, end)  # the right frame column ends every run
            if not marks[s] & _VISITED:  # first pixel of a new object
                outers.append(_moore_trace(bits, marks, ring, s, s - 1))
            if bits[e - fw] and not marks[e - 1] & _EAST_CLOSED:
                # east of the run, below object, on no traced loop: a new hole
                holes.append(_moore_trace(bits, marks, ring, e - fw, e))
            s = bits.find(1, e, end)

    raw = [(loop, False) for loop in outers] + [(loop, True) for loop in holes]
    contours: list[tuple[tuple, Contour]] = []
    for seq, (loop, is_hole) in enumerate(raw):
        pixels = [(i % fw - 1, i // fw - 1) for i in loop]
        problem = _loop_violation(pixels)
        if problem is not None:
            if len(pixels) > 1:
                log.warning("dropping %s boundary at %s: %s",
                            "hole" if is_hole else "outer", pixels[0], problem)
            continue
        contour = Contour([Point2(float(x), float(y)) for x, y in pixels])
        if (contour.signed_area() < 0.0) != is_hole:
            head = contour.points[0]
            contour.points = [head] + contour.points[:0:-1]
        # flat indices run in row-major order: the least is topmost-leftmost
        contours.append(((min(loop), is_hole, seq), contour))

    contours.sort(key=lambda item: item[0])
    return [c for _, c in contours]


# ------------------------------ contour documents ----------------------------


def write_contour(path: str, doc: ContourDocument) -> None:
    """Write traced loops as a canonical JSON document."""
    payload = {
        "width": doc.width,
        "height": doc.height,
        "contours": [
            {"closed": True, "points": [[int(p.x), int(p.y)] for p in c.points]}
            for c in doc.contours
        ],
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text + "\n")


# Coordinates are read into floats, which hold every integer up to 2**53.
_EXACT_INT = 2 ** 53


def read_contour(path: str) -> ContourDocument:
    """Read and validate a contour document written by ``write_contour``."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read contours: {exc}", path=str(path)) from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad JSON, bad ASCII and over-long integers;
        # RecursionError, nesting too deep for the parser
        raise FormatError(f"not valid JSON: {exc}", path=str(path)) from exc

    def fail(field_name: str, message: str) -> FormatError:
        return FormatError(f"{field_name}: {message}", path=str(path))

    if not isinstance(payload, dict):
        raise fail("document", "expected a JSON object")
    for key in ("width", "height", "contours"):
        if key not in payload:
            raise fail(key, "missing field")
    width, height = payload["width"], payload["height"]
    if isinstance(width, bool) or not isinstance(width, int) or width <= 0:
        raise fail("width", f"expected a positive integer, got {width!r}")
    if isinstance(height, bool) or not isinstance(height, int) or height <= 0:
        raise fail("height", f"expected a positive integer, got {height!r}")
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
        pixels = []
        for pi, pair in enumerate(pts_raw):
            if (not isinstance(pair, list) or len(pair) != 2
                    or not all(isinstance(v, int) and not isinstance(v, bool)
                               and -_EXACT_INT <= v <= _EXACT_INT
                               for v in pair)):
                raise fail(f"{where}.points[{pi}]",
                           "expected an [x, y] pair of integers within "
                           f"+-2**53, got {pair!r}")
            pixels.append((pair[0], pair[1]))
        problem = _loop_violation(pixels)
        if problem is not None:
            raise fail(f"{where}.points", problem)
        contours.append(Contour([Point2(float(x), float(y)) for x, y in pixels]))
    return ContourDocument(width, height, contours)
