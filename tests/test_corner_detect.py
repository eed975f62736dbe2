import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from beziertrace.bezier_core import Point2
from beziertrace.contour import Contour, trace_boundaries
from beziertrace import corner_detect
from beziertrace.corner_detect import (CornerParams, CornerSet, detect_corners,
                                       range_points, segment_boundaries)
from beziertrace.errors import (DegenerateChordError, DomainError,
                               PreconditionError)

from helpers import (circle_image, filled_rect_image, rasterize_polygon,
                     rotate_contour, star_polygon)
from _reference import _line_distance, reference_corners


def _detect_both(contour, params=None):
    params = params or CornerParams()
    got = detect_corners(contour, params)
    want_idx, want_str = reference_corners(
        [(p.x, p.y) for p in contour.points],
        params.support_length, params.corner_threshold, params.suppress_range)
    return got, want_idx, want_str


def _rect_contour():
    img = filled_rect_image(48, 38, 4, 4, 43, 33)  # 40x30 object
    return trace_boundaries(img)[0], [(4, 4), (43, 4), (43, 33), (4, 33)]


def test_params_defaults():
    p = CornerParams()
    assert (p.support_length, p.corner_threshold, p.suppress_range) == (14, 2.6, 14)


def test_params_validation():
    with pytest.raises(DomainError):
        CornerParams(support_length=0)
    with pytest.raises(DomainError):
        CornerParams(corner_threshold=0.0)


@pytest.mark.parametrize("field, value", [("support_length", 3.0),
                                          ("suppress_range", 2.5),
                                          ("support_length", True),
                                          ("suppress_range", False)])
def test_params_reject_counts_that_are_not_ints(field, value):
    # a float support length used to pass and then fail as a slice index;
    # True used to pass as a support of 1 and was echoed as true
    with pytest.raises(DomainError, match=field):
        CornerParams(**{field: value})


def test_rectangle_four_corners():
    contour, verts = _rect_contour()
    got, want_idx, want_str = _detect_both(contour)
    assert got.indices == want_idx
    assert got.strengths == want_str
    assert len(got) == 4
    for idx in got.indices:
        p = contour.points[idx]
        assert min(abs(p.x - vx) + abs(p.y - vy) for vx, vy in verts) <= 2
    # strengths are all positive and beyond the threshold
    assert all(s > 2.6 for s in got.strengths)


def test_circle_has_no_corners():
    loop = trace_boundaries(circle_image(50))[0]
    # max sagitta of a 14-point arc of an r=50 circle stays under the threshold
    sagitta = 50.0 * (1.0 - math.cos(14.0 / 50.0 / 2.0))
    assert sagitta < 2.6
    got, want_idx, _ = _detect_both(loop)
    assert got.indices == want_idx == []


def test_pentagon_five_corners():
    cx, cy, r = 85.0, 85.0, 60.0 / (2.0 * math.sin(math.pi / 5.0))
    verts = [(cx + r * math.cos(a) + 0.31, cy + r * math.sin(a) + 0.17)
             for a in [2 * math.pi * i / 5 - math.pi / 2 for i in range(5)]]
    loop = trace_boundaries(rasterize_polygon(verts, 170, 170))[0]
    got, want_idx, _ = _detect_both(loop)
    assert got.indices == want_idx
    assert len(got) == 5


def test_matches_reference_on_random_polygons():
    rng = random.Random(2024)
    for _ in range(25):
        img = rasterize_polygon(star_polygon(rng), 170, 170)
        loops = trace_boundaries(img)
        assert loops
        loop = loops[0]
        if loop.n <= 28:
            continue
        got, want_idx, want_str = _detect_both(loop)
        assert got.indices == want_idx
        assert got.strengths == want_str
        # survivors are pairwise farther apart than the suppression range
        for a, b in zip(got.indices, got.indices[1:] + got.indices[:1]):
            gap = (b - a) % loop.n
            if got.indices != [a]:
                assert min(gap, loop.n - gap) > 14


@st.composite
def _jagged_loops(draw):
    """A loop of distinct points on an 8x8 integer grid, so that chords and
    distances repeat and equal-strength candidates are common, with corner
    parameters; the suppression range runs from one point to three times
    round the loop."""
    span = draw(st.integers(1, 8))
    n = draw(st.integers(2 * span + 1, 40))
    pts = draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                        min_size=n, max_size=n, unique=True))
    threshold = draw(st.sampled_from((0.3, 0.7, 1.0, 1.5, 2.2)))
    reach = draw(st.sampled_from((1, span, n // 2, n, 3 * n)))
    return (Contour([Point2(float(x), float(y)) for x, y in pts]),
            CornerParams(span, threshold, reach))


@given(_jagged_loops())
def test_matches_reference_on_random_jagged_loops(case):
    got, want_idx, want_str = _detect_both(*case)
    assert got.indices == want_idx
    assert got.strengths == want_str


def test_support_length_one_finds_no_corners():
    # a chord one step long has no point under it, so nothing stands off it,
    # and equal neighbours are no degenerate chord to measure against
    contour, _ = _rect_contour()
    params = CornerParams(support_length=1, corner_threshold=0.01)
    got, want_idx, _ = _detect_both(contour, params)
    assert got.indices == want_idx == []
    doubled = Contour([p for p in contour.points for _ in range(2)])
    assert detect_corners(doubled, params).indices == []


def test_nan_point_is_passed_over_like_the_reference():
    # a NaN distance is never a chord's maximum, wherever it lies under it
    contour, _ = _rect_contour()
    for k in range(contour.n):
        pts = list(contour.points)
        pts[k] = Point2(math.nan, pts[k].y)
        got, want_idx, want_str = _detect_both(Contour(pts))
        assert (got.indices, got.strengths) == (want_idx, want_str), k


def _loop(pts):
    return Contour([Point2(float(x), float(y)) for x, y in pts])


# the run turns back on itself, so point 4 is also point 6: the strip along
# chord 0..2 ends at point 5, and chord 4..6 is the next one measured
_TURN_BACK = _loop([(x, 0) for x in (0, 1, 2, 3, 4, 5, 4, 3, 2, 1)]
                   + [(x, 1) for x in range(8)])
# a whisker tip at point 0, so the last point is also point 1: the
# coincident chord wraps round the loop's end
_WRAPPED = _loop([(x, 0) for x in range(11)] + [(10, y) for y in range(1, 6)]
                 + [(x, 5) for x in range(9, 0, -1)]
                 + [(1, y) for y in range(4, -1, -1)])
# a one-pixel whisker at x = 10 puts (10, 0) at points 10 and 12; the strip
# along chord 0..2 (half-width 1.5) would pass over chord 10..12, but the
# loop is refused before any strip is walked
_IN_STRIP = _loop([(x, 0) for x in range(11)] + [(10, 1)]
                  + [(x, 0) for x in range(10, 21)]
                  + [(x, 5) for x in range(20, -1, -1)])
# every point repeated: chords of one step coincide, but none has a point
# under it
_DOUBLED = _loop([p for x in range(8) for p in ((x, 0), (x, 0))]
                 + [p for x in range(7, -1, -1) for p in ((x, 3), (x, 3))])


@pytest.mark.parametrize("loop, params, raises", [
    (_TURN_BACK, CornerParams(support_length=3), False),
    (_TURN_BACK, CornerParams(support_length=2), True),
    (_WRAPPED, CornerParams(support_length=2), True),
    (_IN_STRIP, CornerParams(support_length=2, corner_threshold=3.0), True),
    (_DOUBLED, CornerParams(support_length=1), False),
])
def test_coincident_chord_endpoints_raise(monkeypatch, loop, params, raises):
    if raises:
        strips = _watch_strips(monkeypatch)
        with pytest.raises(DegenerateChordError):
            detect_corners(loop, params)
        assert strips == []
    else:
        assert detect_corners(loop, params).indices == []


def test_rotation_equivariance_on_polygon():
    rng = random.Random(77)
    loop = trace_boundaries(rasterize_polygon(star_polygon(rng), 170, 170))[0]
    base = detect_corners(loop, CornerParams())
    base_pts = {tuple(loop.points[i]) for i in base.indices}
    for shift in (1, 17, loop.n // 2, loop.n - 3):
        rot = rotate_contour(loop, shift)
        got = detect_corners(rot, CornerParams())
        assert {tuple(rot.points[i]) for i in got.indices} == base_pts


def test_rotation_equivariance():
    rng = random.Random(17)
    contour, _ = _rect_contour()
    base = detect_corners(contour, CornerParams())
    base_pts = {tuple(contour.points[i]) for i in base.indices}
    for _ in range(5):
        s = rng.randrange(1, contour.n)
        rot = rotate_contour(contour, s)
        got = detect_corners(rot, CornerParams())
        assert {tuple(rot.points[i]) for i in got.indices} == base_pts


def test_reflection_equivariance():
    contour, _ = _rect_contour()
    base = detect_corners(contour, CornerParams())
    base_pts = {(p.x, p.y) for p in (contour.points[i] for i in base.indices)}
    mirrored = Contour([Point2(-p.x, p.y) for p in contour.points])
    got = detect_corners(mirrored, CornerParams())
    got_pts = {(-p.x, p.y) for p in (mirrored.points[i] for i in got.indices)}
    assert got_pts == base_pts


def test_threshold_monotonicity():
    rng = random.Random(31)
    for _ in range(10):
        loop = trace_boundaries(rasterize_polygon(star_polygon(rng), 170, 170))[0]
        if loop.n <= 28:
            continue
        previous = None
        for d in (2.6, 4.0, 6.0, 9.0):
            got = set(detect_corners(loop, CornerParams(corner_threshold=d)).indices)
            if previous is not None:
                assert got.issubset(previous)
            previous = got


def test_huge_threshold_kills_all_corners():
    contour, _ = _rect_contour()
    got = detect_corners(contour, CornerParams(corner_threshold=1e9))
    assert got.indices == []


def test_straight_run_interior_corner_free():
    contour, verts = _rect_contour()
    got = detect_corners(contour, CornerParams())
    vert_idx = {i for i, p in enumerate(contour.points) if (p.x, p.y) in verts}
    assert set(got.indices) == vert_idx


def test_short_loop_rejected():
    loop = Contour([Point2(x, y) for x, y in
                    [(0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (0, 1)]])
    with pytest.raises(PreconditionError):
        detect_corners(loop, CornerParams())


def _dummy_contour(n):
    return Contour([Point2(float(i), 0.0) for i in range(n)])


def test_segment_boundaries_three_corners():
    ranges = segment_boundaries(_dummy_contour(120), CornerSet([10, 50, 90], [5, 5, 5]))
    assert ranges == [(10, 50), (50, 90), (90, 10)]


def test_segment_boundaries_no_corners():
    ranges = segment_boundaries(_dummy_contour(200), CornerSet([], []))
    assert ranges == [(0, 100), (100, 0)]


def test_segment_boundaries_one_corner():
    ranges = segment_boundaries(_dummy_contour(100), CornerSet([7], [9.0]))
    assert ranges == [(7, 57), (57, 7)]


def test_range_points_wraps():
    c = _dummy_contour(10)
    pts = range_points(c, 8, 2)
    assert [p.x for p in pts] == [8.0, 9.0, 0.0, 1.0, 2.0]


# ------------------ strips: skipped chords, bit for bit ----------------------

def _watch_strips(monkeypatch):
    """A list that collects (i, k, e) for every strip the corner pass walks
    along chord i..k, e being the strip's end: it skips chords i + 1 up to
    e - k + i, that is max(0, e - k) of them."""
    strips = []
    walk = corner_detect._strip_end

    def watched(xs, ys, i, k, w):
        strips.append((i, k, walk(xs, ys, i, k, w)))
        return strips[-1][2]

    monkeypatch.setattr(corner_detect, "_strip_end", watched)
    return strips


def _pen_path(moves):
    """Points of a pen path: each move is (turn in degrees, length, bend in
    degrees per pixel).  It is sampled every quarter pixel and rounded, so
    consecutive points are 8-neighbours.  The path is closed round its
    bounding box, below and left of it, so that it does not run back over
    itself."""
    x = y = heading = 0.0
    out = [(0, 0)]

    def run(length, bend):
        nonlocal x, y, heading
        for _ in range(int(length * 4)):
            heading += bend / 4
            x += 0.25 * math.cos(math.radians(heading))
            y += 0.25 * math.sin(math.radians(heading))
            q = (round(x), round(y))
            if q != out[-1]:
                out.append(q)

    def goto(tx, ty):
        nonlocal heading
        heading = math.degrees(math.atan2(ty - y, tx - x))
        run(math.hypot(tx - x, ty - y), 0.0)

    for turn, length, bend in moves:
        heading += turn
        run(length, bend)
    left = min(px for px, _ in out) - 10
    below = min(py for _, py in out) - 10
    for corner in ((x, below), (left, below), (left, 0), (0, 0)):
        goto(*corner)
    while len(out) > 1 and out[-1] == out[0]:
        out.pop()
    return out


def _feature(kind, size):
    """Moves that break a strip: a spike out and back on two lines, a
    one-pixel-wide whisker that retraces its pixels, a hook that turns back
    one pixel over and runs against the old heading, or a back-step of one
    pixel."""
    if kind == "spike":
        return [(90, size, 0), (-120, 1, 0), (-120, size, 0), (150, 0, 0)]
    if kind == "whisker":
        return [(90, size, 0), (180, size, 0), (90, 0, 0)]
    if kind == "hook":
        return [(90, 1, 0), (90, size, 0)]
    return [(135, 1.5, 0), (-135, 0, 0)]  # back-step


@st.composite
def _strip_loops(draw):
    """Long digital lines and arcs, where strips skip most chords, broken by
    features that must stop them; shifted so the largest coordinate sits
    just below or at the size limit, or with one coordinate off the
    integers or NaN, which turns strips off.  A whisker shorter than half
    the support length puts no chord's two endpoints on one pixel."""
    span = draw(st.integers(2, 16))
    moves = []
    for _ in range(draw(st.integers(1, 4))):
        turn = draw(st.sampled_from((0, 0, 90, -90, 45, 15, -30, 60)))
        length = draw(st.integers(8, 60))
        bend = draw(st.sampled_from((0, 0, 0, 0.5, 2, -1, -4)))
        moves.append((turn, length, bend))
        kind = draw(st.sampled_from(("none", "none", "spike", "whisker",
                                     "hook", "back-step")))
        if kind == "whisker" and span > 2:
            moves += _feature(kind, draw(st.integers(1, (span - 1) // 2)))
        elif kind not in ("none", "whisker"):
            moves += _feature(kind, draw(st.integers(1, 30)))
    pts = _pen_path(moves)
    if len(pts) <= 2 * span:
        pts += [(x, y + 200) for x, y in reversed(pts)]
    limit = corner_detect._STRIP_LIMIT
    where = draw(st.sampled_from(("origin", "origin", "below", "-below",
                                  "at", "-at", "half", "nan")))
    if where in ("below", "at"):
        shift = limit - (where == "below") - max(max(p) for p in pts)
        pts = [(x + shift, y + shift) for x, y in pts]
    elif where in ("-below", "-at"):
        shift = (where == "-below") - limit - min(min(p) for p in pts)
        pts = [(x + shift, y + shift) for x, y in pts]
    pts = [Point2(float(x), float(y)) if draw(st.booleans()) else Point2(x, y)
           for x, y in pts]
    if where in ("half", "nan"):
        k = draw(st.integers(0, len(pts) - 1))
        pts[k] = Point2(pts[k].x + 0.5 if where == "half" else math.nan,
                        pts[k].y)
    threshold = draw(st.sampled_from((0.7, 1.5, 2.0, 2.2, 2.6, 4.0, 6.0)))
    return Contour(pts), CornerParams(span, threshold)


@given(_strip_loops())
def test_strips_keep_the_corners_bit_for_bit(case):
    contour, params = case
    pts, span = contour.points, params.support_length
    if any(pts[i] == pts[(i + span) % len(pts)] for i in range(len(pts))):
        with pytest.raises(DegenerateChordError):
            detect_corners(contour, params)
        return
    got, want_idx, want_str = _detect_both(contour, params)
    assert (got.indices, got.strengths) == (want_idx, want_str)


def _hairpin():
    """A 30-pixel run that turns back one row up, closed round a far
    rectangle: past the turn the projection along the run's chords falls,
    though no point stands more than 1 off them."""
    pts = ([(x, 0) for x in range(30)] + [(x, 1) for x in range(29, -1, -1)]
           + [(-1, y) for y in range(2, 8)] + [(x, 8) for x in range(40)]
           + [(40, y) for y in range(7, -8, -1)]
           + [(x, -8) for x in range(39, -2, -1)]
           + [(-1, y) for y in range(-7, 0)])
    return Contour([Point2(float(x), float(y)) for x, y in pts])


@pytest.mark.parametrize("span, threshold", [(10, 2.0), (14, 2.2)])
def test_strip_stops_where_the_projection_falls(span, threshold):
    # chords across the turn stand more than the threshold off its tip, yet
    # the points round it stay within half the threshold of the line of a
    # chord along the run (14) or into the turn (10): only the projection,
    # which falls past the turn, stops those strips
    contour = _hairpin()
    got, want_idx, want_str = _detect_both(contour,
                                           CornerParams(span, threshold))
    assert (got.indices, got.strengths) == (want_idx, want_str)


def _skew_chord_line(x0, y0):
    """Points of a line of slope 1/7 with one chord, 20..24, parallel to it
    one offset unit to one side and its middle point one unit to the other;
    the loop returns along a far parallel line."""
    delta = [0] * 41
    delta[20] = delta[24] = 1
    delta[22] = -1
    pts = [(7 * t + delta[t], t) for t in range(41)]
    pts += [(7 * t, t + 60) for t in range(40, -1, -1)]
    return [(x + x0, y + y0) for x, y in pts]


def test_strip_pad_covers_the_slope_forms_rounding_at_large_coordinates():
    # Chord 20..24 stands exactly twice the offset unit h = 1/sqrt(50) off
    # point 22, and the strip along chord 0..4 holds every point within h.
    # Near 2**24 the slope form rounds that distance up by about 1.6e-9 px,
    # so a threshold just below the rounded value makes the chord a corner,
    # while threshold / 2 less a pad relative to the threshold alone would
    # still be above h and skip it.
    exact = 2 / math.sqrt(50) * (1 + 2 ** -30)  # 2h, and a little more
    for q in range(50):
        pts = _skew_chord_line(2 ** 24 - 1000 - 37 * q, 2 ** 24 - 500 - 11 * q)
        d = _line_distance(pts[22], pts[20], pts[24])
        if d > exact:
            break
    else:
        pytest.fail("no shift rounds the skew chord's distance up")
    params = CornerParams(4, (d + exact) / 2)
    contour = Contour([Point2(float(x), float(y)) for x, y in pts])
    got, want_idx, want_str = _detect_both(contour, params)
    assert 22 in want_idx
    assert (got.indices, got.strengths) == (want_idx, want_str)


def test_strips_measure_few_chords_of_a_large_circle(monkeypatch):
    # no timing budget: a count of the chords the pass measures
    loop = trace_boundaries(circle_image(800))[0]
    strips = _watch_strips(monkeypatch)
    assert detect_corners(loop).indices == []
    measured = loop.n - sum(max(0, e - k) for _, k, e in strips)
    assert measured <= 0.10 * loop.n, (measured, loop.n)
