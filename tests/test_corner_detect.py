import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from beziertrace.bezier_core import Point2
from beziertrace.contour import Contour, trace_boundaries
from beziertrace.corner_detect import (CornerParams, CornerSet, detect_corners,
                                       range_points, segment_boundaries)
from beziertrace.errors import (DegenerateChordError, DomainError,
                               PreconditionError)

from helpers import (circle_image, filled_rect_image, rasterize_polygon,
                     rotate_contour, star_polygon)
from _reference import reference_corners


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


def test_coincident_chord_endpoints_raise():
    # the run turns back on itself, so point 4 is also point 6
    loop = Contour([Point2(float(x), 0.0) for x in (0, 1, 2, 3, 4, 5, 4, 3,
                                                    2, 1)]
                   + [Point2(float(x), 1.0) for x in range(8)])
    detect_corners(loop, CornerParams(support_length=3))
    with pytest.raises(DegenerateChordError):
        detect_corners(loop, CornerParams(support_length=2))


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
