"""Cubic Bezier primitives: blending functions, evaluation, chord geometry."""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DegenerateChordError, DomainError

_new_tuple = tuple.__new__

# Below this size in every coordinate, two points differ by less than 2e153
# per axis, whose square cannot overflow.
_SQUARE_SAFE = 1e153


class Point2(NamedTuple):
    """A 2D point, in pixel units."""

    x: float
    y: float


class BlendingVector(NamedTuple):
    """The four cubic Bernstein weights at one parameter value."""

    b0: float
    b1: float
    b2: float
    b3: float


class CubicBezier(NamedTuple):
    """A cubic Bezier curve given by its four control points."""

    p0: Point2
    p1: Point2
    p2: Point2
    p3: Point2


def blend(u: float) -> BlendingVector:
    """Bernstein weights ((1-u)^3, 3u(1-u)^2, 3u^2(1-u), u^3) at u in [0, 1].

    Computed in monomial form so the endpoint weights are exactly 0 and 1.
    """
    if not 0.0 <= u <= 1.0:
        raise DomainError(f"blend parameter {u!r} outside [0, 1]")
    v = 1.0 - u
    vv = v * v
    uu = u * u
    # tuple.__new__ skips the NamedTuple's Python-level __new__
    return _new_tuple(BlendingVector, (v * vv, 3.0 * u * vv, 3.0 * uu * v, u * uu))


def evaluate(c: CubicBezier, u: float) -> Point2:
    """Point on the curve at parameter u: control points weighted by blend(u)."""
    b0, b1, b2, b3 = blend(u)
    return Point2(
        b0 * c.p0.x + b1 * c.p1.x + b2 * c.p2.x + b3 * c.p3.x,
        b0 * c.p0.y + b1 * c.p1.y + b2 * c.p2.y + b3 * c.p3.y,
    )


def perpendicular_distance(pj: Point2, pi: Point2, pk: Point2) -> float:
    """Distance from pj to the infinite line through pi and pk.

    Slope form: a vertical chord gives the plain x offset, otherwise
    |y - m*x + m*x_i - y_i| / sqrt(m^2 + 1) with m the chord slope.
    """
    if pi == pk:
        raise DegenerateChordError("chord endpoints coincide")
    mx = pk.x - pi.x
    if mx == 0.0:
        return abs(pj.x - pi.x)
    m = (pk.y - pi.y) / mx
    return abs(pj.y - m * pj.x + m * pi.x - pi.y) / math.sqrt(m * m + 1.0)


def project_parameter(p: Point2, a: Point2, b: Point2) -> float:
    """Normalized scalar projection of p onto the chord a->b (0 at a, 1 at b).

    Deliberately unclamped: a point projecting beyond the chord yields a
    value outside [0, 1] and the caller decides what to do with it.
    """
    dx = b.x - a.x
    dy = b.y - a.y
    d2 = dx * dx + dy * dy
    if d2 == 0.0:
        raise DegenerateChordError("chord endpoints coincide")
    return ((p.x - a.x) * dx + (p.y - a.y) * dy) / d2


def _check_range(pts) -> None:
    """DomainError unless every coordinate of the (x, y) pairs in pts is
    finite and below _SQUARE_SAFE in size: the precondition of the fit and
    of every distance."""
    lim = _SQUARE_SAFE
    for x, y in pts:
        if not (-lim < x < lim and -lim < y < lim):
            raise DomainError(f"coordinate ({x!r}, {y!r}) is not finite or "
                              "not below 1e153 in size")
