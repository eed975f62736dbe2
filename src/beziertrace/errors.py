"""Exception types shared across the pipeline."""

from __future__ import annotations


class BezierTraceError(Exception):
    """Base class for every error raised by this package."""


class DomainError(BezierTraceError, ValueError):
    """A numeric argument is outside its allowed range."""


def require_int(name: str, value) -> None:
    """A count of points or passes is an int and not a bool: a float would
    fail later as an index or a range bound, and True would pass as 1."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise DomainError(f"{name} must be an int, got {value!r}")


class DegenerateChordError(BezierTraceError, ValueError):
    """Chord endpoints coincide, so no line or projection is defined."""


class DegenerateSegmentError(BezierTraceError, ValueError):
    """A point run cannot be fitted (coincident endpoints, duplicate points)."""


class SingularParameterError(BezierTraceError, ArithmeticError):
    """The closed-form control point solve is singular at this parameter."""


class PreconditionError(BezierTraceError, ValueError):
    """A structural precondition of an operation is violated."""


class ConsistencyError(BezierTraceError, RuntimeError):
    """Cross-checks between related artifacts disagree."""


class FormatError(BezierTraceError, ValueError):
    """A file does not conform to its expected format."""

    def __init__(self, message: str, *, path: str | None = None,
                 offset: int | None = None):
        detail = message
        if offset is not None:
            detail = f"{detail} (byte offset {offset})"
        if path is not None:
            detail = f"{path}: {detail}"
        super().__init__(detail)
        self.path = path
        self.offset = offset
