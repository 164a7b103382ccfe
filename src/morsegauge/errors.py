"""Exception types shared across the package.

Every failure that callers are expected to branch on gets its own class;
generic ValueError/TypeError stay reserved for plain misuse of an API.
"""

from __future__ import annotations

from typing import Any


class MalformedShape(ValueError):
    """Geometry parameters are inconsistent (inverted or non-finite box, a
    two-sided window where an oracle needs a one-sided one)."""


class OutOfUniverse(ValueError):
    """A point or box escapes the domain a function or measure is defined on."""


class NotPiecewise(TypeError):
    """Operation requires a piecewise-constant integrand."""


class PreconditionUncertified(RuntimeError):
    """A hypothesis of a verified statement could not be certified
    numerically, or the measure is not uniform: the verifiers, the gauge
    and the Lusin step certify Lebesgue means and refuse a graded
    density."""


class TubeInfeasible(RuntimeError):
    """Jump-set tube construction cannot meet its measure budget.

    Raised when the declared jump set has positive measure in some shell, or
    when the width search bottoms out below float resolution.
    """


class ToleranceUnreachable(RuntimeError):
    """Adaptive refinement cannot certify the requested error bound."""


class DepthExceeded(RuntimeError):
    """Subdivision hit the depth cap with cells still coarser than the gauge.

    Carries the offending cells and gauge values so callers can report which
    region stalled.
    """

    def __init__(self, message: str, stuck: list[dict[str, Any]] | None = None):
        super().__init__(message)
        self.stuck = stuck or []


class BoundViolated(AssertionError):
    """A certified inequality failed at run time.

    The report attribute holds whatever diagnostic object the verifier had
    built up to the point of failure.
    """

    def __init__(self, message: str, report: Any = None):
        super().__init__(message)
        self.report = report
