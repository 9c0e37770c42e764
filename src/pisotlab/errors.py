"""Exception hierarchy shared across the package."""

from __future__ import annotations


class PisotLabError(Exception):
    """Base class for every error raised deliberately by this package."""


class InvalidParameters(PisotLabError, ValueError):
    """Arguments outside a function's documented domain."""


class NonExactDivision(PisotLabError, ArithmeticError):
    """Polynomial division left a nonzero remainder where exactness was required."""


class NotPisot(PisotLabError):
    """A number field was requested for a polynomial whose root geometry
    failed certification."""


class PrecisionExhausted(PisotLabError):
    """An adaptive-precision computation reached its bit cap without reaching
    a certified decision."""


class NoRecurrenceFound(PisotLabError):
    """No linear recurrence within the allowed order fits any suffix of the
    sequence under the detection policy."""


class RecurrenceUnavailable(PisotLabError):
    """A congruence scan needed recurrence extension beyond the exact range
    but no verified recurrence was supplied."""


class VariantInapplicable(PisotLabError):
    """The requested coefficient-prediction rule does not apply to this
    polynomial (wrong degree, or a recognized limit-point family)."""


class ResidualTooLarge(PisotLabError):
    """A log equation's identity failed in Z[theta]: its polynomial is wrong."""


class NoRootInInterval(PisotLabError):
    """The constructed polynomial has no root in the interval the equation
    family promises."""


class CatalogError(PisotLabError):
    """Malformed catalog file or unknown catalog entry."""
