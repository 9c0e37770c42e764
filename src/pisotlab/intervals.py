"""Exact interval arithmetic.

`RatInterval` has Fraction endpoints; every operation rounds outward only in
the sense of taking min/max over endpoint combinations, so enclosures are
exact: the true value of an expression is always inside the computed
interval.  `DyadicInterval` is the Z[theta] core's enclosure: integer
mantissas over one power-of-two scale, with only the shift, absolute value
and strict ordering that certified rounding and magnitude comparison use.
`NumberField.eval_interval` runs Horner on those mantissas, rounds each
product outward to its grid and returns the mantissas as they are.  Helpers
at the bottom convert to directed-rounded mpmath floats and to outward
decimal strings for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Union

from .errors import InvalidParameters

Rat = Union[int, Fraction]


@dataclass(frozen=True, slots=True)
class RatInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise InvalidParameters(f"inverted interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, x: Rat) -> "RatInterval":
        x = Fraction(x)
        return cls(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def __sub__(self, other: "RatInterval") -> "RatInterval":
        return RatInterval(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "RatInterval":
        return RatInterval(-self.hi, -self.lo)

    def __mul__(self, other: "RatInterval") -> "RatInterval":
        ps = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return RatInterval(min(ps), max(ps))

    def shift(self, c: Rat) -> "RatInterval":
        return RatInterval(self.lo + c, self.hi + c)

    def abs_(self) -> "RatInterval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return RatInterval(Fraction(0), max(-self.lo, self.hi))

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


class DyadicInterval:
    """The interval [lo_man * 2**-exp, hi_man * 2**-exp] for integer
    mantissas and an exponent exp >= 0."""

    __slots__ = ("lo_man", "hi_man", "exp")

    def __init__(self, lo_man: int, hi_man: int, exp: int):
        if lo_man > hi_man:
            raise InvalidParameters(f"inverted interval [{lo_man}, {hi_man}] * 2**-{exp}")
        self.lo_man = lo_man
        self.hi_man = hi_man
        self.exp = exp

    def shift(self, c: int) -> "DyadicInterval":
        c <<= self.exp
        return DyadicInterval(self.lo_man + c, self.hi_man + c, self.exp)

    def abs_(self) -> "DyadicInterval":
        if self.lo_man >= 0:
            return self
        if self.hi_man <= 0:
            return DyadicInterval(-self.hi_man, -self.lo_man, self.exp)
        return DyadicInterval(0, max(-self.lo_man, self.hi_man), self.exp)

    def below(self, other: "DyadicInterval") -> bool:
        """Whether every point of self is strictly below every point of
        other.  The mantissa on the coarser scale is shifted onto the finer
        one, so the test is exact."""
        d = self.exp - other.exp
        if d >= 0:
            return self.hi_man < other.lo_man << d
        return self.hi_man << -d < other.lo_man


def sqrt_upper(q: Fraction, bits: int = 96) -> Fraction:
    """A rational u with u >= sqrt(q), within about 2**-bits of it."""
    if q < 0:
        raise InvalidParameters("sqrt of a negative rational")
    if q == 0:
        return Fraction(0)
    scale = 1 << (2 * bits)
    n = (q.numerator * scale) // q.denominator + 1
    return Fraction(isqrt(n) + 1, 1 << bits)


def sqrt_lower(q: Fraction, bits: int = 96) -> Fraction:
    """A rational u with 0 <= u <= sqrt(q)."""
    if q <= 0:
        return Fraction(0)
    scale = 1 << (2 * bits)
    n = (q.numerator * scale) // q.denominator
    return Fraction(isqrt(n), 1 << bits)


# -- decimal rendering -------------------------------------------------------


def decimal_lower(q: Fraction, digits: int) -> str:
    """Decimal string <= q with the given number of fractional digits."""
    scaled = q * 10**digits
    n = scaled.numerator // scaled.denominator  # floor
    return _decimal_from_scaled(n, digits)


def decimal_upper(q: Fraction, digits: int) -> str:
    """Decimal string >= q with the given number of fractional digits."""
    scaled = q * 10**digits
    n = -((-scaled.numerator) // scaled.denominator)  # ceil
    return _decimal_from_scaled(n, digits)


def _decimal_from_scaled(n: int, digits: int) -> str:
    sign = "-" if n < 0 else ""
    whole, frac = divmod(abs(n), 10**digits)
    return "%s%s.%s" % (sign, int_to_decimal(whole), int_to_decimal(frac).zfill(digits))


def int_to_decimal(n: int) -> str:
    """``str(n)`` at any size.  The interpreter refuses ``str`` past a digit
    cap (4,300 by default, never below 640), so a value of more than 2,000
    bits (about 600 digits) is written as two halves split at a power of ten."""
    if n < 0:
        return "-" + int_to_decimal(-n)
    if n.bit_length() <= 2000:
        return str(n)
    k = n.bit_length() * 3 // 20  # about half its digits, as log10(2) > 0.3
    hi, lo = divmod(n, 10**k)
    return int_to_decimal(hi) + int_to_decimal(lo).zfill(k)


# -- mpmath bridges ----------------------------------------------------------


def fraction_to_mpf(q: Rat, prec: int, direction: str):
    """Directed conversion of a rational to an mpmath mpf.

    direction 'floor' gives a value <= q, 'ceiling' a value >= q.
    """
    from mpmath import libmp, make_mpf

    q = Fraction(q)
    rnd = libmp.round_floor if direction == "floor" else libmp.round_ceiling
    return make_mpf(libmp.from_rational(q.numerator, q.denominator, prec, rnd))


def interval_to_iv(iv: RatInterval, prec: int):
    """Outward conversion of a RatInterval to an mpmath iv.mpf at ``prec``."""
    import mpmath

    old = mpmath.iv.prec
    mpmath.iv.prec = prec
    try:
        lo = fraction_to_mpf(iv.lo, prec, "floor")
        hi = fraction_to_mpf(iv.hi, prec, "ceiling")
        return mpmath.iv.mpf([lo, hi])
    finally:
        mpmath.iv.prec = old


def iv_to_interval(x) -> RatInterval:
    """Exact rational endpoints of an mpmath iv.mpf (finite mpf values are
    dyadic, so this direction never rounds).

    Reads the raw endpoint tuples; going through ``mpf(x.a)`` would re-round
    the endpoints in the *global* real context and can collapse a tight
    interval to a point.
    """
    a, b = x._mpi_
    return RatInterval(_mpf_tuple_to_fraction(a), _mpf_tuple_to_fraction(b))


def _mpf_tuple_to_fraction(t) -> Fraction:
    sign, man, exp, _ = t
    man = int(man)  # may be a gmpy2 mpz
    if man == 0 and exp != 0:
        raise InvalidParameters("non-finite mpf endpoint")
    val = -man if sign else man
    if exp >= 0:
        return Fraction(val << exp)
    return Fraction(val, 1 << (-exp))
