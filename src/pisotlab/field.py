"""Exact arithmetic in Z[theta] for a certified Pisot number theta.

Elements are coordinate vectors over the power basis 1, theta, ...,
theta^(d-1); multiplication reduces via the companion relation
theta^d = -(a_{d-1} theta^{d-1} + ... + a_0).  Because certified geometry
forces irreducibility (a proper monic integer factor would need all of its
roots strictly inside the unit circle, impossible with a nonzero constant
term), coordinates are unique and an element is rational exactly when its
higher coordinates vanish.

The only approximate step anywhere is `eval_interval`, which returns a
rational enclosure computed from a bisection-refined enclosure of theta by
Horner's rule on integer mantissas, every product rounded outward;
`nearest_integer` wraps it in an adaptive precision loop whose answer is
certified, never guessed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .certify import PisotCertificate, certify_pisot, refine_root
from .errors import (
    ExactHalfInteger,
    InvalidParameters,
    NotPisot,
    PrecisionExhausted,
)
from .intervals import RatInterval
from .poly import IntPolynomial

Coord = Union[int, Fraction]

# Certified rounding starts START_BITS above an element's coordinate size and
# doubles the theta precision until the answer is certified or CAP_BITS is
# passed.  Neither changes an answer, only how long it takes or whether it
# is refused.
START_BITS = 64
CAP_BITS = 1 << 20


def _norm_coord(c) -> Coord:
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    raise InvalidParameters(f"coordinate must be int or Fraction, got {c!r}")


@dataclass(frozen=True)
class FieldElement:
    """A vector of power-basis coordinates; context (the field) is supplied
    by the NumberField that operates on it."""

    coords: tuple[Coord, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(_norm_coord(c) for c in self.coords))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    @property
    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    @property
    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise InvalidParameters("element is not rational")
        return Fraction(self.coords[0]) if self.coords else Fraction(0)

    def __add__(self, other: "FieldElement") -> "FieldElement":
        if len(self.coords) != len(other.coords):
            raise InvalidParameters("coordinate length mismatch")
        return FieldElement(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        if len(self.coords) != len(other.coords):
            raise InvalidParameters("coordinate length mismatch")
        return FieldElement(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "FieldElement":
        return FieldElement(tuple(-c for c in self.coords))

    def scale(self, c: Coord) -> "FieldElement":
        return FieldElement(tuple(c * x for x in self.coords))

    def shift_constant(self, z: Coord) -> "FieldElement":
        """self + z (z rational, added to the constant coordinate)."""
        if not self.coords:
            raise InvalidParameters("empty coordinate vector")
        return FieldElement((self.coords[0] + z,) + self.coords[1:])


class NumberField:
    """Q(theta) for the dominant root theta of a certified polynomial."""

    def __init__(self, min_poly: IntPolynomial, certificate: PisotCertificate):
        if not certificate.geometry_ok:
            raise NotPisot(
                f"{min_poly} failed certification: {certificate.failure_reason}",
                certificate,
            )
        self.min_poly = min_poly
        self.degree = min_poly.degree
        self.certificate = certificate
        self._theta_iv = certificate.dominant_root
        self._powers = [self.element((0,) * i + (1,)) for i in range(self.degree)]
        # theta^(d+j) for j = 0..d-2, enough to reduce any product of two elements
        self._reduction_rows = [
            self.theta_power(self.degree + j).coords for j in range(self.degree - 1)
        ]

    @classmethod
    def from_poly(cls, p: IntPolynomial | Sequence[int]) -> "NumberField":
        if not isinstance(p, IntPolynomial):
            p = IntPolynomial.from_coeffs(p)
        return cls(p, certify_pisot(p))

    def __repr__(self) -> str:
        return f"NumberField({self.min_poly})"

    # -- construction of elements -------------------------------------------

    def element(self, coords: Iterable[Coord]) -> FieldElement:
        coords = tuple(coords)
        if len(coords) > self.degree:
            raise InvalidParameters(
                f"{len(coords)} coordinates in a degree-{self.degree} field"
            )
        coords = coords + (0,) * (self.degree - len(coords))
        return FieldElement(coords)

    def zero(self) -> FieldElement:
        return self.element(())

    def one(self) -> FieldElement:
        return self.element((1,))

    def constant(self, c: Coord) -> FieldElement:
        return self.element((c,))

    def theta(self) -> FieldElement:
        if self.degree == 1:
            # theta is the integer -a_0 in a degree-1 field
            return self.constant(-self.min_poly.coeff(0))
        return self.element((0, 1))

    # -- ring operations ------------------------------------------------------

    def element_mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        d = self.degree
        ca, cb = a.coords, b.coords
        if len(ca) != d or len(cb) != d:
            raise InvalidParameters("elements do not belong to this field")
        conv = [0] * (2 * d - 1)
        for i, x in enumerate(ca):
            if x == 0:
                continue
            for j, y in enumerate(cb):
                conv[i + j] += x * y
        out = conv[:d] + [0] * (d - len(conv))
        for k in range(d, 2 * d - 1):
            c = conv[k]
            if c == 0:
                continue
            row = self._reduction_rows[k - d]
            for i in range(d):
                out[i] += c * row[i]
        return FieldElement(tuple(out))

    mul = element_mul

    def theta_power(self, n: int) -> FieldElement:
        """Coordinates of theta**n (n >= 0), read from the list theta^0,
        theta^1, ..., which grows by one multiplication by theta per missing
        power."""
        if n < 0:
            raise InvalidParameters("negative power")
        powers = self._powers
        while len(powers) <= n:
            # shift up, fold the top coordinate back in by the minimal
            # polynomial (for d = 1 nothing is shifted)
            prev = powers[-1].coords
            over, shifted = prev[-1], (0,) + prev[:-1]
            folded = (s - over * a for s, a in zip(shifted, self.min_poly.coeffs))
            powers.append(FieldElement(tuple(folded)))
        return powers[n]

    # -- numeric enclosures ---------------------------------------------------

    def theta_enclosure(self, bits: int) -> RatInterval:
        """Enclosure of theta with width at most 2**-bits (monotone: repeated
        calls only ever shrink the cached interval)."""
        if self._theta_iv.width > Fraction(1, 1 << bits):
            self._theta_iv = refine_root(self.min_poly, self._theta_iv, bits)
        return self._theta_iv

    def eval_interval(self, a: FieldElement, precision_bits: int) -> RatInterval:
        """Rational enclosure of the real value of ``a`` computed from a theta
        enclosure of width <= 2**-precision_bits.

        Horner runs on integer mantissas at scale 2**-s over the coordinates
        cleared to one common denominator; every product is rounded outward,
        so the result contains the exact interval Horner enclosure.
        """
        if len(a.coords) != self.degree:
            raise InvalidParameters("element does not belong to this field")
        if a.is_rational:
            return RatInterval.point(Fraction(a.coords[0]) if a.coords else Fraction(0))
        tv = self.theta_enclosure(precision_bits)
        # s follows the cached enclosure, which may be far tighter than
        # asked for; at this s its dyadic endpoints lie on the grid exactly
        w = tv.width
        s = max(precision_bits, w.denominator.bit_length() - w.numerator.bit_length()) + 8
        t_lo = (tv.lo.numerator << s) // tv.lo.denominator
        t_hi = -((-tv.hi.numerator << s) // tv.hi.denominator)
        den = math.lcm(*(c.denominator for c in a.coords))
        nums = [c.numerator * (den // c.denominator) for c in a.coords]
        lo = hi = nums[-1] << s
        for c in reversed(nums[:-1]):
            # theta > 1, so t_lo > 0 and each bound's sign picks its endpoint
            lo = ((lo * (t_lo if lo >= 0 else t_hi)) >> s) + (c << s)
            hi = -((-hi * (t_hi if hi >= 0 else t_lo)) >> s) + (c << s)
        return RatInterval(Fraction(lo, den << s), Fraction(hi, den << s))

    # -- certified rounding ---------------------------------------------------

    def round_with_enclosure(self, a: FieldElement) -> tuple[int, RatInterval, int]:
        """Nearest integer to the value of ``a`` plus the enclosure that
        certified it and the theta precision used.

        Rational elements round exactly (0 precision bits); an exact
        half-integer raises ExactHalfInteger since no nearest integer exists.
        Irrational elements use adaptive precision: the enclosure must
        exclude both neighbouring half-integers before the answer is
        accepted.
        """
        if a.is_rational:
            v = a.rational_value
            if v.denominator == 1:
                return int(v), RatInterval.point(v), 0
            if (2 * v).denominator == 1:
                raise ExactHalfInteger(
                    f"value {v} is exactly between {math.floor(v)} and {math.ceil(v)}",
                    value=v,
                )
            z = math.floor(v + Fraction(1, 2))
            return z, RatInterval.point(v), 0
        bits = self._initial_bits(a)
        while bits <= CAP_BITS:
            e = self.eval_interval(a, bits)
            # z = floor(mid + 1/2), decided in integers on the endpoints
            (ln, ld), (hn, hd) = e.lo.as_integer_ratio(), e.hi.as_integer_ratio()
            z = (ln * hd + hn * ld + ld * hd) // (2 * ld * hd)
            if 2 * ln > (2 * z - 1) * ld and 2 * hn < (2 * z + 1) * hd:
                return z, e, bits
            bits *= 2
        raise PrecisionExhausted(
            f"rounding undecided at {CAP_BITS} bits "
            "(value may be pathologically close to a half-integer)",
            bits=CAP_BITS,
        )

    def nearest_integer(self, a: FieldElement) -> int:
        return self.round_with_enclosure(a)[0]

    def _initial_bits(self, a: FieldElement) -> int:
        # condition the first pass on coordinate size so the loop usually
        # succeeds immediately
        size = max(
            (abs(c.numerator if isinstance(c, Fraction) else c) for c in a.coords),
            default=1,
        )
        return START_BITS + max(0, size.bit_length())
