"""Exact arithmetic in Z[theta] for a certified Pisot number theta.

Elements are plain tuples of integer coordinates over the power basis 1,
theta, ..., theta^(d-1); multiplication reduces via the companion relation
theta^d = -(a_{d-1} theta^{d-1} + ... + a_0).  Because certified geometry
forces irreducibility (a proper monic integer factor would need all of its
roots strictly inside the unit circle, impossible with a nonzero constant
term), coordinates are unique and an element is rational exactly when its
higher coordinates vanish.

The only approximate step anywhere is `eval_interval`, which returns a
dyadic enclosure (integer mantissas at scale 2**-s) computed from an
enclosure of theta, refined by certified Newton steps (by bisection where
those fail), by Horner's rule on those mantissas, every product rounded
outward; `round_with_enclosure` wraps it in an adaptive precision loop whose
answer is certified, never guessed, and decided on the mantissas by shifts.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .certify import PisotCertificate, certify_pisot, newton_root, refine_root
from .errors import InvalidParameters, NotPisot, PrecisionExhausted
from .intervals import DyadicInterval, RatInterval
from .poly import IntPolynomial

# Certified rounding starts START_BITS above an element's coordinate size and
# doubles the theta precision until the answer is certified or CAP_BITS is
# passed.  Neither changes an answer, only how long it takes or whether it
# is refused.
START_BITS = 64
CAP_BITS = 1 << 20
# theta is refined this far past the precision it has, once it has too little
THETA_MARGIN_BITS = 128


class NumberField:
    """Q(theta) for the dominant root theta of a certified polynomial."""

    def __init__(self, min_poly: IntPolynomial, certificate: PisotCertificate):
        if not certificate.geometry_ok:
            raise NotPisot(f"{min_poly} failed certification: {certificate.failure_reason}")
        self.min_poly = min_poly
        self.degree = min_poly.degree
        self.certificate = certificate
        self._set_theta(certificate.dominant_root)
        self._powers = [self.one()]

    @classmethod
    def from_poly(cls, p: IntPolynomial | Sequence[int]) -> "NumberField":
        if not isinstance(p, IntPolynomial):
            p = IntPolynomial.from_coeffs(p)
        # a field reads no enclosures: the exact disk count, and sympy's
        # isolation only when it declines
        return cls(p, certify_pisot(p, enclosures=False))

    def __repr__(self) -> str:
        return f"NumberField({self.min_poly})"

    # -- construction of elements -------------------------------------------

    def element(self, coords: Iterable[int]) -> tuple[int, ...]:
        """The element with these power-basis coordinates, zero-padded to the
        degree; the one place coordinates are checked, since every element
        of Z[theta] has integer ones."""
        coords = tuple(coords)
        if len(coords) > self.degree:
            raise InvalidParameters(
                f"{len(coords)} coordinates in a degree-{self.degree} field"
            )
        for c in coords:
            if not isinstance(c, int) or isinstance(c, bool):
                raise InvalidParameters(f"coordinate must be an int, got {c!r}")
        return coords + (0,) * (self.degree - len(coords))

    def one(self) -> tuple[int, ...]:
        return self.element((1,))

    def theta(self) -> tuple[int, ...]:
        if self.degree == 1:
            # theta is the integer -a_0 in a degree-1 field
            return self.element((-self.min_poly.coeff(0),))
        return self.element((0, 1))

    # -- ring operations ------------------------------------------------------

    def element_mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        d = self.degree
        if len(a) != d or len(b) != d:
            raise InvalidParameters("elements do not belong to this field")
        conv = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                conv[i + j] += x * y
        # fold the top coefficient back in by the minimal polynomial, top
        # down, so every fold lands on a power still to be folded or kept
        low = self.min_poly.coeffs[:d]
        for k in range(2 * d - 2, d - 1, -1):
            over = conv[k]
            if over:
                for j, c in enumerate(low, k - d):
                    conv[j] -= over * c
        return tuple(conv[:d])

    mul = element_mul

    def theta_power(self, n: int) -> tuple[int, ...]:
        """Coordinates of theta**n (n >= 0), read from the list theta^0,
        theta^1, ..., which grows by one product with theta per missing
        power."""
        if n < 0:
            raise InvalidParameters("negative power")
        powers = self._powers
        while len(powers) <= n:
            powers.append(self.element_mul(self.theta(), powers[-1]))
        return powers[n]

    # -- numeric enclosures ---------------------------------------------------

    def _set_theta(self, iv: RatInterval) -> None:
        """Keep theta's enclosure with what the calls below read off its
        width p/q, so that no call makes a Fraction of it: ``_theta_bits``,
        the largest b with width <= 2**-b (infinite for a point), and the
        grid (s, t_lo, t_hi) that eval_interval reads, theta's endpoint
        mantissas at scale 2**-s for s = e + 8 and the width exponent e."""
        self._theta_iv = iv
        w = iv.width
        p, q = w.numerator, w.denominator
        e = q.bit_length() - p.bit_length()
        # q/p lies in (2**(e-1), 2**(e+1)), so b is e or e - 1
        if p == 0:
            self._theta_bits = math.inf
        else:
            self._theta_bits = e if p << max(e, 0) <= q << max(-e, 0) else e - 1
        s = max(e, 0) + 8  # the wide starting bracket (e < 0) is never read
        t_lo = (iv.lo.numerator << s) // iv.lo.denominator
        self._grid = (s, t_lo, -((-iv.hi.numerator << s) // iv.hi.denominator))

    def theta_enclosure(self, bits: int) -> RatInterval:
        """Enclosure of theta with width at most 2**-bits (monotone: repeated
        calls only ever shrink the cached interval).  Deciding whether the
        cached one is tight enough is one integer comparison.

        A refinement goes THETA_MARGIN_BITS past the cached precision, or to
        ``bits`` if that is further, by certified Newton steps, so the next
        columns, which ask for a few more bits each, find theta ready;
        bisection to ``bits`` runs only when Newton's sign check fails."""
        if bits > self._theta_bits:
            p, iv = self.min_poly, self._theta_iv
            target = max(bits, self._theta_bits + THETA_MARGIN_BITS)
            tight = newton_root(p, iv, target)
            self._set_theta(refine_root(p, iv, bits) if tight is None else tight)
        return self._theta_iv

    def eval_interval(self, a: tuple[int, ...], precision_bits: int) -> DyadicInterval:
        """Dyadic enclosure of the real value of ``a`` computed from a theta
        enclosure of width <= 2**-precision_bits; a rational element is its
        own point at scale 1.

        Horner runs on integer mantissas at scale 2**-s; every product is
        rounded outward, so the result contains the exact interval Horner
        enclosure.  The scale and theta's endpoint mantissas are set with
        theta's enclosure, at s = e + 8 for its width exponent e >= b >=
        precision_bits, where its dyadic endpoints lie on the grid exactly.
        """
        if len(a) != self.degree:
            raise InvalidParameters("element does not belong to this field")
        if not any(a[1:]):
            return DyadicInterval(a[0], a[0], 0)
        self.theta_enclosure(precision_bits)
        s, t_lo, t_hi = self._grid
        lo = hi = a[-1] << s
        for c in reversed(a[:-1]):
            # theta > 1, so t_lo > 0 and each bound's sign picks its endpoint
            lo = ((lo * (t_lo if lo >= 0 else t_hi)) >> s) + (c << s)
            hi = -((-hi * (t_hi if hi >= 0 else t_lo)) >> s) + (c << s)
        return DyadicInterval(lo, hi, s)

    # -- certified rounding ---------------------------------------------------

    def round_with_enclosure(self, a: tuple[int, ...]) -> tuple[int, DyadicInterval, int]:
        """Nearest integer to the value of ``a`` plus the enclosure that
        certified it and the theta precision used.

        A rational value is an integer, its own nearest, with its point as
        enclosure at 0 bits.  Any other value is decided by one integer test
        on the enclosure's mantissas: it must exclude both neighbouring
        half-integers, and the theta precision doubles until it does.
        """
        if not any(a[1:]):
            return a[0], self.eval_interval(a, 0), 0
        bits = START_BITS + max(abs(c) for c in a).bit_length()
        while bits <= CAP_BITS:
            e = self.eval_interval(a, bits)
            lo, hi, s = e.lo_man, e.hi_man, e.exp
            # z = floor(mid + 1/2), decided on the mantissas at scale 2**-s
            z = (lo + hi + (1 << s)) >> (s + 1)
            if 2 * lo > (2 * z - 1) << s and 2 * hi < (2 * z + 1) << s:
                return z, e, bits
            bits *= 2
        raise PrecisionExhausted(
            f"rounding undecided at {CAP_BITS} bits "
            "(value may be pathologically close to a half-integer)"
        )
