"""Certification of Pisot root geometry.

A monic integer polynomial is accepted when exactly one real root lies
strictly above 1 and every remaining complex root lies strictly inside the
unit circle.  Root isolation is delegated to sympy's collins-krandick style
interval machinery; every acceptance decision is then made on exact rational
endpoint data, so a verdict never rests on floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import (
    InvalidParameters,
    NotMonic,
    PrecisionExhausted,
    ZeroConstantTerm,
)
from .intervals import RatInterval, sqrt_lower, sqrt_upper
from .poly import IntPolynomial
from .primes import primes_between


class Verdict(Enum):
    PISOT = "pisot"
    NOT_PISOT = "not_pisot"
    # root geometry certified, but no small-prime irreducibility witness
    UNVERIFIED_IRREDUCIBILITY = "unverified_irreducibility"


@dataclass(frozen=True)
class PisotCertificate:
    """The defaults are those of a refutation, which records only what it
    found."""

    verdict: Verdict = Verdict.NOT_PISOT
    dominant_root: RatInterval | None = None
    conjugate_moduli: tuple[RatInterval, ...] = ()
    conjugate_bound: Fraction | None = None
    irreducibility_witness: int | None = None
    unit_root: int | None = None
    failure_reason: str | None = None

    @property
    def geometry_ok(self) -> bool:
        return self.verdict in (Verdict.PISOT, Verdict.UNVERIFIED_IRREDUCIBILITY)


def sign_at(p: IntPolynomial, q: Fraction | int) -> int:
    """Exact sign of p(q) for rational q, computed in integers."""
    q = Fraction(q)
    return _sign_scaled(p, q.numerator, q.denominator)


def _sign_scaled(p: IntPolynomial, num: int, den: int) -> int:
    # sign of p(num/den) * den**deg for den > 0
    if p.is_zero:
        return 0
    acc = p.coeffs[-1]
    dpow = 1
    for c in reversed(p.coeffs[:-1]):
        dpow *= den
        acc = acc * num + c * dpow
    return (acc > 0) - (acc < 0)


def refine_root(p: IntPolynomial, iv: RatInterval, bits: int) -> RatInterval:
    """Shrink an isolating interval of a simple real root until its width is
    at most 2**-bits.

    Bisection uses midpoints snapped to a dyadic grid, so deep refinements
    keep power-of-two denominators.  The interval must bracket a sign change
    (or be a point already).  Endpoints are kept as unreduced integer pairs
    n/d, so no step reduces a fraction.
    """
    if iv.is_point:
        return iv
    lo, hi = iv.lo, iv.hi
    s_lo = sign_at(p, lo)
    if s_lo == 0:
        return RatInterval.point(lo)
    if sign_at(p, hi) == 0:
        return RatInterval.point(hi)
    if s_lo == sign_at(p, hi):
        raise InvalidParameters("interval endpoints do not bracket a sign change")
    ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    while True:
        den = ld * hd
        num = hn * ld - ln * hd  # the width is num / den
        if num << bits <= den:
            return RatInterval(Fraction(ln, ld), Fraction(hn, hd))
        # a grid 2**-e at least 64 times finer than the width, so the
        # snapped midpoint stays well inside
        e = ((den << 6) // num).bit_length() + 1
        # midpoint * 2**e rounded half to even
        m, r = divmod((ln * hd + hn * ld) << (e - 1), den)
        if 2 * r > den or (2 * r == den and m % 2):
            m += 1
        s_m = _sign_scaled(p, m, 1 << e)
        if s_m == 0:
            return RatInterval.point(Fraction(m, 1 << e))
        if s_m == s_lo:
            ln, ld = m, 1 << e
        else:
            hn, hd = m, 1 << e


# Isolation widths 1/eps_den to try: sympy's default pass first, then
# 2**-6, 2**-12, ..., 2**-3072.  Finite because circle-touching roots are
# excluded before the ladder runs.
_EPS_LADDER = (None,) + tuple(1 << (6 << i) for i in range(10))


def certify_pisot(p: IntPolynomial) -> PisotCertificate:
    """Certify the root geometry of a monic integer polynomial and look for a
    small-prime irreducibility witness.

    Returns a certificate whose verdict is PISOT (geometry certified and the
    polynomial is irreducible modulo the recorded witness prime),
    UNVERIFIED_IRREDUCIBILITY (geometry certified, no witness among primes
    below 100 -- reducibility has not been ruled out), or NOT_PISOT.
    """
    if p.degree < 1:
        raise InvalidParameters("certification needs degree >= 1")
    if not p.is_monic:
        raise NotMonic(f"polynomial must be monic, leading term {p.leading}")
    if p.coeff(0) == 0:
        raise ZeroConstantTerm("constant term is zero; 0 would be a root")

    for r in (1, -1):
        if p(r) == 0:
            return PisotCertificate(
                unit_root=r, failure_reason=f"root at {r} lies on the unit circle"
            )

    # roots exactly on the unit circle can never be separated from it by
    # rectangle shrinking, so rule them out exactly first
    if _has_unit_circle_root(p):
        return PisotCertificate(failure_reason="a conjugate lies exactly on the unit circle")

    for eps_den in _EPS_LADDER:
        result = _classify_roots(p, eps_den)
        if result is not None:
            return _finish(p, *result)
    raise PrecisionExhausted(
        "root classification undecided at the finest isolation width",
        bits=4096,
    )


def _sympy_poly(p: IntPolynomial):
    import sympy

    return sympy.Poly(list(reversed(p.coeffs)), sympy.Symbol("x"))


def _classify_roots(p: IntPolynomial, eps_den: int | None):
    """One isolation pass.  Returns (dominant, moduli, reason) on a decided
    geometry, None when some root's position relative to the unit circle is
    still ambiguous at this isolation width and no refutation was found."""
    import sympy

    eps = sympy.Rational(1, eps_den) if eps_den else None
    real_entries, complex_entries = _sympy_poly(p).intervals(
        all=True, eps=eps, sqf=False
    )

    dominants: list[tuple[RatInterval, int]] = []
    moduli: list[RatInterval] = []
    refuted: str | None = None
    undecided = False
    for (u, v), mult in real_entries:
        lo, hi = _to_fraction(u), _to_fraction(v)
        if lo == hi:
            # exact rational root (an integer, since p is monic and
            # p(+-1) != 0, so |root| is 0-free and never 1)
            r = lo
            if r > 1:
                dominants.append((RatInterval.point(r), mult))
            elif abs(r) < 1:
                moduli.extend([RatInterval.point(abs(r))] * mult)
            else:
                refuted = f"real root at {r} outside the open unit disk"
        elif lo >= 1:
            dominants.append((RatInterval(lo, hi), mult))
        elif -1 < lo and hi < 1:
            moduli.extend([RatInterval(lo, hi).abs_()] * mult)
        elif hi <= -1:
            refuted = f"real root below -1 in [{lo}, {hi}]"
        else:
            # straddles or touches a circle point: shrink for a strict bound
            undecided = True
    for (u, v), mult in complex_entries:
        ru, iu = _corner(u)
        rv, iv_ = _corner(v)
        m2_hi = max(ru * ru, rv * rv) + max(iu * iu, iv_ * iv_)
        re_min2 = Fraction(0) if ru <= 0 <= rv else min(ru * ru, rv * rv)
        im_min2 = Fraction(0) if iu <= 0 <= iv_ else min(iu * iu, iv_ * iv_)
        m2_lo = re_min2 + im_min2
        if m2_hi < 1:
            enclosure = RatInterval(sqrt_lower(m2_lo), _sqrt_upper_below_1(m2_hi))
            moduli.extend([enclosure] * mult)
        elif m2_lo > 1:
            refuted = "complex root outside the closed unit disk"
        else:
            undecided = True

    if refuted is not None:
        return None, moduli, refuted
    if len(dominants) > 1 or (dominants and dominants[0][1] > 1):
        return None, moduli, "more than one root above 1 (with multiplicity)"
    if undecided:
        return None
    if not dominants:
        return None, moduli, "no real root above 1"
    return dominants[0][0], moduli, None


def _finish(p: IntPolynomial, dominant, moduli, reason) -> PisotCertificate:
    if reason is not None:
        return PisotCertificate(
            dominant_root=dominant, conjugate_moduli=tuple(moduli), failure_reason=reason
        )
    bound = max((m.hi for m in moduli), default=Fraction(0))
    witness = _irreducibility_witness(p)
    return PisotCertificate(
        verdict=Verdict.PISOT if witness else Verdict.UNVERIFIED_IRREDUCIBILITY,
        dominant_root=dominant,
        conjugate_moduli=tuple(moduli),
        conjugate_bound=bound,
        irreducibility_witness=witness,
    )


def _sqrt_upper_below_1(m2: Fraction) -> Fraction:
    """Upper bound for sqrt(m2) that stays below 1 whenever m2 < 1."""
    bits = 24
    while True:
        u = sqrt_upper(m2, bits)
        if u < 1 or m2 >= 1:
            return u
        bits *= 2


def _has_unit_circle_root(p: IntPolynomial) -> bool:
    """Exact test for roots of modulus exactly 1 (assumes p(0), p(+-1) != 0).

    Such a root z satisfies conj(z) = 1/z, so with real coefficients both p
    and its reversal vanish at z; their gcd g collects every candidate.  The
    root set of g is inversion-closed, which forces g to be an even-degree
    coefficient palindrome here, so g(z) = z^k G(z + 1/z) for an integer G,
    and p has a unit-circle root exactly when G has a real root in (-2, 2).
    """
    g_sym = _sympy_poly(p).gcd(_sympy_poly(p.reverse()))
    if g_sym.degree() < 1:
        return False
    g = IntPolynomial.from_coeffs([int(c) for c in reversed(g_sym.all_coeffs())])
    k2 = g.degree
    if k2 % 2 != 0 or any(g.coeff(i) != g.coeff(k2 - i) for i in range(k2 + 1)):
        # inversion-closure should make g palindromic once p(+-1) != 0
        raise PrecisionExhausted("unexpected non-palindromic circle factor")
    k = k2 // 2
    # T_i(y) represents z^i + z^-i:  T_0 = 2, T_1 = y, T_i = y T_{i-1} - T_{i-2}
    t_prev = IntPolynomial.from_coeffs([2])
    t_cur = IntPolynomial.from_coeffs([0, 1])
    big_g = IntPolynomial.from_coeffs([g.coeff(k)])
    for i in range(1, k + 1):
        big_g = big_g + g.coeff(k + i) * t_cur
        if i < k:
            t_prev, t_cur = t_cur, (
                IntPolynomial.from_coeffs([0, 1]) * t_cur - t_prev
            )
    # g(+-1) != 0 gives G(+-2) != 0, so the closed count is the open one
    return int(_sympy_poly(big_g).count_roots(-2, 2)) > 0


def _irreducibility_witness(p: IntPolynomial) -> int | None:
    import sympy

    x = sympy.Symbol("x")
    coeffs = list(reversed(p.coeffs))
    for q in primes_between(2, 100):
        try:
            if sympy.Poly(coeffs, x, modulus=q).is_irreducible:
                return q
        except sympy.polys.polyerrors.PolynomialError:  # pragma: no cover
            continue
    return None


def _to_fraction(r) -> Fraction:
    if isinstance(r, int):
        return Fraction(r)
    return Fraction(int(r.p), int(r.q))


def _corner(c) -> tuple[Fraction, Fraction]:
    import sympy

    re, im = sympy.sympify(c).as_real_imag()
    return _to_fraction(re), _to_fraction(im)
