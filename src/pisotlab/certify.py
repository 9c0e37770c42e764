"""Certification of Pisot root geometry.

A monic integer polynomial is accepted when exactly one real root lies
strictly above 1 and every remaining complex root lies strictly inside the
unit circle.  Both routes decide on exact data, never on floating point.
`prove_pisot` counts zeros in a disk by the Schur-Cohn/Marden recursion on
integers and returns what a field needs (verdict, theta bracket, radius).
`certify_pisot` isolates every root with sympy's collins-krandick style
interval machinery and encloses each conjugate modulus; the ``certify``
command prints those enclosures.  A caller that needs no enclosures
(`NumberField.from_poly`, `solve_log_equation`, so the ``limits solve``
record) passes ``enclosures=False``: `certify_pisot` then returns the
proof, and isolates only when it declines.

Certified geometry is the verdict PISOT on both routes: by Kronecker's
argument (see the `field` module docstring) a monic p with p(0) != 0 whose
other roots all lie inside the unit circle is irreducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .errors import InvalidParameters, PrecisionExhausted
from .intervals import RatInterval, sqrt_lower, sqrt_upper
from .poly import DEGREE_LIMIT, IntPolynomial
from .primes import primes_between


class Verdict(Enum):
    # root geometry certified, which forces irreducibility
    PISOT = "pisot"
    NOT_PISOT = "not_pisot"


@dataclass(frozen=True)
class PisotCertificate:
    """The defaults are those of a refutation, which records only what it
    found.

    An isolation acceptance records the conjugate moduli and, as a printed
    datum, the least prime below 100 modulo which p is irreducible (None
    when there is none; the verdict does not depend on it).  A
    `prove_pisot` acceptance has no witness and no moduli:
    ``dominant_root`` is the bracket [1, 1 + max|a_i|] of theta,
    ``conjugate_bound`` the proved radius.
    """

    verdict: Verdict = Verdict.NOT_PISOT
    dominant_root: RatInterval | None = None
    conjugate_moduli: tuple[RatInterval, ...] = ()
    conjugate_bound: Fraction | None = None
    irreducibility_witness: int | None = None
    unit_root: int | None = None
    failure_reason: str | None = None

    @property
    def geometry_ok(self) -> bool:
        return self.verdict is Verdict.PISOT


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
    s_hi = sign_at(p, hi)
    if s_hi == 0:
        return RatInterval.point(hi)
    if s_lo == s_hi:
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


# Newton's start: iv is bisected to this width first, when it is wider
NEWTON_START_BITS = 56


def newton_root(p: IntPolynomial, iv: RatInterval, bits: int) -> RatInterval | None:
    """Enclosure of width 2**-bits of the simple real root that ``iv``
    isolates, by integer Newton steps, or None when it cannot be certified.

    ``iv`` is bisected by `refine_root` to 2**-56 first, when it is wider.
    From its midpoint, Newton steps X <- X - round(P/Q) run at scales 2**B
    that about double up to the final B = bits + 1 + g, on
    P = p(X/2**B) * 2**(B*d) and Q = p'(X/2**B) * 2**(B*(d-1)), both by
    Horner's rule on integers.  The answer [(X - 2**g)/2**B, (X + 2**g)/2**B]
    is returned only when it lies inside ``iv`` and p has strict, opposite
    signs at its ends, so it is certified whatever the steps did.  g = 7
    puts its ends on the grid 2**-(bits + 8) that `eval_interval` reads
    exactly.
    """
    start = iv
    if iv.width > Fraction(1, 1 << NEWTON_START_BITS):
        start = refine_root(p, iv, NEWTON_START_BITS)
    if start.is_point:
        return start
    g = 7
    scales = [bits + 1 + g]
    while scales[-1] > 64:
        # each step about doubles the correct bits; 8 spare bits absorb the
        # rounding and the size of p'' / p'
        scales.append(scales[-1] // 2 + 8)
    coeffs, d = p.coeffs, p.degree
    mid = (start.lo + start.hi) / 2
    b = scales[-1]
    x = (mid.numerator << b) // mid.denominator
    for s in reversed(scales):
        x <<= s - b
        b = s
        pv = qv = 0
        for i in range(d, -1, -1):
            pv = pv * x + (coeffs[i] << (b * (d - i)))
            if i:
                qv = qv * x + (i * coeffs[i] << (b * (d - i)))
        if qv == 0:
            return None
        # x - round(pv / qv), halves rounded up
        x -= (2 * pv + qv) // (2 * qv)
    got = RatInterval(Fraction(x - (1 << g), 1 << b), Fraction(x + (1 << g), 1 << b))
    if iv.lo <= got.lo and got.hi <= iv.hi and sign_at(p, got.lo) * sign_at(p, got.hi) < 0:
        return got
    return None


def _check_input(p: IntPolynomial) -> None:
    if p.degree < 1:
        raise InvalidParameters("certification needs degree >= 1")
    if p.degree > DEGREE_LIMIT:
        raise InvalidParameters("degree is at most %d, not %d" % (DEGREE_LIMIT, p.degree))
    if not p.is_monic:
        raise InvalidParameters(f"polynomial must be monic, leading term {p.leading}")
    if p.coeff(0) == 0:
        raise InvalidParameters("constant term is zero; 0 would be a root")


def _disk_count(coeffs: Sequence[int]) -> int | None:
    """Number of zeros in the open unit disk of the integer polynomial with
    ascending coefficients ``coeffs`` (formal degree len - 1), or None when
    the recursion meets a zero delta and so makes no claim.

    Schur-Cohn/Marden recursion (Marden, Geometry of Polynomials, 1966,
    Thm 42.1): f -> a_0 f - a_n f*, with f* the reversal at the formal
    degree, cancels the top coefficient; the new constant term is
    delta = a_0^2 - a_n^2.  When no delta is 0, the zeros inside are as many
    as the negative running products delta_1 ... delta_j.  Each step divides
    by its (positive) content, which keeps every sign.
    """
    f = list(coeffs)
    inside, negative = 0, False
    while len(f) > 1:
        a0, an = f[0], f[-1]
        g = [a0 * x - an * y for x, y in zip(f[:-1], reversed(f[1:]))]
        if g[0] == 0:
            return None
        negative ^= g[0] < 0
        inside += negative
        c = math.gcd(*g)
        f = [x // c for x in g]
    return inside


# Radii r = 1 - 2**-k, k = 1, 2, 4, ..., 64, as (numerator, denominator).
_RADII = tuple(((1 << k) - 1, 1 << k) for k in (1, 2, 4, 8, 16, 32, 64))


def prove_pisot(p: IntPolynomial) -> PisotCertificate | None:
    """Prove Pisot geometry by exact disk counting, or return None.

    p(1) < 0 gives a real root above 1.  If n - 1 zeros of the degree-n p lie
    in |z| < r for some r < 1, that root is the only one outside the disk:
    theta is simple, real and above 1, and every conjugate has modulus
    below r.  The radii r = a/b = 1 - 2**-k are tried in turn on
    q(z) = b**n p(a z / b), whose zeros in the unit disk are those of p in
    |z| < r.  Every delta a_0^2 - a_n^2 is odd there: q has only its top
    coefficient odd, every later f only its constant term, so every count
    makes a claim.  A count at r = 1 runs first: a radius that proves the
    geometry leaves n - 1 zeros in the unit disk, so a claim of any other
    number declines before the ladder's wider integers are built.

    None means no radius proved the geometry; `certify_pisot` decides those
    (a conjugate may lie above 1 - 2**-64).  Input errors are those of
    `certify_pisot`.

    The small radii come first because a Pisot input is usually proved
    there on small integers: on the catalog, alpha/beta up to 11 and the 94
    Pisot polynomials of a 2,000-polynomial random pool, the ladder takes
    0.13 ms per proof against 1.3 ms for one count at 1 - 2**-64, whose
    scaled coefficients are 64 bits per degree wider (2 vCPU, Python 3.11).
    """
    _check_input(p)
    if p(1) >= 0:
        return None
    n = p.degree
    inside = _disk_count(p.coeffs)
    if inside is not None and inside != n - 1:
        return None
    for a, b in _RADII:
        q = [c * a**i * b ** (n - i) for i, c in enumerate(p.coeffs)]
        if _disk_count(q) == n - 1:
            break
    else:
        return None
    if n == 1:
        dominant = RatInterval.point(-p.coeff(0))
    else:
        # Cauchy: every root has modulus below 1 + max|a_i|, so p(1) < 0 < p(B)
        dominant = RatInterval(Fraction(1), Fraction(1 + max(map(abs, p.coeffs[:-1]))))
    return PisotCertificate(
        verdict=Verdict.PISOT, dominant_root=dominant, conjugate_bound=Fraction(a, b)
    )


# Isolation widths 1/eps_den to try: sympy's default pass first, then
# 2**-6, 2**-12, ..., 2**-3072.  Finite because circle-touching roots are
# excluded before the ladder runs.
_EPS_LADDER = (None,) + tuple(1 << (6 << i) for i in range(10))


def certify_pisot(p: IntPolynomial, *, enclosures: bool = True) -> PisotCertificate:
    """Certify the root geometry of a monic integer polynomial.

    Returns a certificate whose verdict is PISOT (geometry certified) or
    NOT_PISOT.  An isolation acceptance also records the conjugate moduli
    and a small-prime irreducibility witness, if there is one.

    With ``enclosures=False`` the `prove_pisot` certificate is returned when
    the disk count proves the geometry: PISOT with no witness and no
    conjugate moduli.  Otherwise, and always for a refusal, the result is
    that of the isolation.
    """
    if not enclosures:
        proof = prove_pisot(p)
        if proof is not None:
            return proof
    _check_input(p)
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
        cert = _classify_roots(p, eps_den)
        if cert is not None:
            return cert
    raise PrecisionExhausted("root classification undecided at the finest isolation width")


def _sympy_poly(p: IntPolynomial):
    import sympy

    return sympy.Poly(list(reversed(p.coeffs)), sympy.Symbol("x"))


def _classify_roots(p: IntPolynomial, eps_den: int | None) -> PisotCertificate | None:
    """One isolation pass.  Returns the certificate once the geometry is
    decided, None when some root's position relative to the unit circle is
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
        if lo >= 1:
            dominants.append((RatInterval(lo, hi), mult))
        elif lo == hi:
            # an exact root is an integer; p(0), p(+-1) != 0 puts it below -1
            refuted = f"real root at {lo} outside the open unit disk"
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

    if refuted is None:
        if len(dominants) > 1 or (dominants and dominants[0][1] > 1):
            refuted = "more than one root above 1 (with multiplicity)"
        elif undecided:
            return None
        elif not dominants:
            refuted = "no real root above 1"
    if refuted is not None:
        return PisotCertificate(conjugate_moduli=tuple(moduli), failure_reason=refuted)
    return PisotCertificate(
        verdict=Verdict.PISOT,
        dominant_root=dominants[0][0],
        conjugate_moduli=tuple(moduli),
        conjugate_bound=max((m.hi for m in moduli), default=Fraction(0)),
        irreducibility_witness=_irreducibility_witness(p),
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
    # g(+-1) != 0 gives G(+-2) != 0, so the closed count is the open one
    return int(_sympy_poly(_trace_polynomial(g)).count_roots(-2, 2)) > 0


def _trace_polynomial(g: IntPolynomial) -> IntPolynomial:
    """The integer G with g(z) = z^k G(z + 1/z), for a palindrome g of degree 2k."""
    k2 = g.degree
    if k2 % 2 != 0 or any(g.coeff(i) != g.coeff(k2 - i) for i in range(k2 + 1)):
        # inversion-closure should make g palindromic once p(+-1) != 0
        raise PrecisionExhausted("unexpected non-palindromic circle factor")
    k = k2 // 2
    # g(z)/z^k = c_0 + sum c_i (z^i + z^-i), c_i = g_{k+i}; from the top down,
    # y^i = sum_j C(i, (i-j)/2) (z^j + z^-j) over j = i, i-2, ... (j = 0 once)
    c = [g.coeff(k + i) for i in range(k + 1)]
    for i in range(k, 1, -1):
        for j in range(i - 2, -1, -2):
            c[j] -= c[i] * math.comb(i, (i - j) // 2)
    return IntPolynomial(tuple(c))


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
