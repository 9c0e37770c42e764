"""Logarithmic-equation families whose roots are Pisot limit points.

Three families, parametrized by integers ``m >= 2``, ``n >= 1`` (and
``1 <= l < m`` for the middle one):

* club:   -ln(m - x)/ln x = n                    <=>  x^{n+1} - m x^n + 1 = 0
* heart:  (-ln(m - x) + ln(x - m + l))/ln x = n  <=>  x^{n+1} - m x^n + x - m + l = 0
* spade:  -ln(x - m)/ln x = n                    <=>  x^{n+1} - m x^n - 1 = 0

Inside the family window each equation is exactly A(theta) theta^n =
B(theta) with A, B > 0 and theta > 1 (club: A = m - theta, B = 1; spade:
A = theta - m, B = 1; heart: A = m - theta, B = theta - m + l), so every
solved root is proved by that identity in Z[theta], in integers.

Also here: certified evaluation of the closed-form log identities attached
to the alpha/beta families and a certified ordering chain of the small
limit points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .certify import PisotCertificate, certify_pisot, refine_root, sign_at
from .errors import (
    InvalidParameters,
    NoRootInInterval,
    PrecisionExhausted,
    ResidualTooLarge,
)
from .field import NumberField
from .intervals import RatInterval, interval_to_iv, iv_to_interval
from .poly import (
    DEGREE_LIMIT,
    IntPolynomial,
    alpha_poly,
    beta_poly,
    delta2_poly,
    poly_from_terms,
    strip_unit_root,
)

DEFAULT_TOL = Fraction(1, 10**30)
DEFAULT_SOLVE_BITS = 192
# Largest working precision a caller may ask for: ``limits ordering --count
# 26 --bits 2048`` takes 72 s and ``limits identities --n 1:25 --bits 2048``
# 70 s (2 vCPU, Python 3.11); the time grows about fivefold per doubling.
BITS_LIMIT = 2048

_FAMILIES = ("club", "heart", "spade")


@dataclass(frozen=True)
class LogEquationSpec:
    """One member of the club/heart/spade equation families."""

    family: str
    m: int
    n: int
    l: int | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise InvalidParameters("unknown family %r" % (self.family,))
        if self.m < 2:
            raise InvalidParameters("m must be >= 2 (integer limit points are excluded)")
        if self.n < 1:
            raise InvalidParameters("n must be >= 1")
        if self.n + 1 > DEGREE_LIMIT:
            raise InvalidParameters("degree is at most %d, not %d" % (DEGREE_LIMIT, self.n + 1))
        if self.family == "heart":
            if self.l is None or not (1 <= self.l < self.m):
                raise InvalidParameters("heart needs 1 <= l < m")
        elif self.l is not None:
            raise InvalidParameters("l only applies to the heart family")

    @property
    def root_window(self) -> tuple[int, int]:
        """Open interval the Pisot root must fall in."""
        if self.family == "spade":
            return (self.m, self.m + 1)
        return (self.m - 1, self.m)

    def polynomial(self) -> IntPolynomial:
        head = [(self.n + 1, 1), (self.n, -self.m)]
        if self.family == "heart":
            return poly_from_terms(head + [(1, 1), (0, self.l - self.m)])
        return poly_from_terms(head + [(0, 1 if self.family == "club" else -1)])

    def label(self) -> str:
        if self.family == "heart":
            return "heart(m=%d,n=%d,l=%d)" % (self.m, self.n, self.l)
        return "%s(m=%d,n=%d)" % (self.family, self.m, self.n)


@dataclass(frozen=True)
class LimitPointSolution:
    poly: IntPolynomial  # after removing (x-1) factors
    unit_root_multiplicity: int
    root: RatInterval
    certificate: PisotCertificate


def solve_log_equation(spec: LogEquationSpec) -> LimitPointSolution:
    """Solve one log-equation spec to a proved Pisot limit point.

    Builds the family polynomial, strips any (x-1) factor, brackets the
    root by a strict sign change across the family's window, proves the
    rest Pisot by the exact disk count (`certify_pisot` with
    ``enclosures=False``), and checks A(theta) theta^n = B(theta) in
    Z[theta].  That identity is the log equation itself: the window signs
    put theta above 1 and make every log argument positive.  A failed
    check raises :class:`ResidualTooLarge` (the polynomial is wrong); a
    non-Pisot certificate is refused by `NumberField` with :class:`NotPisot`.
    """
    reduced, mult = strip_unit_root(spec.polynomial())
    if reduced.degree < 1:
        raise NoRootInInterval(
            "%s collapses to a constant after removing (x-1)^%d" % (spec.label(), mult)
        )
    root = _window_root(reduced, DEFAULT_SOLVE_BITS, spec.root_window, spec.label())
    cert = certify_pisot(reduced, enclosures=False)
    field = NumberField(reduced, cert)
    # the open window has integer ends, so theta is no integer and the
    # degree is at least 2: theta's coordinates are (0, 1)
    m = spec.m
    a = field.element((-m, 1) if spec.family == "spade" else (m, -1))
    b = field.element((spec.l - m, 1) if spec.family == "heart" else (1,))
    if field.element_mul(a, field.theta_power(spec.n)) != b:
        raise ResidualTooLarge("%s: A(theta) theta^n != B(theta) in Z[theta]" % spec.label())
    return LimitPointSolution(reduced, mult, root, cert)


def _residual(spec: LogEquationSpec, root: RatInterval, prec: int) -> RatInterval:
    """Certified |LHS - n| of a club or heart equation at ``root``."""
    m = spec.m
    terms = [(-1, RatInterval.point(m) - root)]  # -ln(m - x)
    if spec.family == "heart":
        terms.append((+1, root.shift(Fraction(spec.l - m))))  # +ln(x - m + l)
    return _log_ratio(prec, root, terms).shift(-Fraction(spec.n)).abs_()


def _log_ratio(
    prec: int, x: RatInterval, terms: list[tuple[int, RatInterval]]
) -> RatInterval:
    """sum(sign * ln(arg)) / ln(x) as a certified enclosure."""
    for _, arg in terms:
        if arg.lo <= 0:
            raise PrecisionExhausted(
                "log argument enclosure %s touches zero at %d bits" % (arg, prec)
            )
    old = mpmath.iv.prec
    mpmath.iv.prec = prec
    try:
        ln_x = mpmath.iv.log(interval_to_iv(x, prec))
        total = mpmath.iv.mpf(0)
        for sign, arg in terms:
            term = mpmath.iv.log(interval_to_iv(arg, prec))
            total = total + term if sign > 0 else total - term
        return iv_to_interval(total / ln_x)
    finally:
        mpmath.iv.prec = old


# ---------------------------------------------------------------------------
# closed-form identities


IDENTITY_KINDS = ("I", "II", "alpha2_pair", "alpha3_extra", "delta_prime")


def verify_identity(kind: str, n: int | None = None, precision_bits: int = 256) -> RatInterval:
    """Certified residual enclosure for one of the closed-form log identities.

    * ``I``    (needs n):  -ln(2 - beta_n)/ln(beta_n) = n + 1, the club(2, n+1)
                           equation at beta_n
    * ``II``   (needs n):  (-ln(2 - alpha_n) + ln(alpha_n - 1))/ln(alpha_n) = n,
                           the heart(2, n, 1) equation at alpha_n
    * ``alpha2_pair``:     -ln(2 - alpha_2)/ln(alpha_2) = 5/2  and
                           -ln(alpha_2 - 1)/ln(alpha_2) = 1/2  (max of both residuals)
    * ``alpha3_extra``:    (-ln(2 - alpha_3) + ln(alpha_3 - alpha_1))/ln(alpha_3) = 1
    * ``delta_prime``:     (-ln(2 - d) + ln(d - 1))/ln(d) = 7/2 for the degree-4
                           limit point d ~ 1.9051661677
    """
    if kind not in IDENTITY_KINDS:
        raise InvalidParameters("unknown identity kind %r" % (kind,))
    if precision_bits < 64:
        raise InvalidParameters("precision must be at least 64 bits")
    if precision_bits > BITS_LIMIT:
        raise InvalidParameters("precision is at most %d bits, not %d" % (BITS_LIMIT, precision_bits))
    if kind in ("I", "II"):
        if n is None or n < 1:
            raise InvalidParameters("identity %s needs n >= 1" % kind)
    prec = precision_bits

    if kind == "alpha2_pair":
        x = _window_root(alpha_poly(2), prec)
        r1 = _log_ratio(prec, x, [(-1, _two_minus(x))]).shift(Fraction(-5, 2)).abs_()
        r2 = _log_ratio(prec, x, [(-1, x.shift(Fraction(-1)))]).shift(Fraction(-1, 2)).abs_()
        return RatInterval(max(r1.lo, r2.lo), max(r1.hi, r2.hi))
    if kind == "I":
        spec, x = LogEquationSpec("club", 2, n + 1), _window_root(beta_poly(n), prec)
        return _residual(spec, x, prec)
    if kind == "II":
        spec, x = LogEquationSpec("heart", 2, n, 1), _window_root(alpha_poly(n), prec)
        return _residual(spec, x, prec)
    if kind == "alpha3_extra":
        x = _window_root(alpha_poly(3), prec)
        x1 = _window_root(alpha_poly(1), prec)
        terms = [(-1, _two_minus(x)), (+1, x - x1)]
        claim = Fraction(1)
    else:  # delta_prime
        x = _window_root(delta2_poly(), prec)
        terms = [(-1, _two_minus(x)), (+1, x.shift(Fraction(-1)))]
        claim = Fraction(7, 2)
    return _log_ratio(prec, x, terms).shift(-claim).abs_()


def _two_minus(x: RatInterval) -> RatInterval:
    return RatInterval.point(2) - x


def _window_root(
    p: IntPolynomial, prec: int, window: tuple[int, int] = (1, 2), label: str | None = None
) -> RatInterval:
    """The root of p in an open window above 1, refined to width
    2**-(prec + 8).

    For a Pisot p a sign change across such a window brackets theta and no
    conjugate, so plain bisection certifies it.  The default window ]1, 2[
    holds the limit points of the alpha/beta families.
    """
    lo, hi = window
    label = label or str(p)
    s_lo, s_hi = sign_at(p, lo), sign_at(p, hi)
    if s_lo == 0 or s_hi == 0:
        raise NoRootInInterval(
            "%s has a root exactly on the boundary of ]%d, %d[" % (label, lo, hi)
        )
    if s_lo * s_hi > 0:
        raise NoRootInInterval("%s has no sign change across ]%d, %d[" % (label, lo, hi))
    return refine_root(p, RatInterval(Fraction(lo), Fraction(hi)), prec + 8)


# ---------------------------------------------------------------------------
# the ordering chain


@dataclass(frozen=True)
class ChainEntry:
    label: str
    poly: IntPolynomial
    enclosure: RatInterval
    bits: int


@dataclass(frozen=True)
class OrderingReport:
    entries: tuple[ChainEntry, ...]
    gaps: tuple[Fraction, ...]  # certified lower bound on entry[i+1] - entry[i]
    all_below_two: bool
    merged_first_pair: bool  # alpha_1 = beta_1 confirmed by polynomial identity

    @property
    def strictly_increasing(self) -> bool:
        return all(g > 0 for g in self.gaps)


def ordering_check(count: int, precision_bits: int = 128) -> OrderingReport:
    """Certified chain of the small limit points.

    alpha_1 = beta_1 < alpha_2 < beta_2 < alpha_3 < delta'_2 < beta_3 <
    alpha_4 < beta_4 < ... with every entry certified below 2.  The first
    equality is established exactly (the two defining polynomials are
    identical); every inequality is certified by disjoint enclosures.
    """
    if count < 2:
        raise InvalidParameters("count must be >= 2")
    if count + 1 > DEGREE_LIMIT:
        raise InvalidParameters("degree is at most %d, not %d" % (DEGREE_LIMIT, count + 1))
    if precision_bits < 1:
        raise InvalidParameters("precision must be at least 1 bit")
    if precision_bits > BITS_LIMIT:
        raise InvalidParameters("precision is at most %d bits, not %d" % (BITS_LIMIT, precision_bits))
    merged = alpha_poly(1) == beta_poly(1)

    chain: list[tuple[str, IntPolynomial]] = [("alpha_1=beta_1", alpha_poly(1))]
    for i in range(2, count + 1):
        chain.append(("alpha_%d" % i, alpha_poly(i)))
        if i == 3 and count >= 3:
            chain.append(("delta_prime_2", delta2_poly()))
        chain.append(("beta_%d" % i, beta_poly(i)))

    bits = precision_bits
    cap = max(precision_bits * 16, 1 << 12)
    while True:
        entries = [
            ChainEntry(label, p, _window_root(p, bits), bits)
            for label, p in chain
        ]
        gaps: list[Fraction] = []
        ok = True
        for a, b in zip(entries, entries[1:]):
            gap = b.enclosure.lo - a.enclosure.hi
            gaps.append(gap)
            if gap <= 0:
                ok = False
        if ok:
            below = all(e.enclosure.hi < 2 for e in entries)
            return OrderingReport(tuple(entries), tuple(gaps), below, merged)
        bits *= 2
        if bits > cap:
            raise PrecisionExhausted(
                "chain enclosures still overlap at %d bits" % cap
            )
