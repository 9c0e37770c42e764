from __future__ import annotations

import functools
import re
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pisotlab.certify
from pisotlab.catalog import load_catalog
from pisotlab.certify import (
    _RADII,
    PisotCertificate,
    Verdict,
    _disk_count,
    _trace_polynomial,
    certify_pisot,
    newton_root,
    prove_pisot,
    refine_root,
    sign_at,
)
from pisotlab.errors import InvalidParameters, NotPisot, PrecisionExhausted
from pisotlab.field import NumberField
from pisotlab.intervals import RatInterval
from pisotlab.poly import (
    DEGREE_LIMIT,
    IntPolynomial,
    alpha_poly,
    beta_poly,
    delta2_poly,
    plastic_poly,
)

GOLDEN = IntPolynomial.from_coeffs([-1, -1, 1])


def test_sign_at() -> None:
    assert sign_at(GOLDEN, 1) == -1
    assert sign_at(GOLDEN, 2) == 1
    assert sign_at(GOLDEN, Fraction(1, 2)) == -1


def test_refine_root_golden_ratio() -> None:
    iv = refine_root(GOLDEN, RatInterval(Fraction(1), Fraction(2)), 100)
    assert iv.width <= Fraction(1, 2**100)
    # (1+sqrt5)/2: check against the defining equation
    assert GOLDEN(iv.lo) < 0 < GOLDEN(iv.hi)


def _fraction_bisection(p: IntPolynomial, iv: RatInterval, bits: int) -> RatInterval:
    """The Fraction-arithmetic bisection refine_root replaced, kept as the
    reference it must match interval for interval."""
    if iv.is_point:
        return iv
    lo, hi = iv.lo, iv.hi
    s_lo = sign_at(p, lo)
    if s_lo == 0:
        return RatInterval.point(lo)
    if sign_at(p, hi) == 0:
        return RatInterval.point(hi)
    target = Fraction(1, 1 << bits)
    while hi - lo > target:
        ratio = 64 / (hi - lo)
        e = (ratio.numerator // ratio.denominator).bit_length() + 1
        m = Fraction(round((lo + hi) / 2 * (1 << e)), 1 << e)
        s_m = sign_at(p, m)
        if s_m == 0:
            return RatInterval.point(m)
        if s_m == s_lo:
            lo = m
        else:
            hi = m
    return RatInterval(lo, hi)


@pytest.mark.parametrize("entry", list(load_catalog()), ids=lambda e: e.name)
def test_refine_root_matches_fraction_bisection_on_catalog(entry) -> None:
    start = certify_pisot(entry.poly).dominant_root
    fast = slow = start
    for bits in (8, 16, 32, 64, 128, 256, 512, 1024, 2048, 3000):
        fast = refine_root(entry.poly, fast, bits)
        slow = _fraction_bisection(entry.poly, slow, bits)
        assert fast == slow, bits
    assert refine_root(entry.poly, start, 3000) == fast


def test_refine_root_rounds_midpoint_ties_to_even() -> None:
    # the first midpoint of [1 + 2^-8, 2], 769/512, lies halfway between two
    # points of its 2^-8 grid
    iv = RatInterval(1 + Fraction(1, 256), Fraction(2))
    tight = refine_root(GOLDEN, iv, 60)
    assert tight == _fraction_bisection(GOLDEN, iv, 60)
    assert refine_root(GOLDEN, iv, 1) == RatInterval(Fraction(3, 2), Fraction(2))


@st.composite
def perron_polys(draw) -> IntPolynomial:
    """x^d - A x^(d-1) + c_(d-2) x^(d-2) + ... + c_0 with c_0 != 0 and
    A > 1 + sum |c_i|: Perron's criterion makes every one of them Pisot."""
    d = draw(st.integers(2, 6))
    lower = draw(st.lists(st.integers(-3, 3), min_size=d - 1, max_size=d - 1))
    lower[0] = lower[0] or 1
    a = 2 + sum(map(abs, lower)) + draw(st.integers(0, 3))
    return IntPolynomial.from_coeffs(lower + [-a, 1])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(perron_polys(), st.integers(1, 1200), st.integers(0, 1200))
def test_refine_root_matches_fraction_bisection_on_random_pisot(p, bits, more) -> None:
    cert = certify_pisot(p)
    assert cert.geometry_ok
    fresh = refine_root(p, cert.dominant_root, bits)
    assert fresh == _fraction_bisection(p, cert.dominant_root, bits)
    chained = refine_root(p, fresh, bits + more)
    assert chained == _fraction_bisection(p, fresh, bits + more)


def test_refine_root_requires_sign_change() -> None:
    with pytest.raises(InvalidParameters):
        refine_root(GOLDEN, RatInterval(Fraction(3), Fraction(4)), 30)


def test_newton_root_declines_without_a_certified_answer() -> None:
    # a double root at 2: Newton converges only linearly, and p changes no sign
    double = IntPolynomial.from_coeffs([4, -4, 1])
    iv = RatInterval(2 - Fraction(1, 1 << 60), 2 + Fraction(1, 1 << 59))
    assert newton_root(double, iv, 200) is None
    # an answer 2**-30 wide cannot lie inside an interval 2**-60 wide
    iv = refine_root(GOLDEN, RatInterval(Fraction(1), Fraction(2)), 60)
    assert newton_root(GOLDEN, iv, 30) is None
    assert iv.lo < newton_root(GOLDEN, iv, 200).lo


@pytest.mark.parametrize(
    "coeffs,root_lo,root_hi",
    [
        ((-1, -1, 1), "1.6180", "1.6181"),          # golden ratio
        ((-1, -2, 1), "2.4142", "2.4143"),          # silver ratio
        ((-1, -1, 0, 1), "1.3247", "1.3248"),       # smallest Pisot number
        ((1, 0, -2, -1, 1), "1.9051", "1.9052"),    # second-smallest limit point
        ((-1, 1, -1, 0, 1, -2, 1), "1.55", "1.57"),
    ],
)
def test_certify_known_pisot(coeffs, root_lo, root_hi) -> None:
    p = IntPolynomial.from_coeffs(coeffs)
    cert = certify_pisot(p)
    assert cert.verdict is Verdict.PISOT
    assert cert.geometry_ok
    tight = refine_root(p, cert.dominant_root, 40)
    assert tight.lo >= Fraction(root_lo)
    assert tight.hi <= Fraction(root_hi)
    assert all(m.hi < 1 for m in cert.conjugate_moduli)
    assert cert.conjugate_bound is not None and cert.conjugate_bound < 1


@functools.lru_cache(maxsize=None)
def _isolated(p: IntPolynomial) -> PisotCertificate:
    """certify_pisot(p), computed once for the tests that share it: sympy's
    isolation is the slow part of this module."""
    return certify_pisot(p)


@pytest.mark.parametrize("n", range(1, 7))
def test_certify_alpha_beta_families(n: int) -> None:
    for p in (alpha_poly(n), beta_poly(n)):
        cert = _isolated(p)
        assert cert.verdict is Verdict.PISOT
        # the families live strictly below 2
        assert refine_root(p, cert.dominant_root, 40).hi < 2


@pytest.mark.parametrize(
    "coeffs",
    [
        (-3, -1, 1),   # x^2 - x - 3: conjugate below -1
        (2, -3, 1),    # (x-1)(x-2): root on the unit circle
        (-2, 0, 1),    # x^2 - 2: conjugate -sqrt(2) outside the unit disc
    ],
)
def test_certify_rejects_non_pisot(coeffs) -> None:
    cert = certify_pisot(IntPolynomial.from_coeffs(coeffs))
    assert not cert.geometry_ok
    assert cert.failure_reason


@pytest.mark.parametrize(
    "poly",
    [
        # Lehmer's polynomial: a Salem number with eight conjugates on |z| = 1
        IntPolynomial.from_coeffs([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]),
        # (x^3 - x - 1)(x^2 + x + 1): the plastic number times a cyclotomic
        plastic_poly() * IntPolynomial.from_coeffs([1, 1, 1]),
    ],
    ids=["lehmer", "plastic_times_cyclotomic"],
)
def test_certify_rejects_unit_circle_conjugate(poly) -> None:
    cert = certify_pisot(poly)
    assert cert.verdict is Verdict.NOT_PISOT
    assert cert.failure_reason == "a conjugate lies exactly on the unit circle"


def _chebyshev_trace_polynomial(g: IntPolynomial) -> IntPolynomial:
    # the reference: G = g_k + sum g_{k+i} T_i(y), where T_i(y) represents
    # z^i + z^-i: T_0 = 2, T_1 = y, T_i = y T_{i-1} - T_{i-2}
    k = g.degree // 2
    big_g = [g.coeff(k)] + [0] * k
    t_prev, t_cur = [2], [0, 1]
    for i in range(1, k + 1):
        for j, t in enumerate(t_cur):
            big_g[j] += g.coeff(k + i) * t
        y_t = [0] + t_cur
        for j, t in enumerate(t_prev):
            y_t[j] -= t
        t_prev, t_cur = t_cur, y_t
    return IntPolynomial.from_coeffs(big_g)


def _check_trace_polynomial(g: IntPolynomial) -> IntPolynomial:
    big_g = _trace_polynomial(g)
    assert big_g == _chebyshev_trace_polynomial(g)
    k = g.degree // 2
    for z in (Fraction(2), Fraction(-1, 3)):
        assert g(z) == z**k * big_g(z + 1 / z)
    return big_g


@pytest.mark.parametrize(
    "g, expected",
    [
        # Lehmer's polynomial is its own circle factor (k = 5)
        ([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1], [3, 4, -5, -5, 1, 1]),
        # the circle factor x^2 + x + 1 of (x^3 - x - 1)(x^2 + x + 1)
        ([1, 1, 1], [1, 1]),
    ],
    ids=["lehmer", "plastic_times_cyclotomic"],
)
def test_trace_polynomial_of_a_circle_factor(g, expected) -> None:
    big_g = _check_trace_polynomial(IntPolynomial.from_coeffs(g))
    assert big_g == IntPolynomial.from_coeffs(expected)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(0, 14)
    .flatmap(lambda k: st.lists(st.integers(-1000, 1000), min_size=k + 1, max_size=k + 1))
    .filter(lambda top: top[-1] != 0)
)
def test_trace_polynomial_matches_the_chebyshev_recursion(top) -> None:
    # top = [g_k, ..., g_2k] of a palindrome g of degree 2k <= 28
    _check_trace_polynomial(IntPolynomial.from_coeffs(top[:0:-1] + top))


def test_trace_polynomial_refuses_a_non_palindrome() -> None:
    for coeffs in ([1, 2, 1, 1], [1, 2, 3]):
        with pytest.raises(PrecisionExhausted, match="non-palindromic circle factor"):
            _trace_polynomial(IntPolynomial.from_coeffs(coeffs))


def test_certify_x2_minus_3x_plus_1_is_pisot() -> None:
    # conjugate 0.381966... lies inside the unit disc
    p = IntPolynomial.from_coeffs([1, -3, 1])
    cert = certify_pisot(p)
    assert cert.verdict is Verdict.PISOT
    tight = refine_root(p, cert.dominant_root, 40)
    assert tight.lo > Fraction("2.618")
    assert tight.hi < Fraction("2.619")


def test_certify_rejects_degree_zero_and_nonmonic() -> None:
    with pytest.raises(InvalidParameters):
        certify_pisot(IntPolynomial.from_coeffs([5]))
    with pytest.raises(InvalidParameters):
        certify_pisot(IntPolynomial.from_coeffs([-1, -1, 2]))


def test_certify_rejects_zero_constant_term() -> None:
    with pytest.raises(InvalidParameters):
        certify_pisot(IntPolynomial.from_coeffs([0, -1, 1]))


def test_salem_like_rejected() -> None:
    # x^4 - x^3 - x^2 - x + 1 has conjugates on/outside the unit circle
    cert = certify_pisot(IntPolynomial.from_coeffs([1, -1, -1, -1, 1]))
    assert not cert.geometry_ok


def test_degree_one_integer() -> None:
    cert = certify_pisot(IntPolynomial.from_coeffs([-3, 1]))
    assert cert.verdict is Verdict.PISOT
    assert cert.dominant_root.lo <= 3 <= cert.dominant_root.hi
    assert cert.conjugate_moduli == ()


def test_certificate_trace_gate_value() -> None:
    # the conjugate bound must certify (d-1) * bound < dominant root gap use;
    # concretely it must majorise every conjugate modulus
    cert = certify_pisot(delta2_poly())
    assert cert.conjugate_bound is not None
    assert all(m.hi <= cert.conjugate_bound for m in cert.conjugate_moduli)


def test_plastic_conjugate_moduli_count() -> None:
    cert = certify_pisot(plastic_poly())
    assert len(cert.conjugate_moduli) == 2


# -- prove_pisot: exact disk counting ----------------------------------------


def _mp_moduli(coeffs) -> tuple[list, list]:
    """Every root and its modulus, from mpmath at 40 digits (an oracle
    independent of the Schur-Cohn recursion); rejects the example when the
    iteration does not converge, as it may on a multiple root."""
    with mpmath.workdps(40):
        try:
            roots = mpmath.polyroots(list(reversed(coeffs)), maxsteps=200, extraprec=200)
        except mpmath.libmp.NoConvergence:
            assume(False)
        return roots, [abs(r) for r in roots]


def _mpf(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


@st.composite
def integer_polys(draw) -> list[int]:
    """Ascending integer coefficients, top nonzero, not necessarily monic;
    some are multiplied by z^2 + 1, z^2 + z + 1 or z + 1, so that roots lie
    on the unit circle."""
    n = draw(st.integers(1, 7))
    coeffs = draw(st.lists(st.integers(-6, 6), min_size=n + 1, max_size=n + 1))
    coeffs[0], coeffs[-1] = coeffs[0] or 1, coeffs[-1] or 1
    factor = draw(st.sampled_from([None] * 5 + [(1, 0, 1), (1, 1, 1), (1, 1)]))
    if factor is not None:
        product = IntPolynomial.from_coeffs(coeffs) * IntPolynomial.from_coeffs(factor)
        coeffs = list(product.coeffs)
    return coeffs


@settings(max_examples=200, deadline=None, derandomize=True)
@given(integer_polys())
def test_disk_count_matches_root_oracle(coeffs) -> None:
    count = _disk_count(coeffs)
    _, moduli = _mp_moduli(coeffs)
    if any(abs(m - 1) < mpmath.mpf(10) ** -12 for m in moduli):
        # a zero on the circle forces some delta to 0: no claim
        assert count is None
    elif count is not None:
        assert count == sum(1 for m in moduli if m < 1)


def test_disk_count_by_hand() -> None:
    assert _disk_count([1, 0, 1]) is None            # z^2 + 1: the first delta
    assert _disk_count([-2, 1, -2, 1]) is None       # (z - 2)(z^2 + 1): the second
    assert _disk_count([2, -5, 2]) is None           # roots 2 and 1/2, none on the circle
    assert _disk_count([1, -6, 8]) == 2              # (2z - 1)(4z - 1)
    assert _disk_count([3, -7, 2]) == 1              # (z - 3)(2z - 1)
    assert _disk_count([5]) == 0


@st.composite
def monic_polys(draw) -> IntPolynomial:
    """Perron polynomials (all Pisot) or monic polynomials with a
    sub-leading coefficient drawn to make Pisot geometry likely."""
    if draw(st.booleans()):
        return draw(perron_polys())
    d = draw(st.integers(1, 8))
    lower = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
    lower[-1] = draw(st.integers(-6, 3))
    lower[0] = lower[0] or -1
    return IntPolynomial.from_coeffs(lower + [1])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(monic_polys())
def test_prove_pisot_accepts_only_pisot_geometry(p) -> None:
    cert = prove_pisot(p)
    if cert is None:
        return
    roots, moduli = _mp_moduli(p.coeffs)
    outside = [z for z, m in zip(roots, moduli) if m >= _mpf(cert.conjugate_bound)]
    assert len(outside) == 1
    theta = outside[0]
    assert abs(mpmath.im(theta)) < 1e-30 and mpmath.re(theta) > 1
    assert _mpf(cert.dominant_root.lo) <= mpmath.re(theta) <= _mpf(cert.dominant_root.hi)
    assert cert.conjugate_bound < 1
    assert cert.verdict is Verdict.PISOT and cert.irreducibility_witness is None


@settings(max_examples=25, deadline=None, derandomize=True)
@given(perron_polys())
def test_prove_pisot_accepts_perron_polynomials(p) -> None:
    assert prove_pisot(p) is not None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(monic_polys())
def test_ladder_deltas_never_vanish_on_monic_input(p) -> None:
    # at r = a/2^k the scaled q has odd top coefficient and even others, so
    # every delta is odd: on the ladder a count always makes a claim
    n = p.degree
    for a, b in _RADII:
        assert _disk_count([c * a**i * b ** (n - i) for i, c in enumerate(p.coeffs)]) is not None


def _families(ns) -> list[tuple[str, IntPolynomial]]:
    return [("%s_%d" % (f.__name__[0], n), f(n)) for f in (alpha_poly, beta_poly) for n in ns]


# sympy isolates alpha/beta 7..11 in ~8 s together; those are compared with
# the mpmath oracle below instead
ISOLATED_POLYS = [(e.name, e.poly) for e in load_catalog()] + _families(range(1, 7))
ORACLE_POLYS = _families(range(7, 12))


def _rung_below(r: Fraction) -> Fraction | None:
    below = [Fraction(a, b) for a, b in _RADII if Fraction(a, b) < r]
    return below[-1] if below else None


@pytest.mark.parametrize("poly", [p for _, p in ISOLATED_POLYS], ids=[n for n, _ in ISOLATED_POLYS])
def test_prove_matches_certify_on_catalog_and_families(poly) -> None:
    proof, cert = prove_pisot(poly), _isolated(poly)
    assert cert.verdict is Verdict.PISOT
    assert proof.verdict is Verdict.PISOT and proof.irreducibility_witness is None
    assert proof.conjugate_moduli == ()
    assert certify_pisot(poly, enclosures=False) == proof
    assert proof.dominant_root.lo <= cert.dominant_root.lo <= cert.dominant_root.hi
    assert cert.dominant_root.hi <= proof.dominant_root.hi
    r = proof.conjugate_bound
    # r bounds every conjugate, and the ladder radius below it does not
    assert all(m.lo < r for m in cert.conjugate_moduli)
    below = _rung_below(r)
    if below is not None:
        assert any(m.hi >= below for m in cert.conjugate_moduli)


@pytest.mark.parametrize("poly", [p for _, p in ORACLE_POLYS], ids=[n for n, _ in ORACLE_POLYS])
def test_prove_matches_root_oracle_on_larger_families(poly) -> None:
    proof = prove_pisot(poly)
    assert proof.verdict is Verdict.PISOT and proof.irreducibility_witness is None
    roots, moduli = _mp_moduli(poly.coeffs)
    theta = max(roots, key=abs)
    assert abs(mpmath.im(theta)) < 1e-30
    assert _mpf(proof.dominant_root.lo) <= mpmath.re(theta) <= _mpf(proof.dominant_root.hi)
    conjugates = sorted(moduli)[:-1]
    assert conjugates[-1] < _mpf(proof.conjugate_bound)
    below = _rung_below(proof.conjugate_bound)
    if below is not None:
        assert conjugates[-1] >= _mpf(below)


# the minimal polynomial of 5 - 4 sqrt2 - 3 sqrt3 + 2 sqrt6, which is Pisot;
# its Galois group V4 leaves it reducible modulo every prime, so isolation
# finds no witness prime
V4_QUARTIC = IntPolynomial.from_coeffs([4, 8, -16, -20, 1])
VERDICT_POLYS = (
    [(e.name, e.poly) for e in load_catalog()] + _families(range(1, 9))
    + [("v4_quartic", V4_QUARTIC)]
)


@pytest.mark.parametrize("poly", [p for _, p in VERDICT_POLYS], ids=[n for n, _ in VERDICT_POLYS])
def test_isolation_and_disk_count_give_one_verdict(poly) -> None:
    assert certify_pisot(poly, enclosures=False).verdict is _isolated(poly).verdict
    assert NumberField.from_poly(poly).certificate.verdict is Verdict.PISOT


def test_pisot_verdict_needs_no_witness_prime() -> None:
    cert = _isolated(V4_QUARTIC)
    assert cert.verdict is Verdict.PISOT and cert.geometry_ok
    assert cert.irreducibility_witness is None
    assert len(cert.conjugate_moduli) == 3 and cert.conjugate_bound < 1
    assert set(Verdict) == {Verdict.PISOT, Verdict.NOT_PISOT}


@pytest.mark.parametrize(
    "coeffs",
    [
        (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1),  # Lehmer's Salem polynomial
        (-1, -2, -2, 0, 1, 1),          # (x^3 - x - 1)(x^2 + x + 1)
        (5, -5, 1),                     # two real roots above 1, p(1) > 0
        (-24, 26, -9, 1),               # roots 2, 3, 4, p(1) < 0
        (-1, 1, 1),                     # a root below -1, p(1) > 0
        (-6, 1, 1),                     # roots 2 and -3, p(1) < 0
        (-6, 1, -1, 1),                 # (x - 2)(x^2 + x + 3): a pair outside
        (3, 1),                         # the root -3
    ],
    ids=["lehmer", "plastic_times_cyclotomic", "two_above_1", "three_above_1",
         "below_minus_1", "below_minus_1_p1_negative", "complex_outside", "degree_1_negative"],
)
def test_prove_pisot_declines(coeffs) -> None:
    p = IntPolynomial.from_coeffs(coeffs)
    assert prove_pisot(p) is None
    cert = certify_pisot(p)
    assert not cert.geometry_ok
    assert certify_pisot(p, enclosures=False) == cert
    # a field refuses with certify_pisot's reason
    with pytest.raises(NotPisot, match=re.escape("failed certification: " + cert.failure_reason)):
        NumberField.from_poly(p)


def test_ladder_moves_on_to_the_next_radius() -> None:
    # the golden ratio's conjugate has modulus 0.618: no zero in |z| < 1/2,
    # one in |z| < 3/4
    assert [_disk_count([-4, -2, 1]), _disk_count([-16, -12, 9])] == [0, 1]
    assert prove_pisot(GOLDEN).conjugate_bound == Fraction(3, 4)
    assert prove_pisot(IntPolynomial.from_coeffs([-1, -2, 1])).conjugate_bound == Fraction(1, 2)


def _count_disk_counts(monkeypatch) -> list:
    calls = []

    def counting(coeffs):
        calls.append(coeffs)
        return _disk_count(coeffs)

    monkeypatch.setattr(pisotlab.certify, "_disk_count", counting)
    return calls


def test_ladder_is_bounded(monkeypatch) -> None:
    calls = _count_disk_counts(monkeypatch)
    # (x^3 - x - 1)(x^2 + x + 1): the r = 1 count meets a zero delta and
    # makes no claim, and no radius below 1 holds the circle pair
    p = IntPolynomial.from_coeffs([-1, -2, -2, 0, 1, 1])
    assert prove_pisot(p) is None
    assert calls[0] == p.coeffs and _disk_count(p.coeffs) is None
    assert len(calls) == 1 + len(_RADII) == 8


def test_r1_count_declines_before_the_ladder(monkeypatch) -> None:
    calls = _count_disk_counts(monkeypatch)
    # x^27 - 2x^26 + 3x - 3: p(1) = -1, but 4 zeros lie in the unit disk,
    # not 26; the ladder at 1 - 2**-32 and 1 - 2**-64 took over a second
    p = IntPolynomial.from_coeffs([-3, 3] + [0] * 24 + [-2, 1])
    assert p(1) < 0
    assert prove_pisot(p) is None
    assert calls == [p.coeffs]
    assert _disk_count(p.coeffs) == 4


def _ladder_reference(p: IntPolynomial) -> PisotCertificate | None:
    """prove_pisot as it read before the r = 1 count: the radius ladder alone."""
    if p(1) >= 0:
        return None
    n = p.degree
    for a, b in _RADII:
        if _disk_count([c * a**i * b ** (n - i) for i, c in enumerate(p.coeffs)]) == n - 1:
            break
    else:
        return None
    if n == 1:
        dominant = RatInterval.point(-p.coeff(0))
    else:
        dominant = RatInterval(Fraction(1), Fraction(1 + max(map(abs, p.coeffs[:-1]))))
    return PisotCertificate(
        verdict=Verdict.PISOT, dominant_root=dominant, conjugate_bound=Fraction(a, b)
    )


@st.composite
def ladder_polys(draw) -> IntPolynomial:
    """Monic, degree <= 10, p(0) != 0, a sub-leading coefficient drawn to
    make p(1) < 0 likely; some carry a unit-circle factor, on which the
    r = 1 count makes no claim."""
    d = draw(st.integers(1, 8))
    lower = draw(st.lists(st.integers(-4, 4), min_size=d, max_size=d))
    lower[-1] = draw(st.integers(-8, 3))
    lower[0] = lower[0] or -1
    p = IntPolynomial.from_coeffs(lower + [1])
    factor = draw(st.sampled_from([None] * 4 + [(1, 0, 1), (1, 1, 1), (1, -1, 1)]))
    return p if factor is None else p * IntPolynomial.from_coeffs(factor)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(ladder_polys())
def test_r1_count_keeps_every_ladder_verdict(p) -> None:
    assert prove_pisot(p) == _ladder_reference(p)


def test_prove_pisot_degree_one() -> None:
    cert = prove_pisot(IntPolynomial.from_coeffs([-3, 1]))
    assert cert.dominant_root == RatInterval.point(3)


@pytest.mark.parametrize("coeffs", [(5,), (-1, -1, 2), (0, -1, 1)])
def test_prove_pisot_input_errors_match_certify(coeffs) -> None:
    p = IntPolynomial.from_coeffs(coeffs)
    with pytest.raises(InvalidParameters) as proved:
        prove_pisot(p)
    with pytest.raises(InvalidParameters) as certified:
        certify_pisot(p)
    assert type(proved.value) is type(certified.value)
    assert str(proved.value) == str(certified.value)


def test_certification_degree_bound_is_inclusive() -> None:
    top = DEGREE_LIMIT
    # the disk count proves alpha_{top-1}, of degree top, at once
    assert prove_pisot(alpha_poly(top - 1)).geometry_ok
    # x^(top+1) - 2x^top + x - 1 is refused before any isolation starts
    over = IntPolynomial.from_coeffs([-1, 1] + [0] * (top - 2) + [-2, 1])
    for certify in (certify_pisot, prove_pisot, NumberField.from_poly):
        with pytest.raises(InvalidParameters, match="^degree is at most %d, not %d$" % (top, top + 1)):
            certify(over)
