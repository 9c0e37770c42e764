from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pisotlab.catalog import load_catalog
from pisotlab.certify import Verdict, certify_pisot, refine_root, sign_at
from pisotlab.errors import InvalidParameters
from pisotlab.intervals import RatInterval
from pisotlab.poly import (
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


@pytest.mark.parametrize("n", range(1, 7))
def test_certify_alpha_beta_families(n: int) -> None:
    for p in (alpha_poly(n), beta_poly(n)):
        cert = certify_pisot(p)
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
