from __future__ import annotations

import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pisotlab.errors import InvalidParameters
from pisotlab.intervals import (
    DyadicInterval,
    RatInterval,
    decimal_lower,
    decimal_upper,
    fraction_to_mpf,
    interval_to_iv,
    iv_to_interval,
    sqrt_lower,
    sqrt_upper,
)


def _rand_interval(rng: random.Random) -> RatInterval:
    a = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
    b = a + Fraction(rng.randint(0, 30), rng.randint(1, 20))
    return RatInterval(a, b)


def test_point_and_width() -> None:
    p = RatInterval.point(Fraction(3, 7))
    assert p.is_point
    assert p.width == 0


def test_invalid_order_rejected() -> None:
    with pytest.raises(InvalidParameters):
        RatInterval(Fraction(1), Fraction(0))


def test_multiplication_is_enclosure() -> None:
    rng = random.Random(5)
    for _ in range(200):
        x, y = _rand_interval(rng), _rand_interval(rng)
        prod = x * y
        for _ in range(8):
            a = x.lo + (x.hi - x.lo) * Fraction(rng.randint(0, 16), 16)
            b = y.lo + (y.hi - y.lo) * Fraction(rng.randint(0, 16), 16)
            assert prod.lo <= a * b <= prod.hi


def test_negation_and_subtraction() -> None:
    x = RatInterval(Fraction(1, 3), Fraction(1, 2))
    y = RatInterval(Fraction(-1), Fraction(2))
    d = x - y
    assert d.lo == x.lo - y.hi
    assert d.hi == x.hi - y.lo
    n = -x
    assert (n.lo, n.hi) == (-x.hi, -x.lo)


def test_abs_straddling_zero() -> None:
    x = RatInterval(Fraction(-2), Fraction(1))
    a = x.abs_()
    assert a.lo == 0
    assert a.hi == 2


def test_sqrt_bounds_bracket() -> None:
    rng = random.Random(9)
    for _ in range(50):
        q = Fraction(rng.randint(1, 10**6), rng.randint(1, 100))
        lo, hi = sqrt_lower(q), sqrt_upper(q)
        assert lo * lo <= q <= hi * hi
        assert hi - lo < Fraction(1, 2**80) * max(1, hi)


def test_decimal_bounds_are_outward() -> None:
    q = Fraction(1, 3)
    lo = decimal_lower(q, 6)
    hi = decimal_upper(q, 6)
    assert Fraction(lo) <= q <= Fraction(hi)
    assert lo == "0.333333"
    assert hi == "0.333334"
    # exact decimals need no rounding
    assert decimal_lower(Fraction(5, 4), 6) == decimal_upper(Fraction(5, 4), 6)


def test_decimal_bounds_negative() -> None:
    q = Fraction(-1, 3)
    assert Fraction(decimal_lower(q, 4)) <= q <= Fraction(decimal_upper(q, 4))


def test_fraction_to_mpf_directed() -> None:
    q = Fraction(1, 3)
    lo = fraction_to_mpf(q, 53, "floor")
    hi = fraction_to_mpf(q, 53, "ceiling")
    # compare exactly: at 200 bits, thrice a 53-bit mantissa is exact
    with mpmath.workprec(200):
        assert lo * 3 < 1 < hi * 3
        assert lo < hi  # 1/3 is not dyadic, rounding must move


def test_iv_roundtrip_is_enclosing() -> None:
    rng = random.Random(21)
    for _ in range(50):
        x = _rand_interval(rng)
        back = iv_to_interval(interval_to_iv(x, 80))
        assert back.lo <= x.lo and x.hi <= back.hi


def test_iv_to_interval_keeps_tight_endpoints() -> None:
    # Endpoints must be read at the interval's own precision.  Converting
    # them through the global real context (53 bits here) would re-round a
    # width-2^-200 enclosure of 1/3 into something that misses 1/3 entirely.
    old = mpmath.mp.prec
    mpmath.mp.prec = 53
    try:
        saved = mpmath.iv.prec
        mpmath.iv.prec = 200
        try:
            x = mpmath.iv.mpf(1) / mpmath.iv.mpf(3)
        finally:
            mpmath.iv.prec = saved
        back = iv_to_interval(x)
        third = Fraction(1, 3)
        assert back.lo <= third <= back.hi
        assert back.width < Fraction(1, 2**190)
    finally:
        mpmath.mp.prec = old


def test_iv_to_interval_rejects_non_finite() -> None:
    saved = mpmath.iv.prec
    mpmath.iv.prec = 53
    try:
        bad = mpmath.iv.mpf(1) / mpmath.iv.mpf(0)
    finally:
        mpmath.iv.prec = saved
    with pytest.raises(InvalidParameters):
        iv_to_interval(bad)


# -- dyadic enclosures ---------------------------------------------------------


def _value(iv: DyadicInterval) -> tuple[Fraction, Fraction]:
    return Fraction(iv.lo_man, 1 << iv.exp), Fraction(iv.hi_man, 1 << iv.exp)


MANTISSA = st.integers(-(2**70), 2**70)
EXP = st.integers(0, 40)


@st.composite
def _dyadic(draw) -> DyadicInterval:
    lo = draw(st.one_of(st.just(0), MANTISSA))
    width = draw(st.one_of(st.just(0), st.integers(0, 2**70)))
    return DyadicInterval(lo, lo + width, draw(EXP))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_dyadic(), st.integers(-(2**70), 2**70))
@example(DyadicInterval(-3, 5, 2), 0)
@example(DyadicInterval(-7, -1, 0), -2)
def test_dyadic_shift_and_abs_match_fraction_arithmetic(iv, c) -> None:
    lo, hi = _value(iv)
    shifted = iv.shift(c)
    assert shifted.exp == iv.exp
    assert _value(shifted) == (lo + c, hi + c)
    a = iv.abs_()
    assert a.exp == iv.exp
    ref = RatInterval(lo, hi).abs_()
    assert _value(a) == (ref.lo, ref.hi)


@st.composite
def _dyadic_pairs(draw) -> tuple[DyadicInterval, DyadicInterval]:
    """Two intervals at exponents that differ either way; a third of the
    pairs touch, the upper end of the first equal to the lower end of the
    second, written at both exponents."""
    ea, eb = draw(EXP), draw(EXP)
    a = draw(_dyadic())
    a = DyadicInterval(a.lo_man, a.hi_man, ea)
    if draw(st.integers(0, 2)) == 0:
        # a value on both grids: m * 2**-min(ea, eb)
        m = draw(MANTISSA)
        top = m << (ea - min(ea, eb))
        a = DyadicInterval(min(a.lo_man, top), top, ea)
        lo_b = m << (eb - min(ea, eb))
    else:
        lo_b = draw(MANTISSA)
    b = DyadicInterval(lo_b, lo_b + draw(st.integers(0, 2**70)), eb)
    return a, b


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_dyadic_pairs())
@example((DyadicInterval(0, 4, 2), DyadicInterval(1, 3, 0)))    # touching at 1
@example((DyadicInterval(0, 1, 0), DyadicInterval(4, 8, 2)))    # touching at 1
@example((DyadicInterval(-2, 3, 2), DyadicInterval(1, 1, 1)))   # 3/4 < 1/2 is false
@example((DyadicInterval(-2, 1, 1), DyadicInterval(3, 3, 2)))   # 1/2 < 3/4
@example((DyadicInterval(0, 0, 0), DyadicInterval(0, 0, 5)))    # zero is not below zero
def test_dyadic_below_is_the_strict_fraction_order(pair) -> None:
    a, b = pair
    (a_lo, a_hi), (b_lo, b_hi) = _value(a), _value(b)
    assert a.below(b) == (a_hi < b_lo)
    assert b.below(a) == (b_hi < a_lo)


def test_dyadic_inverted_mantissas_rejected() -> None:
    with pytest.raises(InvalidParameters):
        DyadicInterval(1, 0, 3)
    with pytest.raises(InvalidParameters):
        DyadicInterval(-1, -2, 0)
    assert _value(DyadicInterval(5, 5, 3)) == (Fraction(5, 8), Fraction(5, 8))
