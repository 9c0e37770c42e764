from __future__ import annotations

import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pisotlab.catalog import load_catalog
from pisotlab.errors import ExactHalfInteger, InvalidParameters
from pisotlab.field import FieldElement, NumberField
from pisotlab.intervals import RatInterval
from pisotlab.poly import IntPolynomial

GOLDEN = NumberField.from_poly([-1, -1, 1])
PLASTIC = NumberField.from_poly([-1, -1, 0, 1])
DELTA2 = NumberField.from_poly([1, 0, -2, -1, 1])


def test_element_padding_and_rationality() -> None:
    e = GOLDEN.element((3,))
    assert e.coords == (3, 0)
    assert e.is_rational
    assert e.rational_value == 3
    assert not GOLDEN.theta().is_rational


def test_too_many_coordinates_rejected() -> None:
    with pytest.raises(InvalidParameters):
        GOLDEN.element((1, 2, 3))


def test_theta_satisfies_its_equation() -> None:
    for field in (GOLDEN, PLASTIC, DELTA2):
        t = field.theta()
        acc = field.one()
        total = field.zero()
        for c in field.min_poly.coeffs:
            total = total + acc.scale(c)
            acc = field.element_mul(acc, t)
        assert total.is_zero


def test_theta_power_matches_repeated_multiplication() -> None:
    for field in (GOLDEN, PLASTIC, DELTA2):
        acc = field.one()
        for n in range(25):
            assert field.theta_power(n) == acc
            acc = field.element_mul(acc, field.theta())


def test_theta_power_cache_random_access() -> None:
    field = NumberField.from_poly([-1, -1, 0, 1])
    direct = field.theta_power(40)
    # hit the cache out of order
    field2 = NumberField.from_poly([-1, -1, 0, 1])
    for n in (40, 13, 27, 40):
        field2.theta_power(n)
    assert field2.theta_power(40) == direct


def test_multiplication_commutes_with_evaluation() -> None:
    rng = random.Random(17)
    for field in (GOLDEN, DELTA2):
        d = field.degree
        for _ in range(20):
            a = field.element([rng.randint(-9, 9) for _ in range(d)])
            b = field.element([rng.randint(-9, 9) for _ in range(d)])
            prod = field.element_mul(a, b)
            iva, ivb = field.eval_interval(a, 80), field.eval_interval(b, 80)
            ivp = field.eval_interval(prod, 80)
            # the true value of a*b lies in both enclosures, so they overlap
            both = iva * ivb
            assert ivp.lo <= both.hi and both.lo <= ivp.hi


def test_eval_interval_against_mpmath() -> None:
    # numeric cross-check with an independent 120-digit evaluation
    mpmath.mp.dps = 120
    theta = mpmath.findroot(lambda x: x**2 - x - 1, 1.6)
    e = GOLDEN.element((-3, 7))
    iv = GOLDEN.eval_interval(e, 200)
    val = -3 + 7 * theta
    assert mpmath.mpf(iv.lo.numerator) / iv.lo.denominator <= val
    assert mpmath.mpf(iv.hi.numerator) / iv.hi.denominator >= val


CATALOG_FIELDS = [NumberField.from_poly(e.poly) for e in load_catalog()]
COORD = st.one_of(
    st.integers(-(2**40), 2**40),
    st.fractions(-(10**6), 10**6, max_denominator=1000),
)


def _powers_by_mul(field: NumberField, count: int) -> list[FieldElement]:
    acc, out = field.one(), []
    for _ in range(count):
        out.append(acc)
        acc = field.element_mul(acc, field.theta())
    return out


# every catalog field and a degree-1 field, whose theta is the integer 2
POWER_FIELDS = CATALOG_FIELDS + [NumberField.from_poly([-2, 1])]
POWERS_BY_MUL = [_powers_by_mul(f, 121) for f in POWER_FIELDS]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, len(POWER_FIELDS) - 1), st.lists(st.integers(0, 120), max_size=8))
def test_theta_power_matches_repeated_multiplication_in_any_order(i, ns) -> None:
    # a fresh field on the same certificate, asked for powers out of order
    field = NumberField(POWER_FIELDS[i].min_poly, POWER_FIELDS[i].certificate)
    for n in ns + [120]:
        assert field.theta_power(n) == POWERS_BY_MUL[i][n]


# From 16 bits on, every catalog theta enclosure has dyadic endpoints (the
# certificate's own endpoints are bisected away first), which the mantissa
# grid holds exactly; the bound below rests on that.
@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(CATALOG_FIELDS), st.lists(COORD, min_size=6, max_size=6),
       st.integers(16, 1024))
def test_eval_interval_contains_exact_horner(field, coords, bits) -> None:
    a = field.element(coords[: field.degree])
    assume(not a.is_rational)
    tv = field.theta_enclosure(bits)
    exact = RatInterval.point(a.coords[-1])
    for c in reversed(a.coords[:-1]):
        exact = (exact * tv).shift(c)
    got = field.eval_interval(a, bits)
    assert got.lo <= exact.lo and exact.hi <= got.hi
    assert got.width - exact.width <= Fraction(1, 1 << bits)


def test_nearest_integer_golden_powers() -> None:
    # [phi^n] follows the Lucas numbers from n=2
    lucas = [2, 1, 3, 4, 7, 11, 18, 29, 47, 76, 123]
    for n in range(2, 11):
        assert GOLDEN.nearest_integer(GOLDEN.theta_power(n)) == lucas[n]


def test_nearest_integer_rational_elements() -> None:
    assert GOLDEN.nearest_integer(GOLDEN.constant(Fraction(7, 3))) == 2
    assert GOLDEN.nearest_integer(GOLDEN.constant(Fraction(-7, 3))) == -2
    assert GOLDEN.nearest_integer(GOLDEN.constant(5)) == 5


def test_nearest_integer_half_integer_raises() -> None:
    with pytest.raises(ExactHalfInteger):
        GOLDEN.nearest_integer(GOLDEN.constant(Fraction(7, 2)))
    with pytest.raises(ExactHalfInteger):
        GOLDEN.nearest_integer(GOLDEN.constant(Fraction(-1, 2)))


def test_round_with_enclosure_certifies() -> None:
    e = DELTA2.element((0, 0, 0, 1))
    z, enc, bits = DELTA2.round_with_enclosure(e)
    assert enc.lo > z - Fraction(1, 2)
    assert enc.hi < z + Fraction(1, 2)
    assert bits > 0
    # theta^3 for root 1.90516... is 6.9146 -> nearest 7
    assert z == 7


def test_rounding_random_elements_against_direct_eval() -> None:
    # same spirit as the acceptance gate, small and fast: random elements,
    # nearest integer checked against a high-precision direct evaluation
    rng = random.Random(31)
    mpmath.mp.dps = 80
    roots = {
        id(GOLDEN): mpmath.findroot(lambda x: x**2 - x - 1, 1.6),
        id(PLASTIC): mpmath.findroot(lambda x: x**3 - x - 1, 1.3),
    }
    for field in (GOLDEN, PLASTIC):
        theta = roots[id(field)]
        for _ in range(60):
            coords = [rng.randint(-50, 50) for _ in range(field.degree)]
            val = sum(c * theta**i for i, c in enumerate(coords))
            want = int(mpmath.nint(val))
            got = field.nearest_integer(field.element(coords))
            assert got == want


def test_degree_one_field() -> None:
    f = NumberField.from_poly([-4, 1])
    t = f.theta()
    assert t.is_rational and t.rational_value == 4
    assert f.nearest_integer(f.theta_power(3)) == 64


def test_shift_constant() -> None:
    e = GOLDEN.theta().shift_constant(-2)
    assert e.coords == (-2, 1)
