from __future__ import annotations

import ast
import inspect
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pisotlab.field
import pisotlab.transform
from pisotlab.catalog import load_catalog
from pisotlab.errors import InvalidParameters
from pisotlab.field import NumberField
from pisotlab.intervals import DyadicInterval, RatInterval
from pisotlab.poly import IntPolynomial, alpha_poly, beta_poly

GOLDEN = NumberField.from_poly([-1, -1, 1])
PLASTIC = NumberField.from_poly([-1, -1, 0, 1])
DELTA2 = NumberField.from_poly([1, 0, -2, -1, 1])


def _rat(iv: DyadicInterval) -> RatInterval:
    """The same interval with Fraction endpoints."""
    return RatInterval(Fraction(iv.lo_man, 1 << iv.exp), Fraction(iv.hi_man, 1 << iv.exp))


def test_element_padding_and_rationality() -> None:
    e = GOLDEN.element((3,))
    assert e == (3, 0)
    assert not any(e[1:])
    assert any(GOLDEN.theta()[1:])


def test_from_poly_refuses_a_float_coefficient() -> None:
    # -3.9 is not truncated to -3, which built Q(3)
    with pytest.raises(InvalidParameters, match="not -3.9"):
        NumberField.from_poly([-3.9, 1])


def test_too_many_coordinates_rejected() -> None:
    with pytest.raises(InvalidParameters):
        GOLDEN.element((1, 2, 3))


def test_theta_satisfies_its_equation() -> None:
    for field in (GOLDEN, PLASTIC, DELTA2):
        t = field.theta()
        acc = field.one()
        total = (0,) * field.degree
        for c in field.min_poly.coeffs:
            total = tuple(s + c * x for s, x in zip(total, acc))
            acc = field.element_mul(acc, t)
        assert not any(total)


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
            iva, ivb = _rat(field.eval_interval(a, 80)), _rat(field.eval_interval(b, 80))
            ivp = _rat(field.eval_interval(prod, 80))
            # the true value of a*b lies in both enclosures, so they overlap
            both = iva * ivb
            assert ivp.lo <= both.hi and both.lo <= ivp.hi


def test_eval_interval_against_mpmath() -> None:
    # numeric cross-check with an independent 120-digit evaluation
    with mpmath.workdps(120):
        theta = mpmath.findroot(lambda x: x**2 - x - 1, 1.6)
        e = GOLDEN.element((-3, 7))
        iv = _rat(GOLDEN.eval_interval(e, 200))
        val = -3 + 7 * theta
        assert mpmath.mpf(iv.lo.numerator) / iv.lo.denominator <= val
        assert mpmath.mpf(iv.hi.numerator) / iv.hi.denominator >= val


CATALOG_FIELDS = [NumberField.from_poly(e.poly) for e in load_catalog()]
COORD = st.integers(-(2**40), 2**40)


def _powers_by_shift(field: NumberField, count: int) -> list[tuple[int, ...]]:
    """theta^0 .. theta^(count-1) by shift-and-fold, sharing no code with
    element_mul: shift the coordinates up one place and fold the top one
    back in by the minimal polynomial."""
    d, low = field.degree, field.min_poly.coeffs[: field.degree]
    acc = (1,) + (0,) * (d - 1)
    out = []
    for _ in range(count):
        out.append(acc)
        over, shifted = acc[-1], (0,) + acc[:-1]
        acc = tuple(s - over * a for s, a in zip(shifted, low))
    return out


# every catalog field and a degree-1 field, whose theta is the integer 2
POWER_FIELDS = CATALOG_FIELDS + [NumberField.from_poly([-2, 1])]
POWERS_BY_SHIFT = [_powers_by_shift(f, 121) for f in POWER_FIELDS]


def test_theta_power_matches_repeated_multiplication() -> None:
    # theta^n evaluated at an independent 60-digit mpmath root agrees with
    # mpmath's theta**n, relatively to 40 digits
    for field in POWER_FIELDS:
        with mpmath.workdps(60):
            coeffs = [mpmath.mpf(c) for c in reversed(field.min_poly.coeffs)]
            roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=200)
            theta = max(mpmath.re(r) for r in roots)
            for n in range(60):
                coords = field.theta_power(n)
                value = sum(c * theta**j for j, c in enumerate(coords))
                assert abs(value - theta**n) <= mpmath.mpf(10) ** -40 * theta**n, (field, n)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, len(POWER_FIELDS) - 1), st.lists(st.integers(0, 120), max_size=8))
def test_theta_power_matches_repeated_multiplication_in_any_order(i, ns) -> None:
    # a fresh field on the same certificate, asked for powers out of order
    field = NumberField(POWER_FIELDS[i].min_poly, POWER_FIELDS[i].certificate)
    for n in ns + [120]:
        assert field.theta_power(n) == POWERS_BY_SHIFT[i][n]


# the catalog and the first five points of both limit families
PRODUCT_FIELDS = CATALOG_FIELDS + [
    NumberField.from_poly(family(n)) for family in (alpha_poly, beta_poly) for n in range(1, 6)
]
BIG_COORDS = st.lists(st.integers(-(2**200), 2**200), min_size=6, max_size=6)


def _remainder(p: IntPolynomial, field: NumberField) -> tuple[int, ...]:
    """Coordinates of p(theta): the remainder of p by schoolbook long
    division by the monic minimal polynomial, zero-padded to the degree."""
    d, m = field.degree, field.min_poly.coeffs
    r = list(p.coeffs) + [0] * d
    for k in range(len(r) - 1, d - 1, -1):
        q = r[k]
        for j in range(d + 1):
            r[k - d + j] -= q * m[j]
    assert not any(r[d:])
    return tuple(r[:d])


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.integers(0, len(PRODUCT_FIELDS) - 1), BIG_COORDS, BIG_COORDS, st.integers(0, 60))
def test_products_are_exact_remainders_of_polynomial_products(i, xs, ys, n) -> None:
    field = PRODUCT_FIELDS[i]
    d = field.degree
    a, b = field.element(xs[:d]), field.element(ys[:d])
    product = IntPolynomial.from_coeffs(xs[:d]) * IntPolynomial.from_coeffs(ys[:d])
    assert field.element_mul(a, b) == _remainder(product, field)
    x_n = IntPolynomial.from_coeffs([0] * n + [1])
    assert field.theta_power(n) == _remainder(x_n, field)


# From 16 bits on, every catalog theta enclosure has dyadic endpoints (the
# certificate's own endpoints are bisected away first), which the mantissa
# grid holds exactly; the bound below rests on that.
@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(CATALOG_FIELDS), st.lists(COORD, min_size=6, max_size=6),
       st.integers(16, 1024))
def test_eval_interval_contains_exact_horner(field, coords, bits) -> None:
    a = field.element(coords[: field.degree])
    assume(any(a[1:]))
    tv = field.theta_enclosure(bits)
    exact = RatInterval.point(a[-1])
    for c in reversed(a[:-1]):
        exact = (exact * tv).shift(c)
    got = _rat(field.eval_interval(a, bits))
    assert got.lo <= exact.lo and exact.hi <= got.hi
    assert got.width - exact.width <= Fraction(1, 1 << bits)


def _reference_eval_interval(field: NumberField, a, bits: int) -> RatInterval:
    """eval_interval as it reads with no state kept between calls: the width
    as a Fraction, then the scale and both theta mantissas, on every call."""
    tv = field.theta_enclosure(bits)
    w = tv.width
    s = max(bits, w.denominator.bit_length() - w.numerator.bit_length()) + 8
    t_lo = (tv.lo.numerator << s) // tv.lo.denominator
    t_hi = -((-tv.hi.numerator << s) // tv.hi.denominator)
    lo = hi = a[-1] << s
    for c in reversed(a[:-1]):
        lo = ((lo * (t_lo if lo >= 0 else t_hi)) >> s) + (c << s)
        hi = -((-hi * (t_hi if hi >= 0 else t_lo)) >> s) + (c << s)
    return RatInterval(Fraction(lo, 1 << s), Fraction(hi, 1 << s))


def _assert_theta_bits(field: NumberField) -> None:
    # the largest b with width <= 2**-b
    w, b = field._theta_iv.width, field._theta_bits
    assert w <= Fraction(2) ** -b and w > Fraction(2) ** -(b + 1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, len(CATALOG_FIELDS) - 1), st.lists(COORD, min_size=6, max_size=6),
       st.lists(st.integers(1, 600), min_size=1, max_size=6))
def test_theta_state_kept_in_integers_matches_the_fraction_width(i, coords, bit_list) -> None:
    # a fresh field on the same certificate, asked at precisions in any order
    field = NumberField(CATALOG_FIELDS[i].min_poly, CATALOG_FIELDS[i].certificate)
    a = field.element(coords[: field.degree])
    assume(any(a[1:]))
    _assert_theta_bits(field)
    for bits in bit_list:
        assert _rat(field.eval_interval(a, bits)) == _reference_eval_interval(field, a, bits)
        _assert_theta_bits(field)


def test_a_point_theta_is_never_refined(monkeypatch) -> None:
    # a degree-1 certificate encloses its integer theta by a point, which is
    # as tight as any precision asks
    def refine(*args):
        raise AssertionError("theta refined on a point")

    monkeypatch.setattr(pisotlab.field, "refine_root", refine)
    monkeypatch.setattr(pisotlab.field, "newton_root", refine)
    field = NumberField.from_poly([-2, 1])
    assert field.theta_enclosure(1 << 20) == RatInterval.point(Fraction(2))


def test_nearest_integer_golden_powers() -> None:
    # [phi^n] follows the Lucas numbers from n=2
    lucas = [2, 1, 3, 4, 7, 11, 18, 29, 47, 76, 123]
    for n in range(2, 11):
        assert GOLDEN.round_with_enclosure(GOLDEN.theta_power(n))[0] == lucas[n]


def test_round_with_enclosure_certifies() -> None:
    e = DELTA2.element((0, 0, 0, 1))
    z, enc, bits = DELTA2.round_with_enclosure(e)
    enc = _rat(enc)
    assert enc.lo > z - Fraction(1, 2)
    assert enc.hi < z + Fraction(1, 2)
    assert bits > 0
    # theta^3 for root 1.90516... is 6.9146 -> nearest 7
    assert z == 7


def test_rounding_random_elements_against_direct_eval() -> None:
    # same spirit as the acceptance gate, small and fast: random elements,
    # nearest integer checked against a high-precision direct evaluation
    rng = random.Random(31)
    with mpmath.workdps(80):
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
                got = field.round_with_enclosure(field.element(coords))[0]
                assert got == want


def test_degree_one_field() -> None:
    f = NumberField.from_poly([-4, 1])
    t = f.theta()
    assert t == (4,)
    assert f.round_with_enclosure(f.theta_power(3))[0] == 64


def test_shift_constant() -> None:
    # the fractional element theta - 2 shifts only the constant coordinate
    assert pisotlab.transform._fractional(GOLDEN.theta(), 2) == (-2, 1)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(POWER_FIELDS), st.integers(-(10**30), 10**30))
def test_nearest_integer_rational_elements(field, v) -> None:
    # a rational element of Z[theta] is an integer, its own nearest, with
    # its point as enclosure at 0 bits
    z, enc, bits = field.round_with_enclosure(field.element((v,)))
    assert (z, _rat(enc), bits) == (v, RatInterval.point(Fraction(v)), 0)


def _rational_rounding_reference(v: int | Fraction) -> tuple[int, RatInterval, int]:
    """Rounding of a rational constant by rules of its own: an int is an
    element of Z[theta] and is itself at 0 bits; a Fraction, even a whole
    or half-integer one, is no coordinate and is refused."""
    if isinstance(v, int):
        return v, RatInterval.point(Fraction(v)), 0
    raise InvalidParameters(f"coordinate must be an int, got {v!r}")


def _outcome(call):
    try:
        return call()
    except InvalidParameters as exc:
        return type(exc), str(exc)


RATIONALS = st.one_of(
    st.integers(-(10**30), 10**30),
    st.integers(-(10**30), 10**30).map(Fraction),
    st.integers(-(10**30), 10**30).map(lambda k: Fraction(2 * k + 1, 2)),
    st.fractions(max_denominator=10**6),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(POWER_FIELDS), RATIONALS)
def test_rational_rounding_matches_the_rational_reference(field, v) -> None:
    def rounded():
        z, enc, bits = field.round_with_enclosure(field.element((v,)))
        return z, _rat(enc), bits

    got = _outcome(rounded)
    assert got == _outcome(lambda: _rational_rounding_reference(v))


def test_element_refuses_non_integer_coordinates() -> None:
    for c in (Fraction(7, 3), Fraction(7, 2), Fraction(-1, 2), Fraction(4, 2), 1.0, True, "3"):
        for coords in ((c,), (0, c)):
            with pytest.raises(InvalidParameters, match="coordinate must be an int"):
                GOLDEN.element(coords)


INTEGER_ELEMENTS = st.tuples(
    st.sampled_from(CATALOG_FIELDS),
    st.lists(st.one_of(st.just(0), st.integers(-(2**64), 2**64)), min_size=6, max_size=6),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(INTEGER_ELEMENTS)
def test_integer_coordinates_never_give_a_half_integer(drawn) -> None:
    # rational: an integer; irrational: theta has degree d, so the value is
    # no half-integer either, and the one integer test decides it
    field, coords = drawn
    a = field.element(coords[: field.degree])
    z, enclosure, bits = field.round_with_enclosure(a)
    enclosure = _rat(enclosure)
    assert enclosure.lo > z - Fraction(1, 2) and enclosure.hi < z + Fraction(1, 2)
    assert (bits == 0) == (not any(a[1:]))


def test_field_and_transform_import_nothing_from_fractions() -> None:
    # their enclosures are dyadic; theta's own RatInterval is read, not built
    for module in (pisotlab.field, pisotlab.transform):
        tree = ast.parse(inspect.getsource(module))
        imported = [
            alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names
        ] + [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        assert not [m for m in imported if m and m.split(".")[0] == "fractions"], module
