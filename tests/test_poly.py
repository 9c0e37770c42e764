from __future__ import annotations

import random
from fractions import Fraction

import pytest

from pisotlab.errors import InvalidParameters, NonExactDivision
from pisotlab.limits import LogEquationSpec
from pisotlab.poly import (
    IntPolynomial,
    PairRelation,
    SymmetryClass,
    alpha_poly,
    beta_poly,
    classify_pair,
    classify_symmetry,
    delta2_poly,
    plastic_poly,
    poly_from_terms,
    strip_unit_root,
)


def test_construction_strips_leading_zeros() -> None:
    p = IntPolynomial.from_coeffs([1, 2, 0, 0])
    assert p.degree == 1
    assert p.coeffs == (1, 2)


def test_zero_polynomial_degree() -> None:
    assert IntPolynomial(()).degree == -1
    assert IntPolynomial(()).is_zero


def test_non_integer_coefficients_rejected() -> None:
    with pytest.raises(InvalidParameters):
        IntPolynomial((1, 2.5))  # type: ignore[arg-type]


@pytest.mark.parametrize("coeffs", [[-1.7, 1], [True, -3, 1], [-1, None, 1], ["1.0", 1], [" ", 1]])
def test_from_coeffs_refuses_what_is_not_an_integer(coeffs) -> None:
    # a float or a bool is refused, never truncated to x - 1 or x^2 - 3x + 1
    with pytest.raises(InvalidParameters, match=r"int\(\)"):
        IntPolynomial.from_coeffs(coeffs)


def test_from_coeffs_reads_ints_and_decimal_strings() -> None:
    assert IntPolynomial.from_coeffs(["-1", " -1 ", 1]).coeffs == (-1, -1, 1)
    assert IntPolynomial.from_coeffs([str(-(10**40)), "0", "1", "0"]).coeffs == (-(10**40), 0, 1)


def test_str_rendering() -> None:
    assert str(IntPolynomial.from_coeffs([-1, -1, 1])) == "x^2 - x - 1"
    assert str(IntPolynomial.from_coeffs([1, 0, -2, -1, 1])) == "x^4 - x^3 - 2x^2 + 1"


def test_evaluation_horner_matches_sum() -> None:
    rng = random.Random(11)
    for _ in range(50):
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 7))]
        p = IntPolynomial.from_coeffs(coeffs)
        x = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        direct = sum(c * x**i for i, c in enumerate(coeffs))
        assert p(x) == direct


def test_arithmetic_ring_axioms_spot_check() -> None:
    rng = random.Random(7)
    for _ in range(30):
        a = IntPolynomial.from_coeffs([rng.randint(-5, 5) for _ in range(4)])
        b = IntPolynomial.from_coeffs([rng.randint(-5, 5) for _ in range(4)])
        assert a * b == b * a
        for x in (-2, 3):
            assert (a * b)(x) == a(x) * b(x)


def test_exact_division_roundtrip() -> None:
    a = IntPolynomial.from_coeffs([-1, -1, 1])
    b = IntPolynomial.from_coeffs([2, 0, 3, 1])
    assert (a * b).exact_div(a) == b
    assert (a * b).exact_div(b) == a


def test_exact_division_rejects_remainder() -> None:
    num = IntPolynomial.from_coeffs([1, 1, 1])
    den = IntPolynomial.from_coeffs([1, 1])
    with pytest.raises(NonExactDivision):
        num.exact_div(den)


def test_poly_from_terms() -> None:
    # x^5 - 2x^4 + x - 1 given as sparse (exp, coeff) pairs
    p = poly_from_terms([(5, 1), (4, -2), (1, 1), (0, -1)])
    assert p.coeffs == (-1, 1, 0, 0, -2, 1)


def test_reverse() -> None:
    p = IntPolynomial.from_coeffs([1, 0, -2, -1, 1])
    assert p.reverse().coeffs == (1, -1, -2, 0, 1)


@pytest.mark.parametrize(
    "coeffs,expected",
    [
        ((1, 0, 1), SymmetryClass.PALINDROMIC),
        ((-1, 0, 1), SymmetryClass.ANTI_PALINDROMIC),
        ((-1, 1), SymmetryClass.ANTI_PALINDROMIC),
        ((1, 1), SymmetryClass.PALINDROMIC),
        ((-1, 3, 1), SymmetryClass.SEMI_PALINDROMIC),
        ((-1, 5, 0, 5, 1), SymmetryClass.SEMI_PALINDROMIC),
        ((1, 3, 2), SymmetryClass.NONE),
    ],
)
def test_classify_symmetry(coeffs, expected) -> None:
    assert classify_symmetry(IntPolynomial.from_coeffs(coeffs)) is expected


def test_classify_pair_reciprocal() -> None:
    p = IntPolynomial.from_coeffs([2, 3, 1])
    q = IntPolynomial.from_coeffs([1, 3, 2])
    assert classify_pair(p, q) is PairRelation.RECIPROCAL


def test_classify_pair_anti_reciprocal() -> None:
    p = IntPolynomial.from_coeffs([2, 3, 1])
    q = IntPolynomial.from_coeffs([-1, -3, -2])
    assert classify_pair(p, q) is PairRelation.ANTI_RECIPROCAL


def test_classify_pair_degree_mismatch() -> None:
    with pytest.raises(InvalidParameters, match="^degrees differ: 1 vs 2$"):
        classify_pair(
            IntPolynomial.from_coeffs([1, 1]),
            IntPolynomial.from_coeffs([1, 1, 1]),
        )


def test_symmetry_relations_under_reversal() -> None:
    # a palindromic polynomial is reciprocal with itself, an anti-palindromic
    # one anti-reciprocal with itself
    pal = IntPolynomial.from_coeffs([1, 3, 1])
    anti = IntPolynomial.from_coeffs([-1, 0, 1])
    assert classify_pair(pal, pal) is PairRelation.RECIPROCAL
    assert classify_pair(anti, anti) is PairRelation.ANTI_RECIPROCAL


@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_alpha_poly_shape(n: int) -> None:
    # x^(n+1) - 2x^n + x - 1
    p = alpha_poly(n)
    assert p.degree == n + 1
    assert p.leading == 1
    assert p.coeff(n) == -2
    assert p.coeff(1) == 1
    assert p.coeff(0) == -1


def test_alpha_poly_n1_collapses_to_golden() -> None:
    # at n=1 the x and -2x terms merge: x^2 - x - 1
    assert alpha_poly(1).coeffs == (-1, -1, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_beta_poly_is_quotient_by_x_minus_1(n: int) -> None:
    # (x - 1) * beta_n = x^(n+2) - 2x^(n+1) + 1
    lhs = IntPolynomial.from_coeffs([-1, 1]) * beta_poly(n)
    rhs = poly_from_terms([(n + 2, 1), (n + 1, -2), (0, 1)])
    assert lhs == rhs


def test_alpha1_equals_beta1() -> None:
    assert alpha_poly(1) == beta_poly(1)


def test_named_polys() -> None:
    assert delta2_poly().coeffs == (1, 0, -2, -1, 1)
    assert plastic_poly().coeffs == (-1, -1, 0, 1)


def test_family_poly_club() -> None:
    # x^(n+1) - m x^n + 1
    p = LogEquationSpec("club", 3, 4).polynomial()
    assert p == poly_from_terms([(5, 1), (4, -3), (0, 1)])


def test_family_poly_heart_reduces_to_alpha() -> None:
    for n in range(1, 6):
        assert LogEquationSpec("heart", 2, n, 1).polynomial() == alpha_poly(n)


def test_family_poly_spade() -> None:
    # x^(n+1) - m x^n - 1
    p = LogEquationSpec("spade", 2, 3).polynomial()
    assert p == poly_from_terms([(4, 1), (3, -2), (0, -1)])


def test_strip_unit_root_multiplicity() -> None:
    base = IntPolynomial.from_coeffs([-1, -1, 1])
    once = base * IntPolynomial.from_coeffs([-1, 1])
    twice = once * IntPolynomial.from_coeffs([-1, 1])
    q0, m0 = strip_unit_root(base)
    q1, m1 = strip_unit_root(once)
    q2, m2 = strip_unit_root(twice)
    assert (q0, m0) == (base, 0)
    assert (q1, m1) == (base, 1)
    assert (q2, m2) == (base, 2)


def test_strip_unit_root_on_degenerate_club() -> None:
    # club m=2, n=1 is x^2 - 2x + 1 = (x-1)^2: nothing survives removal
    p = IntPolynomial.from_coeffs([1, -2, 1])
    q, mult = strip_unit_root(p)
    assert mult == 2
    assert q == IntPolynomial.from_coeffs([1])

