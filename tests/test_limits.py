from __future__ import annotations

from fractions import Fraction

import pytest

import pisotlab.certify
import pisotlab.limits
from pisotlab.certify import Verdict, certify_pisot, prove_pisot, sign_at
from pisotlab.conjectures import heart_expectations, run_suite
from pisotlab.errors import InvalidParameters, NoRootInInterval, NotPisot, ResidualTooLarge
from pisotlab.field import NumberField
from pisotlab.limits import (
    IDENTITY_KINDS,
    LogEquationSpec,
    ordering_check,
    solve_log_equation,
    verify_identity,
)
from pisotlab.poly import DEGREE_LIMIT, IntPolynomial, alpha_poly, poly_from_terms

TIGHT = Fraction(1, 10**30)


def test_spec_validation() -> None:
    with pytest.raises(InvalidParameters):
        LogEquationSpec("diamond", 2, 1)
    with pytest.raises(InvalidParameters):
        LogEquationSpec("club", 1, 1)
    with pytest.raises(InvalidParameters):
        LogEquationSpec("club", 2, 0)
    with pytest.raises(InvalidParameters):
        LogEquationSpec("heart", 3, 2)          # missing l
    with pytest.raises(InvalidParameters):
        LogEquationSpec("heart", 3, 2, 3)       # l must stay below m
    with pytest.raises(InvalidParameters):
        LogEquationSpec("spade", 2, 1, 1)       # no l outside heart


def test_zero_precision_rejected() -> None:
    # precision doubling from 0 bits would never terminate
    with pytest.raises(InvalidParameters):
        ordering_check(8, 0)


def test_spec_polynomial_and_window() -> None:
    # club x^(n+1) - m x^n + 1, heart x^(n+1) - m x^n + x - m + l
    club = LogEquationSpec("club", 3, 4)
    assert club.polynomial() == poly_from_terms([(5, 1), (4, -3), (0, 1)])
    assert club.root_window == (2, 3)
    spade = LogEquationSpec("spade", 2, 3)
    assert spade.root_window == (2, 3)
    heart = LogEquationSpec("heart", 4, 2, 3)
    assert heart.polynomial() == poly_from_terms([(3, 1), (2, -4), (1, 1), (0, -1)])
    assert heart.root_window == (3, 4)


def test_generalized_check_m_minus_l_two_fails_top_level() -> None:
    # heart(3, 2, 1): theta ~ 2.89; the top iterate row grows like
    # (m - l)^n = 2^n instead of settling at +-1, so the constant-tail
    # expectation must be reported as failed -- honestly, not silently
    spec = LogEquationSpec("heart", 3, 2, 1)
    sol = solve_log_equation(spec)
    rep = run_suite(
        NumberField(sol.poly, sol.certificate),
        heart_expectations(spec.m, spec.n),
        p_hi=31,
    )
    assert not rep.passed
    failed = [o for o in rep.outcomes if not o.passed]
    assert failed
    assert all(o.aspect == "constant" for o in failed)
    # the congruence part of the pattern still holds
    cong = [o for o in rep.outcomes if o.aspect == "congruence"]
    assert cong and all(o.passed for o in cong)


def test_solve_heart_21_matches_alpha_family() -> None:
    for n in range(1, 5):
        sol = solve_log_equation(LogEquationSpec("heart", 2, n, 1))
        assert sol.poly == alpha_poly(n)
        assert sol.certificate.verdict is Verdict.PISOT


def test_solver_takes_its_verdict_from_the_disk_count(monkeypatch) -> None:
    # every spec with m <= 7, n <= 8 is proved without sympy's isolation and
    # without the mpmath log gate of the identities
    def no_isolation(p):
        raise AssertionError("sympy isolation ran on %s" % p)

    def no_log_gate(*args):
        raise AssertionError("the mpmath log gate ran")

    monkeypatch.setattr(pisotlab.certify, "_sympy_poly", no_isolation)
    monkeypatch.setattr(pisotlab.limits, "_log_ratio", no_log_gate)
    solved = 0
    for m in range(2, 8):
        for n in range(1, 9):
            specs = [LogEquationSpec("club", m, n), LogEquationSpec("spade", m, n)]
            specs += [LogEquationSpec("heart", m, n, l) for l in range(1, m)]
            for spec in specs:
                if (spec.family, spec.m, spec.n) == ("club", 2, 1):
                    continue  # collapses to a constant
                sol = solve_log_equation(spec)
                assert sol.certificate == prove_pisot(sol.poly)
                lo, hi = spec.root_window
                assert lo < sol.root.lo and sol.root.hi < hi
                solved += 1
    assert solved == 263


def test_solve_spade_23() -> None:
    sol = solve_log_equation(LogEquationSpec("spade", 2, 3))
    assert sol.poly == IntPolynomial.from_coeffs([-1, 0, 0, -2, 1])
    assert sol.unit_root_multiplicity == 0
    assert sol.root.lo > 2 and sol.root.hi < 3


def test_wrong_polynomial_fails_the_identity(monkeypatch) -> None:
    # heart(3, 2, 1)'s polynomial has its root in club(3, 2)'s window ]2, 3[
    # and is Pisot, but (3 - theta) theta^2 = theta - 2 there, not 1
    heart = LogEquationSpec("heart", 3, 2, 1).polynomial()
    monkeypatch.setattr(LogEquationSpec, "polynomial", lambda self: heart)
    with pytest.raises(ResidualTooLarge, match=r"^club\(m=3,n=2\): "):
        solve_log_equation(LogEquationSpec("club", 3, 2))


def test_non_pisot_root_is_refused_by_the_field(monkeypatch) -> None:
    # x^2 - 5 has its root sqrt(5) in club(3, 2)'s window ]2, 3[, and its
    # conjugate -sqrt(5) outside the unit disk; NumberField refuses it
    poly = IntPolynomial.from_coeffs([-5, 0, 1])
    monkeypatch.setattr(LogEquationSpec, "polynomial", lambda self: poly)
    with pytest.raises(NotPisot) as exc:
        solve_log_equation(LogEquationSpec("club", 3, 2))
    assert str(exc.value) == "x^2 - 5 failed certification: %s" % (
        certify_pisot(poly, enclosures=False).failure_reason
    )


def test_root_at_the_window_end_is_proved() -> None:
    # spade(1000, 26) has its root within 2^-200 of 1000: the enclosure's
    # lower end is the window end itself, yet the window signs are strict
    spec = LogEquationSpec("spade", 1000, 26)
    sol = solve_log_equation(spec)
    lo, hi = spec.root_window
    assert sol.root.lo == lo and sol.root.hi < hi
    assert sign_at(sol.poly, lo) < 0 < sign_at(sol.poly, hi)
    assert sol.certificate.verdict is Verdict.PISOT


def test_solve_club_22_strips_unit_root_to_golden() -> None:
    # x^3 - 2x^2 + 1 = (x - 1)(x^2 - x - 1): the certified survivor is the
    # golden ratio
    sol = solve_log_equation(LogEquationSpec("club", 2, 2))
    assert sol.unit_root_multiplicity == 1
    assert sol.poly == IntPolynomial.from_coeffs([-1, -1, 1])
    assert sol.root.lo > Fraction("1.61") and sol.root.hi < Fraction("1.62")


def test_solve_club_21_degenerates() -> None:
    # x^2 - 2x + 1 = (x - 1)^2 leaves nothing after unit-root removal
    with pytest.raises(NoRootInInterval):
        solve_log_equation(LogEquationSpec("club", 2, 1))


def test_solve_is_deterministic() -> None:
    a = solve_log_equation(LogEquationSpec("heart", 3, 3, 2))
    b = solve_log_equation(LogEquationSpec("heart", 3, 3, 2))
    assert a == b


@pytest.mark.parametrize("n", range(1, 7))
def test_identity_I_and_II(n: int) -> None:
    for kind in ("I", "II"):
        r = verify_identity(kind, n, 256)
        assert r.lo >= 0
        assert r.hi < Fraction(1, 10**40)


def test_identity_closed_forms() -> None:
    for kind in ("alpha2_pair", "alpha3_extra", "delta_prime"):
        r = verify_identity(kind, None, 256)
        assert r.hi < Fraction(1, 10**40)


def test_identity_kind_validation() -> None:
    assert set(IDENTITY_KINDS) == {"I", "II", "alpha2_pair", "alpha3_extra", "delta_prime"}
    with pytest.raises(InvalidParameters):
        verify_identity("III", 1)
    with pytest.raises(InvalidParameters):
        verify_identity("I", 1, precision_bits=32)


def test_ordering_chain_three() -> None:
    rep = ordering_check(3)
    labels = [e.label for e in rep.entries]
    assert labels == [
        "alpha_1=beta_1",
        "alpha_2",
        "beta_2",
        "alpha_3",
        "delta_prime_2",
        "beta_3",
    ]
    assert rep.merged_first_pair
    assert rep.strictly_increasing
    assert rep.all_below_two
    assert all(g > 0 for g in rep.gaps)


def test_ordering_chain_two_entries_no_delta() -> None:
    rep = ordering_check(2)
    assert [e.label for e in rep.entries] == ["alpha_1=beta_1", "alpha_2", "beta_2"]
    assert rep.strictly_increasing


def test_ordering_count_validation() -> None:
    with pytest.raises(InvalidParameters):
        ordering_check(1)


def test_degree_bound_is_inclusive() -> None:
    top = DEGREE_LIMIT
    assert LogEquationSpec("club", 3, top - 1).polynomial().degree == top
    assert ordering_check(top - 1).entries[-1].poly.degree == top
    # identity I at n is the club equation of exponent n + 1, of degree n + 2
    assert verify_identity("I", top - 2).hi < TIGHT
    assert verify_identity("II", top - 1).hi < TIGHT
    message = "^degree is at most %d, not %d$"
    for refuse, offset in (
        (lambda n: LogEquationSpec("heart", 3, n, 1), 1),
        (ordering_check, 1),
        (lambda n: verify_identity("I", n), 2),
        (lambda n: verify_identity("II", n), 1),
    ):
        # the first degree past the bound, and one far past it, refused
        # before anything of that size is built
        for n in (top + 1 - offset, 10**12):
            with pytest.raises(InvalidParameters, match=message % (top, n + offset)):
                refuse(n)
