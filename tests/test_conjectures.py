from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pisotlab.conjectures import (
    MIN_BRANCH_RUN,
    MIN_CONSTANT_RUN,
    BranchVerdict,
    ConstantVerdict,
    _classify_branch,
    alpha_expectations,
    beta_expectations,
    centered_residue,
    congruence_scan,
    constant_detect,
    convergence_check,
    heart_expectations,
    run_suite,
)
import pisotlab.conjectures
import pisotlab.field
import pisotlab.transform
from pisotlab.catalog import load_catalog
from pisotlab.errors import InvalidParameters, PrecisionExhausted, RecurrenceUnavailable
from pisotlab.field import NumberField
from pisotlab.poly import IntPolynomial, PairRelation, SymmetryClass, alpha_poly
from pisotlab.primes import primes_between
from pisotlab.recurrence import Recurrence
from pisotlab.transform import EXPONENT_LIMIT, build_table, frac_magnitudes

GOLDEN = NumberField.from_poly([-1, -1, 1])
PLASTIC = NumberField.from_poly([-1, -1, 0, 1])
DELTA2 = NumberField.from_poly([1, 0, -2, -1, 1])


def test_centered_residue_range() -> None:
    for p in (2, 3, 5, 13):
        for v in range(-3 * p, 3 * p + 1):
            c = centered_residue(v, p)
            assert -p / 2 < c <= p / 2
            assert (v - c) % p == 0
    assert centered_residue(6, 4) == 2  # upper boundary goes positive
    assert centered_residue(7, 13) == -6


def test_branch_verdict_matching() -> None:
    assert BranchVerdict("zero", 0, 2).matches(0)
    assert BranchVerdict("minus_one", -1, 3).matches(-1)
    assert BranchVerdict("other", 7, 17).matches(7)
    assert not BranchVerdict("plus_one", 1, 2).matches(-1)
    assert not BranchVerdict("mixed", None, None).matches(0)


def test_congruence_scan_golden_lucas() -> None:
    # [phi^p] = L_p = 1 (mod p): centered residue +1 at every prime
    rep = congruence_scan(GOLDEN, 0, 2, 97)
    assert list(rep.primes) == primes_between(2, 97)
    assert rep.branch.kind == "plus_one"
    assert rep.branch.onset_prime == 2
    assert all(rep.centered[p] == 1 for p in rep.primes)
    assert "recurrence_extended" not in rep.method.values()


def test_congruence_scan_sieves_once(monkeypatch) -> None:
    sieves = []
    inner = pisotlab.conjectures.primes_between
    monkeypatch.setattr(
        pisotlab.conjectures, "primes_between", lambda lo, hi: sieves.append(hi) or inner(lo, hi)
    )
    assert congruence_scan(GOLDEN, 0, 2, 97).primes == tuple(primes_between(2, 97))
    assert sieves == [97]


def test_a_suite_reads_failed_cells_from_its_table(monkeypatch) -> None:
    # at a 100-bit cap atypical's columns 61..97 fail at level 0: each
    # level's scan raises the failure the table recorded for column 61
    # instead of rounding the column again, up to the cap
    monkeypatch.setattr(pisotlab.field, "CAP_BITS", 100)
    columns = []
    inner = pisotlab.conjectures.iterate_column
    monkeypatch.setattr(
        pisotlab.conjectures, "iterate_column", lambda f, n, k: columns.append(n) or inner(f, n, k)
    )
    field = NumberField.from_poly(load_catalog().get("atypical").poly)
    suite = run_suite(field, p_hi=97)
    assert columns == []
    failure = suite.table_failures[(0, 61)]
    assert [rep.congruence_error for rep in suite.levels] == [
        "PrecisionExhausted: cell (level %d, n 61) unavailable: %s" % (k, failure)
        for k in range(6)
    ]


def test_congruence_scan_plastic_perrin() -> None:
    # level 0 of the plastic field: the Perrin divisibility p | P_p
    rep = congruence_scan(PLASTIC, 0, 7, 97)
    assert rep.branch.kind == "zero"
    assert all(rep.centered[p] == 0 for p in rep.primes)


def test_congruence_scan_recurrence_extension() -> None:
    # force the recurrence path by lowering the exact cutoff; the column
    # starts [2, 3, 4, 7, ...] and satisfies the Lucas relation only from
    # its second entry, hence onset 1
    rec = Recurrence(order=2, coeffs=(1, 1), onset=1)
    rep = congruence_scan(GOLDEN, 0, 2, 97, exact_limit=30, recurrence=rec)
    assert rep.branch.kind == "plus_one"
    assert rep.method[29] == "exact"
    assert rep.method[31] == "recurrence_extended"
    assert "recurrence_extended" in rep.method.values()
    # the two methods must agree wherever both can run
    full = congruence_scan(GOLDEN, 0, 2, 97)
    assert full.centered == rep.centered


@pytest.mark.parametrize("field", [PLASTIC, DELTA2], ids=["plastic", "delta2"])
def test_congruence_scan_column_matches_table(field) -> None:
    # without a table every residue comes from a directly stepped column
    table = build_table(field, field.degree - 1, 1, 97)
    for level in range(field.degree):
        backed = congruence_scan(field, level, 2, 97, table=table)
        direct = congruence_scan(field, level, 2, 97)
        assert direct.residues == backed.residues
        assert direct.branch == backed.branch


def test_congruence_scan_exact_before_recurrence_onset() -> None:
    # the recurrence is not claimed before its onset (exponent 41 here), so
    # primes there are evaluated exactly even past exact_limit
    rec = Recurrence(order=2, coeffs=(1, 1), onset=40)
    rep = congruence_scan(GOLDEN, 0, 2, 97, exact_limit=10, recurrence=rec)
    assert {p for p in rep.primes if rep.method[p] == "exact"} == set(
        primes_between(2, 37)
    )
    assert {p for p in rep.primes if rep.method[p] == "recurrence_extended"} == set(
        primes_between(41, 97)
    )
    assert rep.residues == congruence_scan(GOLDEN, 0, 2, 97).residues


def test_congruence_scan_needs_recurrence_beyond_limit() -> None:
    with pytest.raises(RecurrenceUnavailable):
        congruence_scan(GOLDEN, 0, 2, 97, exact_limit=10)


def test_congruence_scan_bad_range() -> None:
    with pytest.raises(InvalidParameters):
        congruence_scan(GOLDEN, 0, 50, 10)


def test_congruence_scan_refuses_a_range_without_primes() -> None:
    # 24..28 holds no prime, and a scan of no prime has no branch
    with pytest.raises(InvalidParameters, match="^no prime in the range 24..28$"):
        congruence_scan(GOLDEN, 0, 24, 28)
    assert congruence_scan(GOLDEN, 0, 23, 23).primes == (23,)


def test_congruence_scan_exact_range_is_bounded() -> None:
    # the exact range is min(p_hi, exact_limit), so either one may pass the bound
    top = EXPONENT_LIMIT
    rep = congruence_scan(GOLDEN, 0, top - 100, top, exact_limit=top + 1)
    assert set(rep.method.values()) == {"exact"}
    assert rep.primes == tuple(primes_between(top - 100, top))
    assert congruence_scan(GOLDEN, 0, 2, 97, exact_limit=10**9).branch.value == 1
    with pytest.raises(InvalidParameters, match="exponents run up to"):
        congruence_scan(GOLDEN, 0, top - 100, top + 1, exact_limit=top + 1)


def test_constant_detect_golden_alternating() -> None:
    table = build_table(GOLDEN, 1, 1, 40)
    v = constant_detect(table, 1)
    assert v.kind == "alt_odd_plus"
    assert v.onset == 2
    assert v.exact


def test_constant_detect_plus_one_plastic() -> None:
    table = build_table(PLASTIC, 2, 1, 60)
    v = constant_detect(table, 2)
    assert v.kind == "plus_one"
    assert v.onset == 10
    # the level-2 iterates land exactly on 1 (theta^n * frac collapses into
    # the integer ring), so the whole tail is exact
    assert v.exact


def test_constant_detect_minus_one_delta2() -> None:
    table = build_table(DELTA2, 3, 1, 60)
    v = constant_detect(table, 3)
    assert v.kind == "minus_one"
    assert v.onset == 9


def test_constant_detect_none_on_growing_row() -> None:
    table = build_table(GOLDEN, 0, 1, 30)
    v = constant_detect(table, 0)
    assert v.kind == "none"
    assert v.onset is None


def test_convergence_golden_level0_plateau_then_onset() -> None:
    table = build_table(GOLDEN, 1, 1, 40)
    rep = convergence_check(table, 0)
    # 2 - phi equals phi^2 - 3 exactly, so n=1 is a recorded plateau and the
    # certified strict decrease starts at n=2
    assert rep.onset == 2
    assert [(v.n, v.kind) for v in rep.violations] == [(1, "plateau")]
    assert rep.zero_tail_from is None


def test_convergence_golden_level1_zero_tail() -> None:
    table = build_table(GOLDEN, 1, 1, 40)
    rep = convergence_check(table, 1)
    # all-zero from n=2: the plateaus live inside the terminal zero tail and
    # do not block convergence
    assert rep.onset == 1
    assert rep.zero_tail_from == 2
    assert all(v.kind == "plateau" for v in rep.violations)


def test_convergence_plastic_level0_no_onset() -> None:
    # the complex conjugate pair (modulus 0.868, irrational argument) makes
    # |frac(theta^n)| oscillate: genuine increases recur through the whole
    # window (cross-checked against direct 120-digit evaluation at n=78..80),
    # so no strict-decrease onset exists; they must be reported, not
    # silently absorbed
    table = build_table(PLASTIC, 0, 1, 80)
    rep = convergence_check(table, 0)
    assert rep.onset is None
    kinds = {v.kind for v in rep.violations}
    assert "increase" in kinds
    assert max(v.n for v in rep.violations if v.kind == "increase") == 79


def test_convergence_error_quotes_the_cap_frac_magnitudes_used(monkeypatch) -> None:
    # transform holds the only binding of the cap, so patching it there
    # changes both the comparisons and the message
    assert not hasattr(pisotlab.conjectures, "COMPARATOR_CAP_BITS")
    monkeypatch.setattr(pisotlab.transform, "COMPARATOR_CAP_BITS", 64)
    table = build_table(NumberField.from_poly([-1, -2, 1]), 0, 1, 104)
    with pytest.raises(PrecisionExhausted) as info:
        convergence_check(table, 0)
    assert str(info.value) == (
        "magnitude pairs [(101, 102), (102, 103), (103, 104)] undecided at 64 bits"
    )


def _reference_convergence(row):
    """convergence_check's verdict by the earlier rule: every blocking index
    kept in a list that only max reads, and a plateau let through only when
    it lies in the zero tail and is exactly zero on both sides."""
    entries = row.entries
    zero_tail_from = None
    for e in reversed(entries):
        if not e.exact_zero:
            break
        zero_tail_from = e.n
    violations, blocking = [], []
    for i, status in enumerate(row.pair_order):
        a, b = entries[i], entries[i + 1]
        if status == "gt":
            continue
        if status == "eq":
            violations.append((a.n, "plateau"))
            both_zero = a.exact_zero and b.exact_zero
            in_zero_tail = zero_tail_from is not None and a.n >= zero_tail_from
            if not (both_zero and in_zero_tail):
                blocking.append(a.n)
            continue
        kind = "resurgence" if a.exact_zero and not b.exact_zero else "increase"
        violations.append((a.n, kind))
        blocking.append(a.n)
    n_lo, n_hi = entries[0].n, entries[-1].n
    onset = n_lo
    if blocking:
        onset = max(blocking) + 1 if max(blocking) + 1 < n_hi else None
    return n_lo, n_hi, onset, violations, zero_tail_from


@pytest.mark.parametrize("n_hi", [40, 80, 150])
def test_convergence_check_matches_the_blocking_list_rule(n_hi) -> None:
    seen = set()
    for entry in load_catalog():
        field = NumberField.from_poly(entry.poly)
        table = build_table(field, field.degree - 1, 1, n_hi)
        for k in range(field.degree):
            rep = convergence_check(table, k)
            got = (
                rep.n_lo, rep.n_hi, rep.onset,
                [(v.n, v.kind) for v in rep.violations], rep.zero_tail_from,
            )
            assert got == _reference_convergence(frac_magnitudes(table, k)), (entry.name, k)
            plateaus = [v.n for v in rep.violations if v.kind == "plateau"]
            tail = rep.zero_tail_from
            if tail is not None and any(n >= tail for n in plateaus):
                seen.add("plateau in a zero tail")
            if any(tail is None or n < tail for n in plateaus):
                seen.add("plateau that blocks")
            seen.add("onset" if rep.onset is not None else "no onset")
    # the rows exercise both plateau rules and both verdicts
    assert seen == {"plateau in a zero tail", "plateau that blocks", "onset", "no onset"}


def test_alpha_expectation_structure() -> None:
    exp = alpha_expectations(4)
    by_level = {e.level: e for e in exp.levels}
    assert by_level[0].congruence == 2
    assert by_level[1].congruence == 0
    assert by_level[2].congruence == 0
    assert by_level[3].congruence == -1
    assert by_level[4].constant == ("plus_one",)
    odd = alpha_expectations(3)
    assert {e.level: e for e in odd.levels}[3].constant == ("alt_odd_plus",)


def test_beta_expectation_structure() -> None:
    exp = beta_expectations(3)
    by_level = {e.level: e for e in exp.levels}
    for k in range(3):
        assert by_level[k].congruence == 1
    assert by_level[3].constant == ("alt_odd_plus",)


def test_heart_expectation_structure() -> None:
    exp = heart_expectations(5, 4)
    by_level = {e.level: e for e in exp.levels}
    assert by_level[0].congruence == 5
    assert by_level[1].congruence == 0
    assert by_level[2].congruence == 0
    assert by_level[3].congruence == -1
    assert set(by_level[4].constant) == {"plus_one", "alt_odd_plus"}


def test_run_suite_golden_levels_and_recurrences() -> None:
    suite = run_suite(GOLDEN, p_hi=47)
    assert suite.k_max == 1
    lvl0 = suite.level_report(0)
    assert lvl0.recurrence is not None
    assert tuple(lvl0.recurrence.coeffs) == (1, 1)
    assert lvl0.characteristic == IntPolynomial.from_coeffs([-1, -1, 1])
    assert lvl0.congruence is not None and lvl0.congruence.branch.kind == "plus_one"
    lvl1 = suite.level_report(1)
    assert lvl1.constant is not None and lvl1.constant.kind == "alt_odd_plus"


def test_run_suite_records_detection_errors_on_short_rows() -> None:
    # run_suite has no length gate of its own: a short row records what
    # detect_recurrence says about it
    five = run_suite(GOLDEN, p_hi=5, n_hi=5)
    assert [rep.recurrence_error for rep in five.levels] == [
        "sequence of length 5 is too short"
    ] * 2
    assert all(rep.recurrence is None for rep in five.levels)
    seven = run_suite(GOLDEN, p_hi=7, n_hi=7)
    assert seven.level_report(0).recurrence_error == (
        "no linear recurrence of order <= 1 fits the sequence tail"
    )
    # level 1 is -1, -1, 1, -1, ...: its last five terms fit order 1
    lvl1 = seven.level_report(1)
    assert lvl1.recurrence_error is None and lvl1.recurrence.coeffs == (-1,)


def test_run_suite_grading_pass_and_fail() -> None:
    from pisotlab.conjectures import ExpectationSet, LevelExpectation

    good = ExpectationSet(
        "golden", (LevelExpectation(0, congruence=1, max_onset_prime=2),)
    )
    bad = ExpectationSet(
        "golden", (LevelExpectation(0, congruence=-1, max_onset_prime=2),)
    )
    ok = run_suite(GOLDEN, good, p_hi=31)
    assert ok.passed
    not_ok = run_suite(GOLDEN, bad, p_hi=31)
    assert not not_ok.passed
    assert [o.passed for o in not_ok.outcomes] == [False]
    # a failed grade is an outcome, never an exception


def test_run_suite_delta2_pair_audit() -> None:
    suite = run_suite(DELTA2, p_hi=31)
    assert [(a.level_a, a.level_b) for a in suite.pair_audits] == [(3, 3)]
    assert suite.pair_audits[0].relation is PairRelation.ANTI_RECIPROCAL
    lvl3 = suite.level_report(3)
    assert lvl3.symmetry is SymmetryClass.ANTI_PALINDROMIC


def test_run_suite_second_smallest_pair_audit() -> None:
    field = NumberField.from_poly([-1, 0, 0, -1, 1])
    suite = run_suite(field, p_hi=31)
    assert [(a.level_a, a.level_b) for a in suite.pair_audits] == [(3, 3)]
    assert suite.pair_audits[0].relation is PairRelation.RECIPROCAL
    assert suite.level_report(3).symmetry is SymmetryClass.PALINDROMIC


def test_run_suite_convergence_toggle() -> None:
    off = run_suite(GOLDEN, p_hi=13)
    assert all(rep.convergence is None for rep in off.levels)
    on = run_suite(GOLDEN, p_hi=13, include_convergence=True)
    assert on.level_report(0).convergence is not None


def test_alpha2_suite_middle_level_zero_branch() -> None:
    field = NumberField.from_poly(alpha_poly(2))
    suite = run_suite(field, alpha_expectations(2, max_onset_prime=13), p_hi=47)
    assert suite.passed
    lvl1 = suite.level_report(1)
    assert lvl1.congruence is not None
    assert lvl1.congruence.branch.kind == "minus_one"


# -- the tail scans against the per-pattern code they replaced ----------------


def _reference_branch(primes, centered) -> BranchVerdict:
    if not primes:
        return BranchVerdict("mixed")
    tail_value = centered[primes[-1]]
    start = len(primes) - 1
    while start > 0 and centered[primes[start - 1]] == tail_value:
        start -= 1
    if len(primes) - start < MIN_BRANCH_RUN:
        return BranchVerdict("mixed")
    if tail_value == 0:
        kind = "zero"
    elif tail_value == 1:
        kind = "plus_one"
    elif tail_value == -1:
        kind = "minus_one"
    else:
        kind = "other"
    return BranchVerdict(kind, tail_value, primes[start])


_REFERENCE_PATTERNS = {
    "plus_one": lambda n: 1,
    "minus_one": lambda n: -1,
    "alt_odd_plus": lambda n: 1 if n % 2 else -1,
    "alt_odd_minus": lambda n: -1 if n % 2 else 1,
}


def _reference_constant(table, level: int) -> ConstantVerdict:
    n_lo, values = table.u_sequence(level)
    if not values:
        return ConstantVerdict("none")
    n_end = n_lo + len(values) - 1
    best_kind, best_onset = "none", None
    for kind, pattern in _REFERENCE_PATTERNS.items():
        onset = None
        for n in range(n_end, n_lo - 1, -1):
            if values[n - n_lo] == pattern(n):
                onset = n
            else:
                break
        if onset is None or n_end - onset + 1 < MIN_CONSTANT_RUN:
            continue
        if best_onset is None or onset < best_onset:
            best_kind, best_onset = kind, onset
    if best_onset is None:
        return ConstantVerdict("none")
    exact = all(table.cell(level, n).exact_zero for n in range(best_onset, n_end + 1))
    return ConstantVerdict(best_kind, best_onset, n_end - best_onset + 1, exact)


class _RowTable:
    """The two table methods the tail scans read, over one given row."""

    def __init__(self, n_lo: int, values: list[int], exact: list[bool]):
        self.n_lo, self.values, self.exact = n_lo, values, exact

    def u_sequence(self, level: int):
        return self.n_lo, list(self.values)

    def cell(self, level: int, n: int):
        return SimpleNamespace(exact_zero=self.exact[n - self.n_lo])


@st.composite
def _rows(draw):
    """Rows over -2..2 of length 0..12, often ending in a constant or
    alternating run so that every verdict kind is drawn, with exact-zero
    flags that are often all true at the end."""
    row = draw(st.lists(st.integers(-2, 2), max_size=12))
    value = draw(st.integers(-2, 2))
    flip = draw(st.booleans())
    row += [value * (-1) ** i if flip else value for i in range(draw(st.integers(0, 12)))]
    row = row[-12:]
    exact = draw(st.lists(st.booleans(), min_size=len(row), max_size=len(row)))
    exact_tail = draw(st.integers(0, 12))
    exact = exact[: max(0, len(row) - exact_tail)] + [True] * min(len(row), exact_tail)
    return draw(st.integers(1, 6)), row, exact


@settings(max_examples=600, deadline=None, derandomize=True)
@given(_rows())
def test_constant_detect_matches_reference(drawn) -> None:
    table = _RowTable(*drawn)
    assert constant_detect(table, 0) == _reference_constant(table, 0)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(_rows())
def test_classify_branch_matches_reference(drawn) -> None:
    _, row, _ = drawn
    primes = tuple(primes_between(2, 40))[: len(row)]
    centered = dict(zip(primes, row))
    assert _classify_branch(primes, centered) == _reference_branch(primes, centered)
