"""Empirical pattern scanners for iterate tables.

Four instruments, each producing a small report object:

* :func:`congruence_scan` -- residues of ``u^k_p`` modulo primes ``p``,
  classified into a stable branch (zero / +1 / -1 / other constant / mixed).
* :func:`constant_detect` -- eventual constant-or-alternating ``+-1`` tails
  of an integer-part row.
* :func:`convergence_check` -- strict decrease of the certified fractional
  magnitudes along a row, with violation bookkeeping.
* :func:`run_suite` -- orchestrates the above across every level of a table
  and grades the outcome against optional expected-pattern annotations.

Everything here is exact: residues come either from exact integer parts or
from the detected recurrence extended modulo ``p`` from exact initial terms
(the latter is flagged, since it silently assumes the detected recurrence
keeps holding past the exact window).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import (
    ExactHalfInteger,
    IncomparableMagnitudes,
    InvalidParameters,
    NoRecurrenceFound,
    PrecisionExhausted,
    RecurrenceUnavailable,
)
from .field import NumberField
from .poly import IntPolynomial, PairRelation, SymmetryClass, classify_pair, classify_symmetry
from .primes import primes_between
from .recurrence import (
    Recurrence,
    characteristic_of,
    detect_recurrence,
    modular_extend,
)
from .transform import (
    COMPARATOR_CAP_BITS,
    IterateTable,
    build_table,
    frac_magnitudes,
    iterate_column,
)

__all__ = [
    "BranchVerdict",
    "CongruenceReport",
    "congruence_scan",
    "ConstantVerdict",
    "constant_detect",
    "MagnitudeViolation",
    "ConvergenceReport",
    "convergence_check",
    "LevelExpectation",
    "ExpectationSet",
    "ExpectationOutcome",
    "alpha_expectations",
    "beta_expectations",
    "heart_expectations",
    "LevelReport",
    "PairAudit",
    "SuiteReport",
    "run_suite",
]

EXACT_LIMIT_DEFAULT = 300
MIN_BRANCH_RUN = 5
MIN_CONSTANT_RUN = 5
SUITE_N_LO = 1  # suites tabulate exponents from 1

METHOD_EXACT = "exact"
METHOD_RECURRENCE = "recurrence_extended"


def centered_residue(value: int, p: int) -> int:
    """Residue of ``value`` mod ``p`` mapped into ``(-p/2, p/2]``."""
    r = value % p
    if 2 * r > p:
        r -= p
    return r


# ---------------------------------------------------------------------------
# congruence scan


@dataclass(frozen=True)
class BranchVerdict:
    """Stable residue branch of a prime scan.

    ``kind`` is one of ``zero``, ``plus_one``, ``minus_one``, ``other`` (some
    other constant centered value, stored in ``value``) or ``mixed`` (no
    stable tail of at least ``MIN_BRANCH_RUN`` primes).
    """

    kind: str
    value: int | None = None
    onset_prime: int | None = None

    def matches(self, expected_value: int) -> bool:
        if self.kind == "mixed":
            return False
        return self.value == expected_value


@dataclass(frozen=True)
class CongruenceReport:
    level: int
    p_lo: int
    p_hi: int
    primes: tuple[int, ...]
    residues: Mapping[int, int]  # prime -> residue in [0, p)
    centered: Mapping[int, int]  # prime -> residue in (-p/2, p/2]
    method: Mapping[int, str]  # prime -> METHOD_EXACT | METHOD_RECURRENCE
    branch: BranchVerdict

    def used_recurrence(self) -> bool:
        return any(m == METHOD_RECURRENCE for m in self.method.values())


def _constant_suffix(values: Sequence) -> int:
    """Index where the longest run of equal values at the end of ``values``
    starts (0 when empty)."""
    start = len(values)
    while start > 0 and values[start - 1] == values[-1]:
        start -= 1
    return start


_BRANCH_KINDS = {0: "zero", 1: "plus_one", -1: "minus_one"}


def _classify_branch(primes: Sequence[int], centered: Mapping[int, int]) -> BranchVerdict:
    values = [centered[p] for p in primes]
    start = _constant_suffix(values)
    if len(values) - start < MIN_BRANCH_RUN:
        return BranchVerdict("mixed")
    return BranchVerdict(_BRANCH_KINDS.get(values[-1], "other"), values[-1], primes[start])


def congruence_scan(
    field: NumberField,
    level: int,
    p_lo: int,
    p_hi: int,
    *,
    exact_limit: int = EXACT_LIMIT_DEFAULT,
    table: IterateTable | None = None,
    recurrence: Recurrence | None = None,
) -> CongruenceReport:
    """Scan ``u^level_p mod p`` over primes ``p_lo <= p <= p_hi``.

    Primes up to ``exact_limit`` are evaluated exactly (reusing ``table``
    when it covers the column, otherwise recomputing the column).  Primes
    beyond ``exact_limit`` need a verified ``recurrence`` for the level's
    row, whose index 0 is exponent ``SUITE_N_LO``; residues are then pushed
    forward modulo ``p`` from exact initial terms by ``modular_extend``.
    Primes below the recurrence's onset are still evaluated exactly, since
    the recurrence is not claimed to hold there.

    Raises :class:`RecurrenceUnavailable` if extension is needed but no
    recurrence was supplied, and propagates rounding failures from exact
    evaluation.
    """
    if level < 0:
        raise InvalidParameters("iterate level must be >= 0")
    if p_lo > p_hi:
        raise InvalidParameters("empty prime range")
    primes = tuple(primes_between(p_lo, p_hi))
    residues: dict[int, int] = {}
    centered: dict[int, int] = {}
    method: dict[int, str] = {}

    init: list[int] = []
    onset_n = 0
    if any(p > exact_limit for p in primes):
        if recurrence is None:
            raise RecurrenceUnavailable(
                "primes beyond exact_limit=%d need a verified recurrence for level %d"
                % (exact_limit, level)
            )
        onset_n = SUITE_N_LO + recurrence.onset
        init = [
            _table_or_column(field, table, level, onset_n + i)
            for i in range(recurrence.order)
        ]

    for p in primes:
        if p <= exact_limit or p < onset_n:
            u = _table_or_column(field, table, level, p)
            method[p] = METHOD_EXACT
        else:
            u = modular_extend(recurrence, init, p, p - SUITE_N_LO)
            method[p] = METHOD_RECURRENCE
        residues[p] = u % p
        centered[p] = centered_residue(u, p)

    branch = _classify_branch(primes, centered)
    return CongruenceReport(
        level, p_lo, p_hi, primes, residues, centered, method, branch
    )


def _table_or_column(
    field: NumberField, table: IterateTable | None, level: int, n: int
) -> int:
    if table is not None and table.has(level, n):
        return table.u(level, n)
    *_, top = iterate_column(field, n, level)
    return top.integer_part


# ---------------------------------------------------------------------------
# constant / alternating tails


@dataclass(frozen=True)
class ConstantVerdict:
    """Eventual-tail classification of an integer-part row.

    kind: ``plus_one`` | ``minus_one`` | ``alt_odd_plus`` (odd n -> +1,
    even n -> -1) | ``alt_odd_minus`` (the reverse) | ``none``.
    ``exact`` records whether every matched cell had an exactly zero
    fractional part (the iterate *is* the integer, not merely near it).
    """

    kind: str
    onset: int | None = None
    run_length: int = 0
    exact: bool = False


def constant_detect(table: IterateTable, level: int) -> ConstantVerdict:
    """Classify the tail of row ``level`` as constant/alternating ±1.

    The pattern must hold from its onset to the end of the contiguous row,
    for at least MIN_CONSTANT_RUN terms.  One tail scan reads both shapes:
    a constant ±1 tail of u_n, or a constant ±1 tail of (-1)^(n+1) u_n,
    which is an alternation of u_n.  A run of two or more terms cannot be
    constant in both readings, so at most one qualifies.
    """
    n_lo, values = table.u_sequence(level)
    alternated = [v if (n_lo + i) % 2 else -v for i, v in enumerate(values)]
    for row, kinds in (
        (values, {1: "plus_one", -1: "minus_one"}),
        (alternated, {1: "alt_odd_plus", -1: "alt_odd_minus"}),
    ):
        start = _constant_suffix(row)
        run = len(row) - start
        if run >= MIN_CONSTANT_RUN and row[-1] in kinds:
            onset = n_lo + start
            exact = all(
                table.cell(level, n).exact_zero for n in range(onset, onset + run)
            )
            return ConstantVerdict(kinds[row[-1]], onset, run, exact)
    return ConstantVerdict("none")


# ---------------------------------------------------------------------------
# convergence of fractional magnitudes


@dataclass(frozen=True)
class MagnitudeViolation:
    n: int  # left index of the offending adjacent pair (n, n+1)
    kind: str  # 'increase' | 'plateau' | 'resurgence'


@dataclass(frozen=True)
class ConvergenceReport:
    level: int
    n_lo: int
    n_hi: int
    onset: int | None
    violations: tuple[MagnitudeViolation, ...]
    zero_tail_from: int | None


def convergence_check(table: IterateTable, level: int) -> ConvergenceReport:
    """Find the onset past which ``|frac(I^level(theta^n))|`` strictly decreases.

    Adjacent magnitudes are compared through certified interval refinement.
    Pairs that are exactly zero on both sides count as converged (the row
    has collapsed to honest integers) but are still recorded as ``plateau``
    violations for reporting.  ``onset`` is ``None`` when no tail of the
    tabulated range is strict-or-zero.

    Strict eventual decrease is expected only when a single real conjugate
    has the largest modulus.  When the largest-modulus conjugates are a
    complex pair, the cosine term makes the magnitude rise again at
    arbitrarily late exponents, so ``onset=None`` is the right answer there,
    and an onset close to ``n_hi`` is an accident of the window edge (the
    catalog's atypical field reports onset 76 at level 1 for ``n_hi = 80``).

    Raises :class:`IncomparableMagnitudes` when a pair cannot be separated
    within the precision cap.
    """
    row = frac_magnitudes(table, level)
    stuck = row.incomparable_pairs()
    if stuck:
        raise IncomparableMagnitudes(
            "magnitude pairs %s undecided at %d bits" % (stuck, COMPARATOR_CAP_BITS)
        )
    entries = row.entries
    if not entries:
        return ConvergenceReport(level, 0, 0, None, (), None)
    ns = [e.n for e in entries]
    n_lo, n_hi = ns[0], ns[-1]

    zero_tail_from: int | None = None
    for e in reversed(entries):
        if e.exact_zero:
            zero_tail_from = e.n
        else:
            break

    violations: list[MagnitudeViolation] = []
    blocking: list[int] = []  # left indices that rule out an onset at/below them
    for i, status in enumerate(row.pair_order):
        a, b = entries[i], entries[i + 1]
        if status == "gt":
            continue
        if status == "eq":
            violations.append(MagnitudeViolation(a.n, "plateau"))
            both_zero = a.exact_zero and b.exact_zero
            in_zero_tail = zero_tail_from is not None and a.n >= zero_tail_from
            if not (both_zero and in_zero_tail):
                blocking.append(a.n)
            continue
        # status == 'lt': magnitude grew
        if a.exact_zero and not b.exact_zero:
            violations.append(MagnitudeViolation(a.n, "resurgence"))
        else:
            violations.append(MagnitudeViolation(a.n, "increase"))
        blocking.append(a.n)

    if not blocking:
        onset: int | None = n_lo
    else:
        cand = max(blocking) + 1
        onset = cand if cand < n_hi else None
    return ConvergenceReport(
        level, n_lo, n_hi, onset, tuple(violations), zero_tail_from
    )


# ---------------------------------------------------------------------------
# expectations


@dataclass(frozen=True)
class LevelExpectation:
    """What a level's scans are expected to show.

    ``congruence`` is an expected centered residue value; ``constant`` is a
    tuple of acceptable :class:`ConstantVerdict` kinds.  ``None`` fields are
    not checked.
    """

    level: int
    congruence: int | None = None
    max_onset_prime: int | None = None
    constant: tuple[str, ...] | None = None
    max_onset_index: int | None = None
    recurrence_coeffs: tuple[int, ...] | None = None


@dataclass(frozen=True)
class ExpectationSet:
    name: str
    levels: tuple[LevelExpectation, ...]

    def max_level(self) -> int:
        return max((e.level for e in self.levels), default=0)


@dataclass(frozen=True)
class ExpectationOutcome:
    level: int
    aspect: str  # 'congruence' | 'constant' | 'recurrence'
    passed: bool
    expected: str
    observed: str


def _pattern_expectations(
    name: str,
    n: int,
    residues: tuple[int, int, int],
    top: tuple[str, ...],
    max_onset_prime: int | None = None,
) -> ExpectationSet:
    """Congruence levels 0..n-1 and a tail at level ``n``.

    ``residues`` is (first, middle, last): level 0 expects ``first``,
    levels 1..n-2 ``middle`` and level n-1 ``last`` (``first`` wins when
    n = 1).  Level ``n`` expects a tail whose kind is in ``top``.
    """
    if n < 1:
        raise InvalidParameters("n must be >= 1")
    first, middle, last = residues
    levels = [
        LevelExpectation(
            k,
            congruence=first if k == 0 else last if k == n - 1 else middle,
            max_onset_prime=max_onset_prime,
        )
        for k in range(n)
    ]
    levels.append(LevelExpectation(n, constant=top))
    return ExpectationSet(name, tuple(levels))


def alpha_expectations(n: int, *, max_onset_prime: int | None = None) -> ExpectationSet:
    """Residue/tail pattern for the degree-``n+1`` field with top row -2.

    Level 0 residue 2, middle levels 0, level ``n-1`` residue -1, level
    ``n`` constant +1 (even ``n``) or alternating odd->+1 (odd ``n``).
    ``max_onset_prime`` bounds the branch onset of every congruence level of
    this one field; the onset grows with ``n``, so it is a per-field bound.
    """
    top = ("plus_one",) if n % 2 == 0 else ("alt_odd_plus",)
    return _pattern_expectations("alpha_%d" % n, n, (2, 0, -1), top, max_onset_prime)


def beta_expectations(n: int, *, max_onset_prime: int | None = None) -> ExpectationSet:
    """All levels below ``n`` residue 1; top level constant/alternating +1.

    ``max_onset_prime`` bounds the branch onset of every congruence level of
    this one field; the onset grows with ``n``, so it is a per-field bound.
    """
    top = ("plus_one",) if n % 2 == 0 else ("alt_odd_plus",)
    return _pattern_expectations("beta_%d" % n, n, (1, 1, 1), top, max_onset_prime)


def heart_expectations(m0: int, n: int) -> ExpectationSet:
    """Generalized pattern for degree-``n+1`` heart-family fields.

    Level 0 residue ``m0``, strictly-middle levels residue 0, level
    ``n-2``... point of care: the penultimate *congruence* level is
    ``n-1`` (residue -1) and the top integer-part row sits at level ``n``.
    """
    return _pattern_expectations(
        "heart_%d_n%d" % (m0, n),
        n,
        (m0, 0, -1),
        ("plus_one", "alt_odd_plus"),
    )


# ---------------------------------------------------------------------------
# suite


@dataclass(frozen=True)
class PairAudit:
    level_a: int
    level_b: int
    relation: PairRelation


@dataclass
class LevelReport:
    level: int
    u_head: tuple[int, ...]
    recurrence: Recurrence | None = None
    recurrence_error: str | None = None
    characteristic: IntPolynomial | None = None
    symmetry: SymmetryClass | None = None
    congruence: CongruenceReport | None = None
    congruence_error: str | None = None
    constant: ConstantVerdict | None = None
    convergence: ConvergenceReport | None = None
    convergence_error: str | None = None


@dataclass
class SuiteReport:
    min_poly: IntPolynomial
    n_lo: int
    n_hi: int
    k_max: int
    p_lo: int
    p_hi: int
    levels: list[LevelReport] = dc_field(default_factory=list)
    pair_audits: list[PairAudit] = dc_field(default_factory=list)
    outcomes: list[ExpectationOutcome] = dc_field(default_factory=list)
    table_failures: dict[tuple[int, int], str] = dc_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(o.passed for o in self.outcomes)

    def level_report(self, level: int) -> LevelReport:
        for rep in self.levels:
            if rep.level == level:
                return rep
        raise InvalidParameters("no report for level %d" % level)


def run_suite(
    field: NumberField,
    expectations: ExpectationSet | None = None,
    *,
    p_lo: int = 2,
    p_hi: int = 97,
    k_max: int | None = None,
    n_hi: int | None = None,
    exact_limit: int = EXACT_LIMIT_DEFAULT,
    include_convergence: bool = False,
) -> SuiteReport:
    """Run every scanner across levels ``0..k_max`` of one field.

    ``k_max`` defaults to ``degree - 1`` (or high enough to cover the
    expectations).  ``n_hi`` defaults to covering every prime that must be
    evaluated exactly, with a floor of 60 exponents.  Residues for primes
    beyond ``exact_limit`` automatically reuse the level's detected
    recurrence; if detection failed, the level's congruence slot carries
    the error note instead.
    """
    d = field.degree
    if k_max is None:
        k_max = d - 1
        if expectations is not None:
            k_max = max(k_max, expectations.max_level())
    exact_top = min(p_hi, exact_limit)
    if n_hi is None:
        n_hi = max(60, exact_top)
    table = build_table(field, k_max, SUITE_N_LO, n_hi)

    report = SuiteReport(field.min_poly, SUITE_N_LO, n_hi, k_max, p_lo, p_hi)
    report.table_failures = dict(table.failures)

    for k in range(k_max + 1):
        _, seq = table.u_sequence(k)
        rep = LevelReport(k, tuple(seq[:12]))

        if len(seq) >= 8:
            try:
                rep.recurrence = detect_recurrence(seq)
            except NoRecurrenceFound as exc:
                rep.recurrence_error = str(exc)
        else:
            rep.recurrence_error = "row too short for detection"
        integral = rep.recurrence if rep.recurrence and rep.recurrence.is_integral else None
        if integral is not None:
            rep.characteristic = characteristic_of(integral)
            rep.symmetry = classify_symmetry(rep.characteristic)

        try:
            rep.congruence = congruence_scan(
                field,
                k,
                p_lo,
                p_hi,
                exact_limit=exact_limit,
                table=table,
                recurrence=integral,
            )
        except (RecurrenceUnavailable, ExactHalfInteger, PrecisionExhausted) as exc:
            rep.congruence_error = "%s: %s" % (type(exc).__name__, exc)

        rep.constant = constant_detect(table, k)

        if include_convergence:
            try:
                rep.convergence = convergence_check(table, k)
            except IncomparableMagnitudes as exc:
                rep.convergence_error = str(exc)

        report.levels.append(rep)

    report.pair_audits = _pair_audits(report.levels, d, k_max)
    if expectations is not None:
        report.outcomes = _grade(report, expectations)
    return report


def _pair_audits(levels: Sequence[LevelReport], d: int, k_max: int) -> list[PairAudit]:
    """Mirror-pair comparisons between characteristic polynomials.

    Levels ``m`` and ``d - m + 2`` are paired whenever both fall inside the
    tabulated range and both rows produced integral recurrences.
    """
    by_level = {rep.level: rep for rep in levels}
    audits: list[PairAudit] = []
    for m in range(k_max + 1):
        j = d - m + 2
        if j < m or j > k_max:
            continue
        a, b = by_level.get(m), by_level.get(j)
        if a is None or b is None:
            continue
        if a.characteristic is None or b.characteristic is None:
            continue
        if a.characteristic.degree != b.characteristic.degree:
            continue
        audits.append(PairAudit(m, j, classify_pair(a.characteristic, b.characteristic)))
    return audits


def _grade(report: SuiteReport, expectations: ExpectationSet) -> list[ExpectationOutcome]:
    outcomes: list[ExpectationOutcome] = []
    for exp in expectations.levels:
        try:
            rep = report.level_report(exp.level)
        except InvalidParameters:
            outcomes.append(
                ExpectationOutcome(
                    exp.level, "coverage", False, "level tabulated", "level missing"
                )
            )
            continue
        if exp.congruence is not None:
            outcomes.append(_grade_congruence(rep, exp))
        if exp.constant is not None:
            outcomes.append(_grade_constant(rep, exp))
        if exp.recurrence_coeffs is not None:
            outcomes.append(_grade_recurrence(rep, exp))
    return outcomes


def _grade_congruence(rep: LevelReport, exp: LevelExpectation) -> ExpectationOutcome:
    expected = "centered residue %d" % exp.congruence
    if exp.max_onset_prime is not None:
        expected += " from prime <= %d" % exp.max_onset_prime
    if rep.congruence is None:
        return ExpectationOutcome(
            exp.level, "congruence", False, expected,
            "scan failed: %s" % rep.congruence_error,
        )
    branch = rep.congruence.branch
    observed = "branch %s" % branch.kind
    if branch.kind != "mixed":
        observed += " (value %d, onset prime %s)" % (branch.value, branch.onset_prime)
    ok = branch.matches(exp.congruence)
    if ok and exp.max_onset_prime is not None:
        ok = branch.onset_prime is not None and branch.onset_prime <= exp.max_onset_prime
    return ExpectationOutcome(exp.level, "congruence", ok, expected, observed)


def _grade_constant(rep: LevelReport, exp: LevelExpectation) -> ExpectationOutcome:
    expected = "tail in %s" % (exp.constant,)
    if exp.max_onset_index is not None:
        expected += " from n <= %d" % exp.max_onset_index
    verdict = rep.constant
    if verdict is None:
        return ExpectationOutcome(exp.level, "constant", False, expected, "not scanned")
    observed = "tail %s (onset %s, run %d)" % (
        verdict.kind, verdict.onset, verdict.run_length,
    )
    ok = verdict.kind in exp.constant
    if ok and exp.max_onset_index is not None:
        ok = verdict.onset is not None and verdict.onset <= exp.max_onset_index
    return ExpectationOutcome(exp.level, "constant", ok, expected, observed)


def _grade_recurrence(rep: LevelReport, exp: LevelExpectation) -> ExpectationOutcome:
    expected = "coefficients %s" % (exp.recurrence_coeffs,)
    if rep.recurrence is None:
        return ExpectationOutcome(
            exp.level, "recurrence", False, expected,
            "detection failed: %s" % rep.recurrence_error,
        )
    observed = "order %d coefficients %s (onset %d)" % (
        rep.recurrence.order, rep.recurrence.coeffs, rep.recurrence.onset,
    )
    ok = tuple(Fraction(c) for c in rep.recurrence.coeffs) == tuple(
        Fraction(c) for c in exp.recurrence_coeffs
    )
    return ExpectationOutcome(exp.level, "recurrence", ok, expected, observed)
