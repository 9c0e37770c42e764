"""Acceptance battery: one test per shipped acceptance criterion.

Each test prints a single verdict line

    criterion NN PASS|FAIL (elapsed / budget) detail

and then asserts both the runtime budget and the criterion itself, so the
pytest status mirrors the verdict line.  Where a bound can be proved, the
criterion asserts the proved bound; where the certified data refute a
tempting stronger bound, the counterexample is asserted as well and checked
against an independent mpmath evaluation (criteria 4, 5 and 12).
Everything here is deterministic: fixed seeds, exact arithmetic, pinned
tolerances.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction

import mpmath as mp
import pytest

from pisotlab.catalog import load_catalog
from pisotlab.certify import certify_pisot
from pisotlab.conjectures import (
    alpha_expectations,
    beta_expectations,
    congruence_scan,
    convergence_check,
    run_suite,
)
from pisotlab.errors import InvalidParameters, NoRootInInterval
from pisotlab.field import NumberField
from pisotlab.limits import (
    LogEquationSpec,
    ordering_check,
    solve_log_equation,
    verify_identity,
)
from pisotlab.poly import IntPolynomial, alpha_poly, beta_poly, delta2_poly, plastic_poly
from pisotlab.primes import primes_between
from pisotlab.recurrence import (
    compare_recurrence,
    detect_recurrence,
    predicted_recurrence,
)
from pisotlab.transform import build_table, frac_magnitudes

GOLDEN = IntPolynomial.from_coeffs([-1, -1, 1])
SILVER = IntPolynomial.from_coeffs([-1, -2, 1])
GOLDEN_SQUARE = IntPolynomial.from_coeffs([1, -3, 1])
ATYPICAL = IntPolynomial.from_coeffs([-1, 1, -1, 0, 1, -2, 1])

TOL_40 = Fraction(1, 10**40)


def _verdict(num: int, budget_s: int, t0: float, failures, detail: str = "") -> None:
    """Print the criterion's single verdict line, then assert it."""
    elapsed = time.monotonic() - t0
    in_budget = elapsed < budget_s
    ok = in_budget and not failures
    print(
        "criterion %02d %s (%.1fs / budget %ds)%s"
        % (num, "PASS" if ok else "FAIL", elapsed, budget_s, " " + detail if detail else "")
    )
    assert in_budget, "criterion %02d over budget: %.1fs >= %ds" % (num, elapsed, budget_s)
    assert not failures, "criterion %02d: %s" % (num, failures)


def test_criterion_01_quadratic_top_row_law() -> None:
    """u^1_n equals -(a_0)^n exactly for the three quadratic fields, n in [2, 50]."""
    t0 = time.monotonic()
    failures = []
    for poly in (GOLDEN, SILVER, GOLDEN_SQUARE):
        field = NumberField.from_poly(poly)
        table = build_table(field, 1, 1, 50)
        a0 = poly.coeffs[0]
        for n in range(2, 51):
            cell = table.cell(1, n)
            if cell.integer_part != -(a0**n) or not cell.exact_zero:
                failures.append((str(poly), n, cell.integer_part, -(a0**n)))
    _verdict(1, 5, t0, failures, "3 quadratic fields, exponents 2..50, exact")


def test_criterion_02_delta2_zero_residues_and_minus_one_tail() -> None:
    """delta2: u^2_p = 0 (mod p) for primes in [13, 199]; u^3_m = -1 on [11, 100]."""
    t0 = time.monotonic()
    field = NumberField.from_poly(delta2_poly())
    table = build_table(field, 3, 1, 199)
    failures = [
        ("level2", p, table.u(2, p) % p)
        for p in primes_between(13, 199)
        if table.u(2, p) % p != 0
    ]
    failures += [
        ("level3", m, table.u(3, m)) for m in range(11, 101) if table.u(3, m) != -1
    ]
    _verdict(2, 120, t0, failures, "primes 13..199 exact; tail 11..100")


def test_criterion_03_atypical_level5_alternating_tail() -> None:
    """Sextic catalog field: u^5_l = -1 for even l in [44, 120], +1 for odd l in [43, 119]."""
    t0 = time.monotonic()
    field = NumberField.from_poly(ATYPICAL)
    table = build_table(field, 5, 1, 120)
    failures = [
        ("even", l, table.u(5, l)) for l in range(44, 121, 2) if table.u(5, l) != -1
    ]
    failures += [
        ("odd", l, table.u(5, l)) for l in range(43, 120, 2) if table.u(5, l) != 1
    ]
    _verdict(3, 120, t0, failures, "78 exponents, exact")


def _mp_roots(poly: IntPolynomial):
    """(theta, other roots) of a Pisot polynomial from mpmath at the working
    precision; theta is the root of largest modulus."""
    roots = mp.polyroots(
        [mp.mpf(c) for c in reversed(poly.coeffs)], maxsteps=200, extraprec=512
    )
    theta = max(roots, key=abs)
    return mp.re(theta), [r for r in roots if r is not theta]


def _trace_onset_prime(poly: IntPolynomial) -> int:
    """First prime p with (d-1) * rho^p < 1/2, rho the certified conjugate bound.

    From that prime on the d-1 conjugate powers sum to less than 1/2 in
    modulus, so u^0_p = [theta^p] = tr(theta^p), and tr(theta^p) = tr(theta)
    (mod p).  This proves the level-0 residue from p0 on; it proves nothing
    about the higher levels.
    """
    rho = certify_pisot(poly).conjugate_bound
    return next(
        p for p in primes_between(2, 997) if (poly.degree - 1) * rho**p < Fraction(1, 2)
    )


def _level0_oracle(poly: IntPolynomial, value: int):
    """Independent level-0 data from mpmath at 400 digits.

    Returns ([theta^p] by prime, frac(theta^p) by prime, and the first prime
    from which [theta^p] = value (mod p) holds through 97).
    """
    primes = primes_between(2, 97)
    with mp.workdps(400):
        theta, _ = _mp_roots(poly)
        powers = {p: theta**p for p in primes}
        nearest = {p: int(mp.nint(x)) for p, x in powers.items()}
        frac = {p: float(x - mp.floor(x)) for p, x in powers.items()}
    bad = [p for p in primes if (nearest[p] - value) % p]
    onset = primes[primes.index(bad[-1]) + 1] if bad else primes[0]
    return nearest, frac, onset


def _graded_family(family_poly, expectations):
    """Grade n = 2..5 of a family to primes <= 97, each field against its own
    trace onset prime p0.  Returns (failures, {n: p0}, {n: suite})."""
    failures: list = []
    bounds: dict[int, int] = {}
    suites = {}
    for n in (2, 3, 4, 5):
        poly = family_poly(n)
        bounds[n] = _trace_onset_prime(poly)
        exp = expectations(n, max_onset_prime=bounds[n])
        suite = run_suite(NumberField.from_poly(poly), exp, p_hi=97)
        failures += [
            (exp.name, o.level, o.aspect, o.observed)
            for o in suite.outcomes
            if not o.passed
        ]
        if suite.table_failures:
            failures.append((exp.name, "rounding", suite.table_failures))
        suites[n] = suite
    return failures, bounds, suites


def _oracle_mismatches(name: str, suite, nearest, onset: int) -> list:
    """Compare a suite's level-0 scan with the level-0 oracle."""
    scan = suite.level_report(0).congruence
    out = [
        (name, "residue", p, scan.residues[p], nearest[p] % p)
        for p in scan.primes
        if scan.residues[p] != nearest[p] % p
    ]
    if scan.branch.onset_prime != onset:
        out.append((name, "level-0 onset", scan.branch.onset_prime, onset))
    return out


def test_criterion_04_alpha_residue_pattern() -> None:
    """alpha_n, n in 2..5, primes <= 97: u^0 = 2, middles = 0, u^(n-1) = -1,
    top row +1 / alternating, with every branch onset prime <= p0.

    p0 is the first prime with (d-1) * rho^p < 1/2, rho the certified
    conjugate bound: 7, 17, 23, 29.  For level 0 it is a theorem (then
    u^0_p = tr(theta^p) = tr(theta) = 2 (mod p)); for levels >= 1 the bound
    checks observed behaviour.  Measured onsets are 5, 7, 13, 23.  A single
    onset bound of 13 for all four fields is refuted at n = 5: theta^19 lies
    0.574 above its floor, so [theta^19] = tr(theta^19) + 1 breaks the
    residue 2 and level 0 settles only from p = 23.  That counterexample is
    asserted here against an independent 400-digit evaluation.
    """
    t0 = time.monotonic()
    failures, bounds, suites = _graded_family(alpha_poly, alpha_expectations)
    nearest, frac, onset = _level0_oracle(alpha_poly(5), 2)
    if round(frac[19], 3) != 0.574 or nearest[19] % 19 == 2 or onset != 23:
        failures.append(("alpha_5 counterexample", frac[19], nearest[19] % 19, onset))
    failures += _oracle_mismatches("alpha_5", suites[5], nearest, onset)
    _verdict(
        4, 300, t0, failures,
        "n in 2..5, primes <= 97, onset bounds p0 = %s; alpha_5 level-0 onset 23 > 13"
        % ", ".join(str(bounds[n]) for n in sorted(bounds)),
    )


def test_criterion_05_beta_residue_pattern() -> None:
    """beta_n, n in 2..5, primes <= 97: u^k = 1 for all k < n, top row +1 /
    alternating, with every branch onset prime <= p0.

    p0 is the first prime with (d-1) * rho^p < 1/2, rho the certified
    conjugate bound: 5, 11, 17, 29.  For level 0 it is a theorem (then
    u^0_p = tr(theta^p) = tr(theta) = 1 (mod p)); for levels >= 1 the bound
    checks observed behaviour.  Measured onsets are 5, 7, 11, 17.  A single
    onset bound of 13 for all four fields is refuted at n = 5:
    [theta^13] = 7360 = 2 (mod 13), so level 0 settles only from p = 17.
    That counterexample is asserted here against an independent 400-digit
    evaluation.
    """
    t0 = time.monotonic()
    failures, bounds, suites = _graded_family(beta_poly, beta_expectations)
    nearest, _, onset = _level0_oracle(beta_poly(5), 1)
    if nearest[13] != 7360 or nearest[13] % 13 != 2 or onset != 17:
        failures.append(("beta_5 counterexample", nearest[13], onset))
    failures += _oracle_mismatches("beta_5", suites[5], nearest, onset)
    _verdict(
        5, 300, t0, failures,
        "n in 2..5, primes <= 97, onset bounds p0 = %s; beta_5 level-0 onset 17 > 13"
        % ", ".join(str(bounds[n]) for n in sorted(bounds)),
    )


def test_criterion_06_lucas_perrin_oracle_congruences() -> None:
    """Golden/plastic integer-part rows reproduce Lucas/Perrin numbers, and the
    classical prime congruences L_p = 1, P_p = 0 (mod p) hold to 293 on both
    the transform path and direct big-integer recurrences."""
    t0 = time.monotonic()
    golden = NumberField.from_poly(GOLDEN)
    plastic = NumberField.from_poly(plastic_poly())
    tg = build_table(golden, 0, 1, 293)
    tp = build_table(plastic, 0, 1, 293)

    lucas = {1: 1, 2: 3}
    perrin = {0: 3, 1: 0, 2: 2}
    for i in range(3, 294):
        lucas[i] = lucas[i - 1] + lucas[i - 2]
        perrin[i] = perrin[i - 2] + perrin[i - 3]

    failures = []
    for p in primes_between(2, 293):
        if lucas[p] % p != 1 % p:
            failures.append(("lucas_oracle", p, lucas[p] % p))
        if perrin[p] % p != 0:
            failures.append(("perrin_oracle", p, perrin[p] % p))
        if tg.u(0, p) != lucas[p]:
            failures.append(("lucas_transform", p, tg.u(0, p), lucas[p]))
        # the plastic row coincides with the oracle once the conjugate pair
        # has decayed below 1/2; that happens from exponent 7 on
        if p >= 7 and tp.u(0, p) != perrin[p]:
            failures.append(("perrin_transform", p, tp.u(0, p), perrin[p]))
    scan_g = congruence_scan(golden, 0, 2, 293, table=tg)
    scan_p = congruence_scan(plastic, 0, 2, 293, table=tp)
    if not (scan_g.branch.kind == "plus_one" and scan_g.branch.onset_prime <= 7):
        failures.append(("lucas_branch", scan_g.branch))
    if not (scan_p.branch.kind == "zero" and scan_p.branch.onset_prime <= 7):
        failures.append(("perrin_branch", scan_p.branch))
    _verdict(6, 60, t0, failures, "62 primes, transform vs big-integer oracles")


def test_criterion_07_identity_residuals() -> None:
    """Both indexed identity families for n <= 10 plus the three closed-form
    values certify to residual < 1e-40 at 256-bit precision."""
    t0 = time.monotonic()
    failures = []
    for kind in ("I", "II"):
        for n in range(1, 11):
            r = verify_identity(kind, n, 256)
            if not r.hi < TOL_40:
                failures.append((kind, n, str(r.hi)))
    for kind in ("alpha2_pair", "alpha3_extra", "delta_prime"):
        r = verify_identity(kind, None, 256)
        if not r.hi < TOL_40:
            failures.append((kind, None, str(r.hi)))
    _verdict(7, 30, t0, failures, "23 identities, residual < 1e-40 at 256 bits")


def test_criterion_08_limit_point_ordering_chain() -> None:
    """Certified chain alpha_1=beta_1 < alpha_2 < beta_2 < alpha_3 < delta2' <
    beta_3 < 2 with pairwise disjoint enclosures."""
    t0 = time.monotonic()
    rep = ordering_check(3, 128)
    failures = []
    labels = [e.label for e in rep.entries]
    expected = ["alpha_1=beta_1", "alpha_2", "beta_2", "alpha_3", "delta_prime_2", "beta_3"]
    if labels != expected:
        failures.append(("labels", labels))
    if not rep.merged_first_pair:
        failures.append("first pair not certified equal")
    if not rep.strictly_increasing:
        failures.append("chain not strictly increasing")
    if not rep.all_below_two:
        failures.append("chain not certified below 2")
    if not all(g > 0 for g in rep.gaps):
        failures.append(("non-positive gap bound", rep.gaps))
    _verdict(8, 10, t0, failures, "6 enclosures, disjoint, below 2")


def _law(coeffs, window):
    return sum(c * window[-k] for k, c in enumerate(coeffs, start=1))


def test_criterion_09_recurrence_detection_oracle() -> None:
    """200 seeded random recurrences (order <= 6, coefficients in [-5, 5],
    garbage prefixes of length <= 10) are recovered exactly with the onset at
    the prefix boundary; detected laws for every catalog integer-part row
    match the prediction read off the minimal polynomial."""
    t0 = time.monotonic()
    rng = random.Random(90209)
    failures = []
    for trial in range(200):
        # draw until the generating recurrence is the minimal one for its own
        # suffix (degenerate draws, e.g. an all-zero order-1 sequence, would
        # make "recovered exactly" meaningless)
        while True:
            d = rng.randint(1, 6)
            coeffs = [rng.randint(-5, 5) for _ in range(d - 1)]
            last = 0
            while last == 0:
                last = rng.randint(-5, 5)
            coeffs.append(last)
            init = [rng.randint(-9, 9) for _ in range(d)]
            suffix_len = 2 * d + 4 + rng.randint(0, 8)
            seq = list(init)
            while len(seq) < suffix_len:
                seq.append(_law(coeffs, seq))
            probe = detect_recurrence(seq)
            if probe.order == d and tuple(probe.coeffs) == tuple(coeffs) and probe.onset == 0:
                break
        glen = rng.randint(0, 10)
        garbage = [rng.randint(-9, 9) for _ in range(glen)]
        if glen:
            # make sure the prefix actually breaks the law at the junction,
            # otherwise the true onset is legitimately smaller than glen
            window = (garbage + seq)[glen - 1 : glen + d - 1]
            while _law(coeffs, window) == seq[d - 1]:
                garbage[-1] += 1
                window = (garbage + seq)[glen - 1 : glen + d - 1]
        r = detect_recurrence(garbage + seq)
        if tuple(r.coeffs) != tuple(coeffs) or r.order != d or r.onset != glen:
            failures.append((trial, d, tuple(coeffs), glen, r))

    for entry in load_catalog():
        field = NumberField.from_poly(entry.poly)
        table = build_table(field, 0, 1, 60)
        det = detect_recurrence([table.u(0, n) for n in range(1, 61)])
        cmp = compare_recurrence(det, predicted_recurrence(entry.poly, "zero_iterate"))
        if cmp.verdict not in ("equal", "equal_up_to_onset"):
            failures.append((entry.name, tuple(det.coeffs), cmp))
    _verdict(9, 60, t0, failures, "200 synthetic + 7 catalog rows")


def test_criterion_10_rounding_certification() -> None:
    """1000 seeded random elements per catalog field round identically to an
    independent 4096-bit floating evaluation; a half-integer is no element
    of Z[theta], so building one is refused."""
    t0 = time.monotonic()
    rng = random.Random(48271)
    failures = []
    for entry in load_catalog():
        field = NumberField.from_poly(entry.poly)
        d = entry.poly.degree
        with mp.workprec(4096 + 64):
            theta, _ = _mp_roots(entry.poly)
            for _ in range(1000):
                coords = tuple(rng.randint(-64000, 64000) for _ in range(d))
                mine = field.round_with_enclosure(field.element(coords))[0]
                direct = mp.mpf(0)
                for c in reversed(coords):
                    direct = direct * theta + c
                if mine != int(mp.nint(direct)):
                    failures.append((entry.name, coords, mine, int(mp.nint(direct))))
        for k in (0, 3, -2):
            with pytest.raises(InvalidParameters):
                field.element((Fraction(2 * k + 1, 2),) + (0,) * (d - 1))
    _verdict(10, 60, t0, failures, "7000 roundings vs 4096-bit reference")


def _mp_log_residual(spec: LogEquationSpec, root) -> mp.mpf:
    """|LHS - n| of the original log equation at the midpoint of ``root``,
    evaluated by mpmath at 80 digits: an oracle that shares no code with
    the solver's exact identity check."""
    with mp.workdps(80):
        x = (mp.mpf(root.lo.numerator) / root.lo.denominator
             + mp.mpf(root.hi.numerator) / root.hi.denominator) / 2
        if spec.family == "spade":
            lhs = -mp.log(x - spec.m)
        else:
            lhs = -mp.log(spec.m - x)
            if spec.family == "heart":
                lhs += mp.log(x - spec.m + spec.l)
        return abs(lhs / mp.log(x) - spec.n)


def test_criterion_11_log_equation_residual_gate() -> None:
    """Every family member with m <= 5, n <= 6 (all valid l) solves to a
    certified Pisot root with original-equation residual < 1e-30; the m=2,
    l=1 heart members reproduce the alpha family.  The single degenerate
    member club(2,1) collapses to (x-1)^2 and must report no root.  The
    solver proves each identity exactly; the residual is computed here, in
    mpmath, at the midpoint of the solved root."""
    t0 = time.monotonic()
    failures = []
    solved = 0
    for m in range(2, 6):
        for n in range(1, 7):
            specs = [LogEquationSpec("club", m, n), LogEquationSpec("spade", m, n)]
            specs += [LogEquationSpec("heart", m, n, l) for l in range(1, m)]
            for spec in specs:
                if (spec.family, spec.m, spec.n) == ("club", 2, 1):
                    with pytest.raises(NoRootInInterval):
                        solve_log_equation(spec)
                    continue
                sol = solve_log_equation(spec)
                if not sol.certificate.geometry_ok:
                    failures.append((spec.label(), "not certified Pisot"))
                residual = _mp_log_residual(spec, sol.root)
                if not residual < mp.mpf(10) ** -30:
                    failures.append((spec.label(), "residual", mp.nstr(residual, 5)))
                solved += 1
    for n in range(1, 7):
        sol = solve_log_equation(LogEquationSpec("heart", 2, n, 1))
        if sol.poly != alpha_poly(n):
            failures.append(("heart(2,%d,1)" % n, str(sol.poly)))
    _verdict(11, 120, t0, failures, "%d specs certified + 1 documented degenerate" % solved)


def _single_real_dominant(conjugates) -> bool:
    """Whether one real conjugate has strictly the largest modulus among the
    conjugates of theta (mpmath roots at the working precision)."""
    ranked = sorted(conjugates, key=abs, reverse=True)
    eps = mp.mpf(10) ** (-(mp.mp.dps // 2))
    if abs(mp.im(ranked[0])) > eps:
        return False
    return len(ranked) == 1 or abs(ranked[0]) - abs(ranked[1]) > eps


def _mp_iterate(theta, level: int, n: int):
    """(u^level_n, |frac(I^level(theta^n))|) by direct mpmath iteration of
    x -> theta^n * (x - [x]) at the working precision."""
    power = theta**n
    x = power
    for _ in range(level):
        x = power * (x - mp.nint(x))
    u = mp.nint(x)
    return int(u), abs(x - u)


def test_criterion_12_frac_magnitude_convergence_onsets() -> None:
    """Certified fractional magnitudes on every catalog entry, every level up
    to degree-1, window n <= 80.

    Strict eventual decrease is expected only where a single real conjugate
    has the largest modulus (decided here by an mpmath root check): every
    row of such a field must have an onset within n <= 80 past which the
    magnitudes strictly decrease; violations before the onset are reported,
    not failed.  Where the largest-modulus conjugates are a complex pair,
    the cosine term makes |frac| rise again at arbitrarily late exponents
    (plastic/0, second_smallest/0, delta2/0, atypical/0 and atypical/3 all
    rise at n = 79 -> 80), so a missing onset is correct there.  Each such
    row's last reported increase is asserted against an independent
    150-digit evaluation of both cells.  Rows of those fields that do report
    an onset are printed only: an onset close to n = 80 (atypical/1: 76) is
    an accident of the window edge.  On every field the certified level-0
    magnitudes must respect the proved envelope: lo <= (d-1) * rho^n
    wherever that bound is below 1/2, rho the certified conjugate bound.
    """
    t0 = time.monotonic()
    failures = []
    half = Fraction(1, 2)
    for entry in load_catalog():
        field = NumberField.from_poly(entry.poly)
        table = build_table(field, entry.degree - 1, 1, 80)
        rho = certify_pisot(entry.poly).conjugate_bound
        for e in frac_magnitudes(table, 0).entries:
            bound = (entry.degree - 1) * rho**e.n
            lo = Fraction(e.interval.lo_man, 1 << e.interval.exp)
            if bound < half and lo > bound:
                failures.append((entry.name, 0, e.n, "magnitude above (d-1)*rho^n"))
        with mp.workdps(150):
            theta, conjugates = _mp_roots(entry.poly)
            real_dominant = _single_real_dominant(conjugates)
            for lam in range(entry.degree):
                rep = convergence_check(table, lam)
                pre = [v for v in rep.violations if rep.onset is None or v.n < rep.onset]
                kinds = sorted({v.kind for v in pre})
                print(
                    "  reported: %s level %d onset=%s pre-onset violations=%d %s%s"
                    % (entry.name, lam, rep.onset, len(pre), kinds,
                       "" if real_dominant else " (complex dominant pair)")
                )
                if rep.onset is not None:
                    continue
                if real_dominant:
                    failures.append((entry.name, lam, "no onset within n <= 80"))
                    continue
                increases = [v.n for v in rep.violations if v.kind == "increase"]
                if not increases:
                    failures.append((entry.name, lam, "no onset and no increase"))
                    continue
                n = increases[-1]
                u_a, mag_a = _mp_iterate(theta, lam, n)
                u_b, mag_b = _mp_iterate(theta, lam, n + 1)
                oracle_ok = (
                    u_a == table.u(lam, n) and u_b == table.u(lam, n + 1) and mag_a < mag_b
                )
                print(
                    "    last increase n=%d -> %d: oracle %s < %s"
                    % (n, n + 1, mp.nstr(mag_a, 6), mp.nstr(mag_b, 6))
                )
                if not oracle_ok:
                    failures.append((entry.name, lam, n, "increase not confirmed"))
    _verdict(12, 300, t0, failures, "7 entries, all levels, window n <= 80")


def _findings_snapshot() -> tuple[str, dict]:
    """Build every audit-style finding from scratch and serialize it."""
    out: dict = {}
    golden = NumberField.from_poly(GOLDEN)
    scan = congruence_scan(golden, 0, 2, 47)
    out["golden_level0"] = {
        "kind": scan.branch.kind,
        "value": scan.branch.value,
        "onset_prime": scan.branch.onset_prime,
        "centered": {str(p): scan.centered[p] for p in scan.primes},
    }
    for n in (2, 3):
        field = NumberField.from_poly(alpha_poly(n))
        table = build_table(field, 1, 1, 40)
        det = detect_recurrence([table.u(1, i) for i in range(1, 41)])
        literal = compare_recurrence(det, predicted_recurrence(alpha_poly(n), "alpha_form"))
        adjusted = compare_recurrence(
            det, predicted_recurrence(alpha_poly(n), "alpha_form_adjusted")
        )
        out["alpha%d_level1" % n] = {
            "detected": [str(c) for c in det.coeffs],
            "onset": det.onset,
            "literal": [literal.verdict, list(literal.mismatch_positions)],
            "adjusted": [adjusted.verdict, list(adjusted.mismatch_positions)],
        }
    taxonomy = {}
    for entry in load_catalog():
        field = NumberField.from_poly(entry.poly)
        suite = run_suite(field, None, p_hi=31)
        taxonomy[entry.name] = {
            "levels": {
                str(rep.level): rep.symmetry.value if rep.symmetry else None
                for rep in suite.levels
            },
            "pairs": [
                "%d~%d:%s" % (pa.level_a, pa.level_b, pa.relation.value)
                for pa in suite.pair_audits
            ],
        }
    out["symmetry"] = taxonomy
    return json.dumps(out, sort_keys=True), out


def test_findings_audits_are_deterministic() -> None:
    """The three audit-style findings (top-row residue of the golden field,
    one-below-top recurrence shape of the alpha fields, characteristic
    symmetry taxonomy) rebuild byte-identically from scratch, and their
    measured content stays pinned."""
    t0 = time.monotonic()
    first, content = _findings_snapshot()
    second, _ = _findings_snapshot()
    failures = []
    if first != second:
        failures.append("findings snapshot not reproducible")
    # pinned measured content (these are reports about the data, not claims):
    # the golden top row settles on +1, not 0
    g = content["golden_level0"]
    if (g["kind"], g["value"], g["onset_prime"]) != ("plus_one", 1, 2):
        failures.append(("golden_level0", g))
    # alpha2's one-below-top row follows the halved-coefficient variant
    a2 = content["alpha2_level1"]
    if a2["detected"] != ["1", "-2", "1"] or a2["adjusted"][0] != "equal":
        failures.append(("alpha2_level1", a2))
    if a2["literal"] != ["mismatch", [2]]:
        failures.append(("alpha2_level1 literal", a2))
    # alpha3's row follows an order-6 law matching neither variant
    a3 = content["alpha3_level1"]
    if a3["detected"] != ["0", "1", "-3", "-1", "0", "1"] or a3["onset"] != 8:
        failures.append(("alpha3_level1", a3))
    if a3["literal"][0] != "mismatch" or a3["adjusted"][0] != "mismatch":
        failures.append(("alpha3_level1 variants", a3))
    status = "PASS" if not failures else "FAIL"
    print("findings %s (%.1fs) deterministic audit snapshot" % (status, time.monotonic() - t0))
    assert not failures, failures
