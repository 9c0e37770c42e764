from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pisotlab.errors import (
    InvalidParameters,
    NoRecurrenceFound,
    PisotLabError,
    VariantInapplicable,
)
from pisotlab.catalog import load_catalog
from pisotlab.field import NumberField
from pisotlab.poly import (
    IntPolynomial,
    alpha_poly,
    beta_poly,
    delta2_poly,
    plastic_poly,
    poly_from_terms,
)
from pisotlab import recurrence
from pisotlab.recurrence import (
    VARIANTS,
    PredictedRecurrence,
    Recurrence,
    characteristic_of,
    compare_recurrence,
    detect_recurrence,
    modular_extend,
    predicted_recurrence,
)
from pisotlab.transform import build_table

LUCAS = [2, 1, 3, 4, 7, 11, 18, 29, 47, 76, 123, 199, 322, 521, 843, 1364]
PERRIN = [3, 0, 2, 3, 2, 5, 5, 7, 10, 12, 17, 22, 29, 39, 51, 68, 90, 119]


def test_detect_lucas() -> None:
    r = detect_recurrence(LUCAS)
    assert (r.order, tuple(r.coeffs), r.onset) == (2, (1, 1), 0)
    assert r.is_integral
    # the relation extends the sequence by the next Lucas number
    assert sum(c * LUCAS[-k] for k, c in enumerate(r.coeffs, start=1)) == 1364 + 843


def test_detect_perrin() -> None:
    r = detect_recurrence(PERRIN)
    assert (r.order, tuple(r.coeffs)) == (3, (0, 1, 1))
    assert r.onset == 0


def test_detect_with_garbage_prefix() -> None:
    seq = [9, -4, 77] + LUCAS
    r = detect_recurrence(seq)
    assert (r.order, tuple(r.coeffs)) == (2, (1, 1))
    # the relation holds from seq[5] = seq[4] + seq[3] onward, so the first
    # index the law may reference is 3
    assert r.onset == 3


def test_detect_rational_coefficients() -> None:
    seq = [1024 * 3**i // 2**i for i in range(11)]  # u_i = (3/2) u_{i-1}
    r = detect_recurrence(seq)
    assert r.order == 1
    assert r.coeffs == (Fraction(3, 2),)
    assert not r.is_integral


def test_detect_too_short_raises() -> None:
    with pytest.raises(NoRecurrenceFound):
        detect_recurrence([1, 2, 3, 4, 5][:5])


def test_detect_no_recurrence() -> None:
    rng = random.Random(2)
    seq = [rng.randint(-100, 100) for _ in range(24)]
    with pytest.raises(NoRecurrenceFound):
        detect_recurrence(seq)


def test_detect_random_recurrences_roundtrip() -> None:
    # structured like the acceptance gate, small: random integral recurrences
    # with garbage prefixes must be recovered exactly
    rng = random.Random(101)
    for _ in range(40):
        order = rng.randint(1, 4)
        coeffs = [rng.randint(-4, 4) for _ in range(order)]
        if all(c == 0 for c in coeffs):
            coeffs[0] = 1
        prefix = [rng.randint(-9, 9) for _ in range(rng.randint(0, 5))]
        seed = [rng.randint(-9, 9) for _ in range(order)]
        seq = prefix + seed
        while len(seq) < len(prefix) + order + 2 * order + 14:
            seq.append(sum(c * seq[-k] for k, c in enumerate(coeffs, start=1)))
        r = detect_recurrence(seq)
        # the detected law must reproduce the tail it claims
        start = r.onset + r.order
        for i in range(start, len(seq)):
            assert seq[i] == sum(
                c * seq[i - k] for k, c in enumerate(r.coeffs, start=1)
            )
        assert r.order <= order


def test_characteristic_of() -> None:
    r = Recurrence(order=2, coeffs=(1, 1), onset=0)
    assert characteristic_of(r) == IntPolynomial.from_coeffs([-1, -1, 1])
    frac = Recurrence(order=1, coeffs=(Fraction(3, 2),), onset=0)
    with pytest.raises(InvalidParameters):
        characteristic_of(frac)


def test_zero_iterate_prediction_is_companion() -> None:
    pred = predicted_recurrence(delta2_poly(), "zero_iterate")
    assert pred.level == 0
    assert pred.coeffs == (1, 2, 0, -1)
    assert pred.characteristic() == delta2_poly()


def test_zero_iterate_golden() -> None:
    pred = predicted_recurrence(IntPolynomial.from_coeffs([-1, -1, 1]), "zero_iterate")
    assert pred.coeffs == (1, 1)


def test_top_iterate_parity_rule_even_degree() -> None:
    p = IntPolynomial.from_coeffs([-1, 1, -1, 0, 1, -2, 1])
    pred = predicted_recurrence(p, "top_iterate_1deg")
    assert pred.level == 4
    # even degree: flip the sign of odd-index coefficients
    assert pred.coeffs == (-1, -1, 0, 1, 2, 1)


def test_top_iterate_parity_rule_odd_degree() -> None:
    p = IntPolynomial.from_coeffs([-1, 0, 0, 0, -1, 1])  # x^5 - x^4 - 1
    pred = predicted_recurrence(p, "top_iterate_1deg")
    assert pred.level == 3
    # odd degree: coefficients a_1..a_d taken as they stand
    assert pred.coeffs == (0, 0, 0, -1, 1)


def test_top_iterate_exclusions() -> None:
    with pytest.raises(VariantInapplicable):
        predicted_recurrence(plastic_poly(), "top_iterate_1deg")
    with pytest.raises(VariantInapplicable):
        predicted_recurrence(alpha_poly(3), "top_iterate_1deg")
    with pytest.raises(VariantInapplicable):
        predicted_recurrence(delta2_poly(), "top_iterate_1deg")
    with pytest.raises(VariantInapplicable):
        predicted_recurrence(IntPolynomial.from_coeffs([-1, -1, 1]), "top_iterate_1deg")


def test_alpha_form_variants_differ_at_middle_lag() -> None:
    stated = predicted_recurrence(alpha_poly(2), "alpha_form")
    adjusted = predicted_recurrence(alpha_poly(2), "alpha_form_adjusted")
    assert stated.coeffs == (1, -8, 1)
    assert adjusted.coeffs == (1, -2, 1)
    # at n=3 the two readings coincide... no: (-2)^4=16 vs 2*(-1)^4=2
    stated3 = predicted_recurrence(alpha_poly(3), "alpha_form")
    adjusted3 = predicted_recurrence(alpha_poly(3), "alpha_form_adjusted")
    assert stated3.coeffs == (-1, 0, 16, 1)
    assert adjusted3.coeffs == (-1, 0, 2, 1)


def test_beta_variant_shapes() -> None:
    odd = predicted_recurrence(beta_poly(3), "beta_odd")
    assert odd.coeffs == (1, -1, 1, 1)
    even = predicted_recurrence(beta_poly(2), "beta_even")
    assert even.coeffs == (-1, -1, 1)
    with pytest.raises(VariantInapplicable):
        predicted_recurrence(beta_poly(2), "beta_odd")
    with pytest.raises(VariantInapplicable):
        predicted_recurrence(beta_poly(3), "beta_even")


def _level_one_row(p: IntPolynomial) -> list[int]:
    _, seq = build_table(NumberField.from_poly(p), 1, 1, 60).u_sequence(1)
    return seq


def test_top_iterate_rule_holds_for_unit_constant_term() -> None:
    # x^3 - 3x^2 - x - 1: a_0 = -1, so the parity rule is the recurrence of
    # row d-2, and detection finds exactly it
    p = IntPolynomial.from_coeffs([-1, -1, -3, 1])
    pred = predicted_recurrence(p, "top_iterate_1deg")
    detected = detect_recurrence(_level_one_row(p))
    assert compare_recurrence(detected, pred).verdict == "equal"


def test_top_iterate_rule_refuted_for_other_constant_term() -> None:
    # x^3 - 3x^2 - x + 1: a_0 = +1, and row d-2 follows a law that differs
    # from the prediction at lag 2
    p = IntPolynomial.from_coeffs([1, -1, -3, 1])
    pred = predicted_recurrence(p, "top_iterate_1deg")
    detected = detect_recurrence(_level_one_row(p))
    assert tuple(detected.coeffs) == (-1, 3, 1)
    assert pred.coeffs == (-1, -3, 1)
    comparison = compare_recurrence(detected, pred)
    assert comparison.verdict == "mismatch"
    assert comparison.mismatch_positions == (2,)


def _reference_prediction(min_poly: IntPolynomial, variant: str):
    """The variant-by-variant prediction code the parity rule replaced."""
    if variant not in VARIANTS:
        raise InvalidParameters(f"unknown variant {variant!r}")
    if not min_poly.is_monic:
        raise InvalidParameters("minimal polynomial must be monic")
    d = min_poly.degree
    if variant == "zero_iterate":
        if d < 1:
            raise VariantInapplicable("zero_iterate needs degree >= 1")
        return 0, tuple(-min_poly.coeff(d - i) for i in range(1, d + 1))
    if variant == "top_iterate_1deg":
        if d < 3:
            raise VariantInapplicable("top_iterate_1deg needs degree >= 3")
        if min_poly == plastic_poly():
            raise VariantInapplicable("the plastic number is excluded")
        if min_poly in (alpha_poly(d - 1), beta_poly(d - 1), delta2_poly()):
            raise VariantInapplicable(
                "limit-point polynomial; use the alpha/beta variants"
            )
        if d % 2 == 1:
            coeffs = tuple(min_poly.coeff(j) for j in range(1, d + 1))
        else:
            coeffs = tuple(
                min_poly.coeff(j) if j % 2 == 0 else -min_poly.coeff(j)
                for j in range(1, d + 1)
            )
        return d - 2, coeffs
    n = d - 1
    if variant in ("alpha_form", "alpha_form_adjusted"):
        if n < 2 or min_poly != alpha_poly(n):
            raise VariantInapplicable(
                "alpha_form applies to alpha_poly(n) with n >= 2"
            )
        mid = (-2) ** (n + 1) if variant == "alpha_form" else 2 * (-1) ** (n + 1)
        terms = {1: (-1) ** n, n: mid, n + 1: 1}
        return n - 1, tuple(terms.get(i, 0) for i in range(1, n + 2))
    if variant == "beta_odd":
        if n < 3 or n % 2 == 0 or min_poly != beta_poly(n):
            raise VariantInapplicable(
                "beta_odd applies to beta_poly(n) with odd n >= 3"
            )
        return n - 1, tuple(1 if i % 2 == 1 else -1 for i in range(1, n + 1)) + (1,)
    if n < 2 or n % 2 == 1 or min_poly != beta_poly(n):
        raise VariantInapplicable(
            "beta_even applies to beta_poly(n) with even n >= 2"
        )
    return n - 1, (-1,) * n + (1,)


def _prediction_outcome(predict, p: IntPolynomial, variant: str):
    try:
        result = predict(p, variant)
    except PisotLabError as exc:
        return type(exc), str(exc)
    if isinstance(result, tuple):
        return result
    assert result.variant == variant
    return result.level, result.coeffs


def test_predicted_recurrence_matches_reference() -> None:
    rng = random.Random(7)
    polys = [alpha_poly(n) for n in range(1, 41)] + [beta_poly(n) for n in range(1, 41)]
    polys += [delta2_poly(), plastic_poly(), IntPolynomial.from_coeffs([1])]
    for _ in range(2500):
        d = rng.randint(1, 9)
        lower = [rng.randint(-3, 3) for _ in range(d)]
        if rng.random() < 0.5:
            lower[0] = -1
        polys.append(IntPolynomial.from_coeffs(lower + [1]))
    polys.append(IntPolynomial.from_coeffs([-1, 1, 2]))  # not monic
    for p in polys:
        for variant in VARIANTS + ("bogus",):
            new = _prediction_outcome(predicted_recurrence, p, variant)
            assert new == _prediction_outcome(_reference_prediction, p, variant), (p, variant)


def test_prediction_characteristic_matches_coefficients() -> None:
    # x^order - b_1 x^(order-1) - ... - b_order, stated directly
    for p, variant in [(alpha_poly(n), "alpha_form") for n in range(2, 8)] + [
        (beta_poly(n), "beta_even") for n in (2, 4, 6)
    ]:
        pred = predicted_recurrence(p, variant)
        terms = [(pred.order, 1)] + [
            (pred.order - k, -c) for k, c in enumerate(pred.coeffs, start=1)
        ]
        assert pred.characteristic() == poly_from_terms(terms)


def test_unknown_variant_rejected() -> None:
    with pytest.raises(InvalidParameters):
        predicted_recurrence(delta2_poly(), "bogus")


def test_compare_equal_and_mismatch() -> None:
    det = detect_recurrence(LUCAS)
    eq = compare_recurrence(
        det, PredictedRecurrence(variant="zero_iterate", level=0, coeffs=(1, 1))
    )
    assert eq.verdict == "equal"
    mis = compare_recurrence(
        det, PredictedRecurrence(variant="zero_iterate", level=0, coeffs=(1, -1))
    )
    assert mis.verdict == "mismatch"
    assert mis.mismatch_positions == (2,)


def test_compare_equal_up_to_onset() -> None:
    det = detect_recurrence(LUCAS)  # x^2 - x - 1
    # predicted (x^2 - x - 1)(x - 1) = x^3 - 2x^2 + 1: a non-minimal law
    bigger = PredictedRecurrence(variant="zero_iterate", level=0, coeffs=(2, 0, -1))
    assert compare_recurrence(det, bigger).verdict == "equal_up_to_onset"


def test_modular_extend_matches_direct() -> None:
    r = Recurrence(order=2, coeffs=(1, 1), onset=0)
    for p in (3, 7, 101, 997):
        for target in (0, 1, 5, 15, 60, 500):
            direct = _nth_lucas(target) % p
            assert modular_extend(r, LUCAS[:2], p, target) == direct


def _nth_lucas(n: int) -> int:
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_modular_extend_random_against_bruteforce() -> None:
    rng = random.Random(55)
    for _ in range(30):
        order = rng.randint(1, 5)
        coeffs = tuple(rng.randint(-5, 5) for _ in range(order))
        init = [rng.randint(-20, 20) for _ in range(order)]
        r = Recurrence(order=order, coeffs=coeffs, onset=0)
        p = rng.choice([2, 3, 5, 13, 97, 569])
        seq = list(init)
        for _ in range(90):
            seq.append(sum(c * seq[-k] for k, c in enumerate(coeffs, start=1)))
        idx = rng.randint(0, len(seq) - 1)
        assert modular_extend(r, init, p, idx) == seq[idx] % p


def test_modular_extend_respects_onset() -> None:
    r = Recurrence(order=2, coeffs=(1, 1), onset=4)
    with pytest.raises(InvalidParameters, match="^index 2 precedes the recurrence onset 4$"):
        modular_extend(r, [7, 11], 5, 2)
    # the initial terms sit at the onset: u_4 = 7, u_5 = 11, u_6 = 18
    assert modular_extend(r, [7, 11], 5, 4) == 2
    assert modular_extend(r, [7, 11], 5, 6) == 3


def test_modular_extend_validation() -> None:
    r = Recurrence(order=2, coeffs=(1, 1), onset=0)
    with pytest.raises(InvalidParameters):
        modular_extend(r, [1], 5, 3)
    with pytest.raises(InvalidParameters):
        modular_extend(r, [1, 2], 1, 3)
    frac = Recurrence(order=1, coeffs=(Fraction(1, 2),), onset=0)
    with pytest.raises(InvalidParameters):
        modular_extend(frac, [4], 5, 3)


# -- differential tests against the Fraction / companion-matrix kernels --------


def _reference_solve(rows, rhs, j):
    m = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(rows, rhs)]
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(j):
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if m[i][j] != 0 and all(m[i][c] == 0 for c in range(j)):
            return None
    sol = [Fraction(0)] * j
    for row_idx, c in enumerate(pivots):
        sol[c] = m[row_idx][j]
    return sol


def _reference_holds_at(seq, b, i):
    return seq[i] == sum(c * seq[i - 1 - k] for k, c in enumerate(b))


def _reference_detect(seq):
    """detect_recurrence as it was, Gauss-Jordan over Fraction."""
    seq = list(seq)
    length = len(seq)
    cap = length // 2 - 2
    if cap < 1:
        raise NoRecurrenceFound(f"sequence of length {length} is too short")
    for j in range(1, cap + 1):
        w = 2 * j + 4
        first_eq = length - w + j
        rows = [[seq[i - k] for k in range(1, j + 1)] for i in range(first_eq, length)]
        rhs = [seq[i] for i in range(first_eq, length)]
        b = _reference_solve(rows, rhs, j)
        if b is None:
            continue
        if not all(_reference_holds_at(seq, b, i) for i in range(first_eq, length)):
            continue
        last_bad = -1
        for i in range(j, length):
            if not _reference_holds_at(seq, b, i):
                last_bad = i
        onset = max(0, last_bad + 1 - j)
        coeffs = tuple(int(c) if c.denominator == 1 else c for c in b)
        return Recurrence(order=j, coeffs=coeffs, onset=onset)
    raise NoRecurrenceFound(
        f"no linear recurrence of order <= {cap} fits the sequence tail"
    )


def _outcome(f, *args):
    """f's value, or the type and message of the library error it raised."""
    try:
        return f(*args)
    except PisotLabError as exc:
        return type(exc), str(exc)


def _catalog_rows(n_hi):
    rows = []
    for entry in load_catalog():
        table = build_table(NumberField.from_poly(entry.poly), entry.degree - 1, 1, n_hi)
        rows += [table.u_sequence(k)[1] for k in range(entry.degree)]
    return rows


def test_detect_matches_reference_on_catalog_rows() -> None:
    # n <= 40 keeps the Fraction reference to about a second; the golden
    # CLI test covers the suite's longer rows through their output
    for seq in _catalog_rows(40):
        assert _outcome(detect_recurrence, seq) == _outcome(_reference_detect, seq)


@st.composite
def _recurrence_rows(draw):
    """Rows of length 0..40: noise, zero, constant and alternating runs,
    sparse rows (rank-deficient systems), planted integer recurrences after
    a noisy prefix, and sums of rational geometric terms (a / q)^i scaled
    by q^length (rational coefficients)."""
    kind = draw(st.sampled_from(
        ["noise", "zero", "constant", "alternating", "sparse", "planted", "rational"]
    ))
    length = draw(st.integers(0, 40))
    small = st.integers(-3, 3)
    if kind == "noise":
        return draw(st.lists(small, min_size=length, max_size=length))
    if kind == "zero":
        return [0] * length
    if kind in ("constant", "alternating"):
        v = draw(small)
        return [v * (-1) ** i if kind == "alternating" else v for i in range(length)]
    if kind == "sparse":
        spots = draw(st.lists(st.integers(0, max(0, length - 1)), max_size=3))
        return [draw(small) if i in spots else 0 for i in range(length)]
    if kind == "planted":
        coeffs = draw(st.lists(small, min_size=1, max_size=6))
        seq = draw(st.lists(st.integers(-9, 9), min_size=len(coeffs), max_size=len(coeffs)))
        while len(seq) < length:
            seq.append(sum(c * seq[-k] for k, c in enumerate(coeffs, start=1)))
        prefix = draw(st.lists(st.integers(-9, 9), max_size=5))
        return (prefix + seq)[:length]
    q = draw(st.sampled_from([2, 3, 4]))
    terms = draw(st.lists(st.tuples(st.integers(-4, 4), small), min_size=1, max_size=3))
    return [sum(w * a**i * q ** (length - i) for a, w in terms) for i in range(length)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_recurrence_rows())
def test_detect_matches_reference(seq) -> None:
    assert _outcome(detect_recurrence, seq) == _outcome(_reference_detect, seq)


# -- the prime filter against detection without it ----------------------------


def _unfiltered_solve(m, j, solves):
    """_solve_exact as it was before the prime filter, counting its calls."""
    solves[0] += 1
    pivots = []
    r = 0
    for c in range(j):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow, pv = m[r], m[r][c]
        for i, row in enumerate(m):
            f = row[c]
            if i != r and f:
                row = [pv * a - f * b for a, b in zip(row, prow)]
                g = math.gcd(*row)
                m[i] = [a // g for a in row] if g > 1 else row
        pivots.append(c)
        r += 1
    if any(row[j] for row in m[r:]):
        return None
    sol = [Fraction(0)] * j
    for i, c in enumerate(pivots):
        sol[c] = Fraction(m[i][j], m[i][c])
    return sol


def _unfiltered_detect(seq, solves=None):
    """detect_recurrence as it was before the prime filter: one fraction-free
    exact solve per order until one fits."""
    solves = [0] if solves is None else solves
    seq = list(seq)
    length = len(seq)
    cap = length // 2 - 2
    if cap < 1:
        raise NoRecurrenceFound(f"sequence of length {length} is too short")
    for j in range(1, cap + 1):
        rows = [
            [seq[i - k] for k in range(1, j + 1)] + [seq[i]]
            for i in range(length - j - 4, length)
        ]
        b = _unfiltered_solve(rows, j, solves)
        if b is None:
            continue
        den = math.lcm(*(c.denominator for c in b))
        ib = [c.numerator * (den // c.denominator) for c in b]
        i = length
        while i > j and den * seq[i - 1] == sum(
            c * seq[i - 2 - k] for k, c in enumerate(ib)
        ):
            i -= 1
        coeffs = tuple(int(c) if c.denominator == 1 else c for c in b)
        return Recurrence(order=j, coeffs=coeffs, onset=max(0, i - j))
    raise NoRecurrenceFound(
        f"no linear recurrence of order <= {cap} fits the sequence tail"
    )


def _field_rows(poly, n_hi):
    table = build_table(NumberField.from_poly(poly), poly.degree - 1, 1, n_hi)
    return [table.u_sequence(k)[1] for k in range(poly.degree)]


@pytest.fixture(scope="module")
def filter_rows():
    """Every catalog row at n <= 199, alpha and beta 1-5 at n <= 97 and 5-8
    at n <= 60, each with the unfiltered outcome, and the number of exact
    solves the unfiltered detection made on them."""
    rows = _catalog_rows(199)
    for n, n_hi in [(n, 97) for n in range(1, 6)] + [(n, 60) for n in range(5, 9)]:
        rows += _field_rows(alpha_poly(n), n_hi) + _field_rows(beta_poly(n), n_hi)
    solves = [0]
    return [(seq, _outcome(_unfiltered_detect, seq, solves)) for seq in rows], solves[0]


# the default prime, and primes small enough that the exact fallback runs often
FILTER_PRIMES = [recurrence._FILTER_PRIME, 2, 3]


@pytest.mark.parametrize("prime", FILTER_PRIMES)
def test_filtered_detection_matches_unfiltered_on_field_rows(
    monkeypatch, filter_rows, prime
) -> None:
    monkeypatch.setattr(recurrence, "_FILTER_PRIME", prime)
    rows, _ = filter_rows
    for seq, expected in rows:
        assert _outcome(detect_recurrence, seq) == expected


def test_filter_leaves_one_exact_solve_per_recurrence(monkeypatch, filter_rows) -> None:
    rows, unfiltered_solves = filter_rows
    solves = [0]
    solve = recurrence._solve_exact

    def counted(m, j):
        solves[0] += 1
        return solve(m, j)

    monkeypatch.setattr(recurrence, "_solve_exact", counted)
    found = 0
    for seq, expected in rows:
        before = solves[0]
        outcome = _outcome(detect_recurrence, seq)
        # the solve that finds the order is the only one; a row without a
        # recurrence is refuted mod p at every order
        if isinstance(outcome, Recurrence):
            found += 1
            assert solves[0] - before == 1, seq
        else:
            assert solves[0] == before, seq
    assert (len(rows), found, solves[0], unfiltered_solves) == (123, 90, 90, 1461)


@st.composite
def _planted_long_rows(draw):
    """Planted recurrences of order <= 12 with coefficients up to 10**6 in
    size after a noisy head, at length <= 120."""
    order = draw(st.integers(1, 12))
    coeffs = draw(st.lists(st.integers(-10**6, 10**6), min_size=order, max_size=order))
    head = draw(st.lists(st.integers(-10**6, 10**6), max_size=8))
    seq = draw(st.lists(st.integers(-9, 9), min_size=order, max_size=order))
    length = draw(st.integers(0, 120))
    while len(head) + len(seq) < length:
        seq.append(sum(c * seq[-k] for k, c in enumerate(coeffs, start=1)))
    return (head + seq)[:length]


@pytest.mark.parametrize("prime", FILTER_PRIMES)
@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(_recurrence_rows(), _planted_long_rows()))
def test_filtered_detection_matches_unfiltered(prime, seq) -> None:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recurrence, "_FILTER_PRIME", prime)
        assert _outcome(detect_recurrence, seq) == _outcome(_unfiltered_detect, seq)


def _reference_extend(r, initial_terms, p, target_index):
    """modular_extend as it was, by companion-matrix powers."""
    if not r.is_integral:
        raise InvalidParameters("modular extension needs integer coefficients")
    j = r.order
    if len(initial_terms) != j:
        raise InvalidParameters(f"need exactly {j} initial terms")
    if p < 2:
        raise InvalidParameters("modulus must be >= 2")
    if target_index < r.onset:
        raise InvalidParameters(
            f"index {target_index} precedes the recurrence onset {r.onset}"
        )
    if target_index < r.onset + j:
        return initial_terms[target_index - r.onset] % p
    mat = [[0] * j for _ in range(j)]
    mat[0] = [int(c) % p for c in r.coeffs]
    for i in range(1, j):
        mat[i][i - 1] = 1
    power = [[int(i == k) for k in range(j)] for i in range(j)]
    e = target_index - (r.onset + j - 1)
    while e:
        if e & 1:
            power = _reference_mat_mul(power, mat, p)
        mat = _reference_mat_mul(mat, mat, p)
        e >>= 1
    state = [initial_terms[j - 1 - i] % p for i in range(j)]
    return sum(power[0][i] * state[i] for i in range(j)) % p


def _reference_mat_mul(a, b, p):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][col] for k in range(n)) % p for col in range(n)]
        for i in range(n)
    ]


@st.composite
def _extensions(draw):
    order = draw(st.integers(1, 20))
    coeffs = tuple(draw(st.lists(
        st.integers(-10**6, 10**6), min_size=order, max_size=order
    )))
    init = draw(st.lists(st.integers(-10**9, 10**9), min_size=order, max_size=order))
    p = draw(st.one_of(st.sampled_from([2, 3, 97, 569, 2**61 - 1]), st.integers(2, 10**9)))
    onset = draw(st.integers(0, 50))
    target = draw(st.integers(max(0, onset - 3), onset + 10**6))
    return Recurrence(order=order, coeffs=coeffs, onset=onset), init, p, target


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_extensions())
def test_modular_extend_matches_reference(drawn) -> None:
    assert _outcome(modular_extend, *drawn) == _outcome(_reference_extend, *drawn)
