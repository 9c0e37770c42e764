from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pisotlab.catalog import load_catalog
import pisotlab.certify
import pisotlab.field
import pisotlab.transform
from pisotlab.certify import NEWTON_START_BITS, newton_root, refine_root, sign_at
from pisotlab.errors import InvalidParameters, PrecisionExhausted
from pisotlab.field import CAP_BITS, START_BITS, THETA_MARGIN_BITS, NumberField
from pisotlab.intervals import DyadicInterval, RatInterval
from pisotlab.poly import IntPolynomial, alpha_poly
from pisotlab.transform import (
    CELL_LIMIT,
    EXPONENT_LIMIT,
    IterateCell,
    MagEntry,
    build_table,
    frac_magnitudes,
    iterate_column,
)

GOLDEN = NumberField.from_poly([-1, -1, 1])
SILVER = NumberField.from_poly([-1, -2, 1])
PLASTIC = NumberField.from_poly([-1, -1, 0, 1])


def _rat(iv: DyadicInterval) -> RatInterval:
    """The same interval with Fraction endpoints."""
    return RatInterval(Fraction(iv.lo_man, 1 << iv.exp), Fraction(iv.hi_man, 1 << iv.exp))


def test_level0_is_nearest_integers_of_powers() -> None:
    table = build_table(GOLDEN, 0, 1, 20)
    for n in range(1, 21):
        assert table.u(0, n) == GOLDEN.round_with_enclosure(GOLDEN.theta_power(n))[0]


def test_iterate_column_definition() -> None:
    # one step at exponent n: x -> theta^n (x - [x])
    x = GOLDEN.theta_power(5)
    cells = list(iterate_column(GOLDEN, 5, 1))
    assert [c.level for c in cells] == [0, 1]
    assert cells[0].element == x
    assert cells[0].integer_part == 11
    assert cells[1].element == GOLDEN.element_mul(
        GOLDEN.theta_power(5), (x[0] - 11,) + x[1:]
    )


def test_golden_level1_alternates_and_is_exact() -> None:
    table = build_table(GOLDEN, 1, 1, 30)
    for n in range(2, 31):
        cell = table.cell(1, n)
        assert cell.integer_part == (1 if n % 2 else -1)
        assert cell.exact_zero
    assert not table.cell(1, 1).exact_zero


def test_exact_zero_cells_propagate_zeros() -> None:
    # once the fractional part is exactly zero, deeper levels stay zero
    table = build_table(GOLDEN, 4, 2, 10)
    for n in range(2, 11):
        for k in range(2, 5):
            cell = table.cell(k, n)
            assert cell.integer_part == 0
            assert cell.exact_zero
            magnitude = _rat(cell.magnitude)
            assert magnitude.lo == 0 and magnitude.hi == 0


def test_magnitude_encloses_fractional_part() -> None:
    table = build_table(PLASTIC, 2, 1, 25)
    for cell in table.cells_at_level(1):
        magnitude = _rat(cell.magnitude)
        assert magnitude.lo >= 0
        assert magnitude.hi <= Fraction(1, 2)


def test_silver_level1_alternates_from_n1() -> None:
    # powers of 1+sqrt(2): the level-1 integer part is -(-1)^n exactly,
    # because theta^n (theta^n - u0) = -(-1)^n + (integer) * theta
    table = build_table(SILVER, 1, 1, 12)
    vals = [table.u(1, n) for n in range(1, 13)]
    assert vals == [1, -1] * 6
    assert all(table.cell(1, n).exact_zero for n in range(1, 13))


def test_u_sequence_contiguous_prefix() -> None:
    table = build_table(GOLDEN, 1, 1, 10)
    n_lo, seq = table.u_sequence(0)
    assert n_lo == 1
    assert seq == [2, 3, 4, 7, 11, 18, 29, 47, 76, 123]


def test_cell_out_of_range_raises() -> None:
    table = build_table(GOLDEN, 1, 1, 5)
    with pytest.raises(InvalidParameters):
        table.cell(0, 6)
    with pytest.raises(InvalidParameters):
        table.cell(2, 3)


def test_build_table_argument_validation() -> None:
    with pytest.raises(InvalidParameters):
        build_table(GOLDEN, -1, 1, 5)
    with pytest.raises(InvalidParameters):
        build_table(GOLDEN, 0, 0, 5)
    with pytest.raises(InvalidParameters):
        build_table(GOLDEN, 0, 7, 5)


def test_exponent_bound_is_inclusive() -> None:
    top = EXPONENT_LIMIT
    assert build_table(GOLDEN, 0, top, top).u(0, top) > 0
    message = "exponents run up to %d, not %d" % (top, top + 1)
    with pytest.raises(InvalidParameters, match=message):
        build_table(GOLDEN, 0, top + 1, top + 1)


def test_cell_bound_is_inclusive() -> None:
    # x - 2: every cell is an integer, so tables at the bound are cheap
    f2 = NumberField.from_poly([-2, 1])
    top = CELL_LIMIT
    # six levels to EXPONENT_LIMIT, the size of atypical's table there
    assert 6 * EXPONENT_LIMIT == top
    assert build_table(f2, 5, 1, EXPONENT_LIMIT).u(5, EXPONENT_LIMIT) == 0
    for k_max, n_lo, n_hi in ((top, 1, 1), (6, 1, 5143), (7, 1001, 5501)):
        cells = (k_max + 1) * (n_hi - n_lo + 1)
        with pytest.raises(InvalidParameters, match="^tables hold up to %d cells, not %d$" % (top, cells)):
            build_table(f2, k_max, n_lo, n_hi)


def test_alpha2_table_head() -> None:
    # degree-3 field of x^3 - 2x^2 + x - 1, root 1.7548776...; row checked
    # against a 60-digit direct evaluation of nint(theta^n)
    field = NumberField.from_poly(alpha_poly(2))
    table = build_table(field, 2, 1, 12)
    assert [table.u(0, n) for n in range(1, 9)] == [2, 3, 5, 9, 17, 29, 51, 90]


def test_frac_magnitudes_orders_pairs() -> None:
    table = build_table(GOLDEN, 0, 1, 20)
    row = frac_magnitudes(table, 0)
    assert len(row.entries) == 20
    # phi - 2 and phi^2 - 3 are the *same* field element (phi^2 = phi + 1),
    # so the first pair ties exactly; afterwards |psi|^n strictly decreases
    assert row.pair_order[0] == "eq"
    assert all(s == "gt" for s in row.pair_order[1:])
    assert row.incomparable_pairs() == []


@lru_cache(maxsize=None)
def _catalog_table(name: str):
    entry = load_catalog().get(name)
    field = NumberField.from_poly(entry.poly)
    return build_table(field, field.degree - 1, 1, 200)


@pytest.mark.parametrize("entry", list(load_catalog()), ids=lambda e: e.name)
def test_catalog_cells_certify_on_first_pass(entry) -> None:
    # outward rounding of the enclosures must never cost a cell a doubling
    table = _catalog_table(entry.name)
    assert not table.failures
    for k in range(table.k_max + 1):
        for cell in table.cells_at_level(k):
            size = max(abs(c) for c in cell.element).bit_length()
            first = 0 if not any(cell.element[1:]) else START_BITS + size
            assert cell.bits == first, (k, cell.n)
        assert frac_magnitudes(table, k).incomparable_pairs() == []


def _reference_status(a: MagEntry, b: MagEntry) -> str | None:
    if a._diff == b._diff or a._diff == tuple(-c for c in b._diff):
        return "eq"
    ia, ib = _rat(a.interval), _rat(b.interval)
    if ia.hi < ib.lo:
        return "lt"
    if ib.hi < ia.lo:
        return "gt"
    return None


def _reference_pair_order(table, k: int) -> tuple[str | None, ...]:
    """pair_order by the earlier rule: an undecided pair refines both of its
    non-zero entries, until either reaches the cap."""
    entries = [MagEntry(c) for c in table.cells_at_level(k)]
    order = []
    for a, b in zip(entries, entries[1:]):
        status = _reference_status(a, b)
        while status is None and max(a.bits, b.bits) < pisotlab.transform.COMPARATOR_CAP_BITS:
            for e in (a, b):
                if not e.exact_zero:
                    e.refine(table.field)
            status = _reference_status(a, b)
        order.append(status)
    return tuple(order)


@pytest.mark.parametrize("entry", list(load_catalog()), ids=lambda e: e.name)
def test_pair_order_matches_the_refine_both_rule_on_the_catalog(entry) -> None:
    table = _catalog_table(entry.name)
    for k in range(table.k_max + 1):
        assert frac_magnitudes(table, k).pair_order == _reference_pair_order(table, k), k


@st.composite
def _perron_polys(draw) -> list[int]:
    # |a_{d-1}| > 1 + sum of the other |a_i| (a_0 != 0) leaves d - 1 roots
    # inside the unit circle, so a negative a_{d-1} makes a Pisot polynomial
    d = draw(st.integers(2, 6))
    low = [draw(st.sampled_from([-2, -1, 1, 2]))]
    low += draw(st.lists(st.integers(-2, 2), min_size=d - 2, max_size=d - 2))
    top = 2 + sum(abs(c) for c in low) + draw(st.integers(0, 2))
    return low + [-top, 1]


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(_perron_polys(), st.integers(2, 120))
def test_pair_order_matches_the_refine_both_rule_on_pisot_polys(coeffs, n_hi) -> None:
    field = NumberField.from_poly(coeffs)
    table = build_table(field, field.degree - 1, 1, n_hi)
    for k in range(table.k_max + 1):
        assert frac_magnitudes(table, k).pair_order == _reference_pair_order(table, k), k


# -- the Fraction path the dyadic enclosures replaced --------------------------


class _FractionPath:
    """Enclosures, certified rounding and magnitude ordering as they were
    computed on Fraction endpoints, counting enclosure calls.  It reads only
    the field's exact ring operations and theta's enclosure."""

    def __init__(self, field: NumberField):
        self.field = field
        self.evals = 0

    def eval_interval(self, a, bits: int) -> RatInterval:
        """Horner on integer mantissas with no state kept between calls,
        then one Fraction per endpoint."""
        self.evals += 1
        if not any(a[1:]):
            return RatInterval.point(Fraction(a[0]))
        tv = self.field.theta_enclosure(bits)
        w = tv.width
        s = max(bits, w.denominator.bit_length() - w.numerator.bit_length()) + 8
        t_lo = (tv.lo.numerator << s) // tv.lo.denominator
        t_hi = -((-tv.hi.numerator << s) // tv.hi.denominator)
        lo = hi = a[-1] << s
        for c in reversed(a[:-1]):
            lo = ((lo * (t_lo if lo >= 0 else t_hi)) >> s) + (c << s)
            hi = -((-hi * (t_hi if hi >= 0 else t_lo)) >> s) + (c << s)
        return RatInterval(Fraction(lo, 1 << s), Fraction(hi, 1 << s))

    def round(self, a) -> tuple[int, RatInterval, int]:
        """The nearest integer by the as_integer_ratio rule."""
        if not any(a[1:]):
            return a[0], self.eval_interval(a, 0), 0
        bits = START_BITS + max(abs(c) for c in a).bit_length()
        while bits <= CAP_BITS:
            e = self.eval_interval(a, bits)
            (ln, ld), (hn, hd) = e.lo.as_integer_ratio(), e.hi.as_integer_ratio()
            z = (ln * hd + hn * ld + ld * hd) // (2 * ld * hd)
            if 2 * ln > (2 * z - 1) * ld and 2 * hn < (2 * z + 1) * hd:
                return z, e, bits
            bits *= 2
        raise PrecisionExhausted("rounding undecided")

    def table(self, k_max: int, n_hi: int) -> dict:
        """(k, n) -> [u, magnitude, bits, exact_zero, diff] for every cell
        rounded before its column's first failure."""
        f, cells = self.field, {}
        for n in range(1, n_hi + 1):
            x = f.theta_power(n)
            try:
                for k in range(k_max + 1):
                    u, e, bits = self.round(x)
                    diff = (x[0] - u,) + x[1:]
                    cells[(k, n)] = [u, e.shift(-u).abs_(), bits, not any(diff), diff]
                    x = f.element_mul(f.theta_power(n), diff)
            except PrecisionExhausted:
                pass
        return cells

    def pair_order(self, row: list) -> tuple[str | None, ...]:
        """Order adjacent magnitudes of a row of cells, refining the looser
        non-zero entry of an undecided pair; the cells end as the final
        entries, with their bits raised to at least 8."""
        for c in row:
            c[2] = max(c[2], 8)
        order = []
        for a, b in zip(row, row[1:]):
            order.append(self._status(a, b))
        return tuple(order)

    def _status(self, a: list, b: list) -> str | None:
        if a[4] == b[4] or a[4] == tuple(-c for c in b[4]):
            return "eq"
        nonzero = [e for e in (a, b) if not e[3]]
        while True:
            if a[1].hi < b[1].lo:
                return "lt"
            if b[1].hi < a[1].lo:
                return "gt"
            loose = min(nonzero, key=lambda e: e[2])
            if loose[2] >= pisotlab.transform.COMPARATOR_CAP_BITS:
                return None
            loose[2] *= 2
            loose[1] = self.eval_interval(loose[4], loose[2]).abs_()


def _assert_same_as_the_fraction_path(monkeypatch, poly, n_hi: int) -> int:
    """Build the table and every magnitude row of ``poly`` to ``n_hi`` on
    dyadic enclosures and on the Fraction path, each on a fresh field, and
    compare every cell, final entry and pair; the enclosure calls, which
    agree, are returned."""
    dyadic = NumberField.from_poly(poly)
    reference = _FractionPath(NumberField(dyadic.min_poly, dyadic.certificate))
    seen = _count_evals(monkeypatch, dyadic)
    k_max = dyadic.degree - 1
    table = build_table(dyadic, k_max, 1, n_hi)
    cells = reference.table(k_max, n_hi)
    assert sorted(table._cells) == sorted(cells)
    for (k, n), (u, magnitude, bits, exact_zero, _) in cells.items():
        cell = table.cell(k, n)
        got = (cell.integer_part, _rat(cell.magnitude), cell.bits, cell.exact_zero)
        assert got == (u, magnitude, bits, exact_zero), (k, n)
    for k in range(k_max + 1):
        row = [cells[(k, n)] for n in range(1, n_hi + 1) if (k, n) in cells]
        if not row:
            continue
        order = reference.pair_order(row)
        got = frac_magnitudes(table, k)
        assert got.pair_order == order, k
        assert [(e.bits, _rat(e.interval)) for e in got.entries] == [
            (c[2], c[1]) for c in row
        ], k
    assert len(seen) == reference.evals
    return reference.evals


def test_dyadic_path_matches_the_fraction_path_on_the_catalog(monkeypatch) -> None:
    # the deep_iterate pass: every catalog field, every level, n <= 400
    evals = sum(
        _assert_same_as_the_fraction_path(monkeypatch, e.poly, 400) for e in load_catalog()
    )
    assert evals == 10311


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(_perron_polys(), st.integers(2, 120))
def test_dyadic_path_matches_the_fraction_path_on_pisot_polys(coeffs, n_hi) -> None:
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_same_as_the_fraction_path(monkeypatch, coeffs, n_hi)


def _count_evals(monkeypatch, field: NumberField) -> list:
    seen = []
    inner = field.eval_interval

    def counted(a, bits):
        seen.append(a)
        return inner(a, bits)

    monkeypatch.setattr(field, "eval_interval", counted)
    return seen


def test_frac_magnitudes_refines_only_the_looser_entry(monkeypatch) -> None:
    # golden_square level 0 at n <= 400, each rule on a fresh field so that
    # both start from the same theta
    poly = load_catalog().get("golden_square").poly
    counts = []
    for rule in (frac_magnitudes, _reference_pair_order):
        table = build_table(NumberField.from_poly(poly), 0, 1, 400)
        seen = _count_evals(monkeypatch, table.field)
        rule(table, 0)
        counts.append(len(seen))
    assert counts == [309, 614]
    assert counts[0] <= 0.6 * counts[1]


def test_frac_magnitudes_never_refines_an_exact_zero(monkeypatch) -> None:
    # golden's level 0 at n = 199 lies within 2**-138 of its integer, so its
    # first enclosure, good to about 2**-64 (theta is refined for n = 200
    # only after it), does not exclude the zero next to it; only that entry
    # refines, and the pair is decided
    field = NumberField.from_poly([-1, -1, 1])
    table = build_table(field, 0, 199, 200)
    table._store(IterateCell(level=0, n=200, element=field.one(), integer_part=1,
                             magnitude=DyadicInterval(0, 0, 0), bits=0,
                             exact_zero=True))
    live = table.cell(0, 199)
    assert _rat(live.magnitude).lo == 0
    seen = _count_evals(monkeypatch, field)
    row = frac_magnitudes(table, 0)
    assert row.pair_order == ("gt",)
    assert seen and set(seen) == {(live.element[0] - live.integer_part,) + live.element[1:]}
    assert row.entries[1].bits == 8


def test_undecided_only_once_both_entries_reach_the_cap(monkeypatch) -> None:
    # at cap 193, silver's level-0 pair (101, 102) starts at 191 and 193
    # bits: the refine-both rule gives up at once, this rule first takes
    # n = 101 to 382 bits
    monkeypatch.setattr(pisotlab.transform, "COMPARATOR_CAP_BITS", 193)
    table = build_table(NumberField.from_poly([-1, -2, 1]), 0, 1, 106)
    assert (table.cell(0, 101).bits, table.cell(0, 102).bits) == (191, 193)
    row = frac_magnitudes(table, 0)
    stuck = row.incomparable_pairs()
    assert stuck[0] == (101, 102)
    by_n = {e.n: e for e in row.entries}
    for pair in stuck:
        assert all(by_n[n].bits >= 193 for n in pair), pair
    assert by_n[101].bits == 382


def test_frac_magnitudes_exact_zero_ties() -> None:
    table = build_table(GOLDEN, 2, 2, 12)
    row = frac_magnitudes(table, 2)
    assert all(s == "eq" for s in row.pair_order)


def test_frac_magnitudes_of_an_empty_level(monkeypatch) -> None:
    # under this cap every column fails at level 0, so a level of the table
    # is empty for want of precision, and one past k_max is a bad argument
    monkeypatch.setattr(pisotlab.field, "CAP_BITS", 32)
    table = build_table(GOLDEN, 1, 1, 5)
    assert sorted(table.failures) == [(0, n) for n in range(1, 6)]
    for k in (0, 1):
        with pytest.raises(PrecisionExhausted, match="^no cells available at level %d$" % k):
            frac_magnitudes(table, k)
    with pytest.raises(InvalidParameters, match="^no cells available at level 2$"):
        frac_magnitudes(table, 2)


def test_cell_of_a_failed_column_names_its_failure(monkeypatch) -> None:
    monkeypatch.setattr(pisotlab.field, "CAP_BITS", 32)
    table = build_table(GOLDEN, 1, 1, 5)
    with pytest.raises(PrecisionExhausted) as exc:
        table.cell(0, 2)
    assert type(exc.value) is PrecisionExhausted
    assert str(exc.value).startswith(
        "cell (level 0, n 2) unavailable: PrecisionExhausted: rounding undecided at 32 bits"
    )


def test_cell_above_a_failed_level_names_the_same_failure(monkeypatch) -> None:
    # column 2 fails at level 0, so level 1 has no cell there either; past
    # k_max the cell is outside the table
    monkeypatch.setattr(pisotlab.field, "CAP_BITS", 32)
    table = build_table(GOLDEN, 1, 1, 5)
    assert table.failures.keys() == {(0, n) for n in range(1, 6)}
    with pytest.raises(PrecisionExhausted) as base:
        table.cell(0, 2)
    with pytest.raises(PrecisionExhausted) as above:
        table.cell(1, 2)
    assert type(above.value) is PrecisionExhausted
    assert str(above.value) == str(base.value).replace("(level 0,", "(level 1,", 1)
    with pytest.raises(InvalidParameters, match=r"cell \(level 2, n 2\) outside the table"):
        table.cell(2, 2)


def test_failures_recorded_not_raised() -> None:
    # the degree-1 field on x - 2, where every iterate is rational: each is an
    # integer (integer coordinates), so level 1 is exactly zero and no cell
    # fails
    f2 = NumberField.from_poly([-2, 1])
    table = build_table(f2, 1, 1, 6)
    assert not table.failures
    for n in range(1, 7):
        assert table.u(0, n) == 2**n
        assert table.u(1, n) == 0


# -- theta by certified Newton steps --------------------------------------------


def _assert_newton_encloses_theta(p: IntPolynomial, iv: RatInterval, bits: int) -> None:
    got = newton_root(p, iv, bits)
    assert got is not None
    assert iv.lo <= got.lo and got.hi <= iv.hi
    assert got.width <= Fraction(1, 1 << bits)
    # on eval_interval's grid 2**-(exp + 8), with exp = bits for this width
    grid = 1 << (bits + 8)
    assert (got.lo * grid).denominator == 1 and (got.hi * grid).denominator == 1
    assert sign_at(p, got.lo) * sign_at(p, got.hi) < 0
    bisected = refine_root(p, iv, bits)
    assert got.lo <= bisected.hi and bisected.lo <= got.hi


@pytest.mark.parametrize("entry", list(load_catalog()), ids=lambda e: e.name)
@pytest.mark.parametrize("start, bits", [(None, 70), (None, 700), (60, 190), (300, 1300)])
def test_newton_root_encloses_theta_on_the_catalog(entry, start, bits) -> None:
    field = NumberField.from_poly(entry.poly)
    p, iv = field.min_poly, field.certificate.dominant_root
    if start is not None:
        iv = refine_root(p, iv, start)
    _assert_newton_encloses_theta(p, iv, bits)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_perron_polys(), st.integers(0, 400), st.integers(THETA_MARGIN_BITS, 800))
def test_newton_root_encloses_theta_on_pisot_polys(coeffs, start, more) -> None:
    # the field refines theta at least THETA_MARGIN_BITS past what it has
    p = IntPolynomial.from_coeffs(coeffs)
    iv = refine_root(p, NumberField.from_poly(p).certificate.dominant_root, start)
    _assert_newton_encloses_theta(p, iv, start + more)


def _table_facts(field: NumberField, n_hi: int) -> tuple:
    table = build_table(field, field.degree - 1, 1, n_hi)
    cells = {
        key: (cell.integer_part, cell.exact_zero) for key, cell in table._cells.items()
    }
    orders = [frac_magnitudes(table, k).pair_order for k in range(field.degree)]
    return cells, table.failures, orders


def _assert_same_table_on_bisection(poly, n_hi: int) -> None:
    """The table and magnitude orders of ``poly`` on a field whose theta is
    refined by bisection alone, as before Newton, and on a fresh field."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(pisotlab.field, "newton_root", lambda p, iv, bits: None)
        bisected = _table_facts(NumberField.from_poly(poly), n_hi)
    assert _table_facts(NumberField.from_poly(poly), n_hi) == bisected


@pytest.mark.parametrize("entry", list(load_catalog()), ids=lambda e: e.name)
def test_newton_theta_gives_the_bisection_table_on_the_catalog(entry) -> None:
    _assert_same_table_on_bisection(entry.poly, 120)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_perron_polys(), st.integers(2, 120))
def test_newton_theta_gives_the_bisection_table_on_pisot_polys(coeffs, n_hi) -> None:
    _assert_same_table_on_bisection(coeffs, n_hi)


def test_theta_falls_back_to_bisection_when_the_sign_check_fails(monkeypatch) -> None:
    # p is made to read 0 at Newton's ends, whose denominators pass 2**64
    # when bits do; the integer ends of its first bracket read true signs
    declined, bisected = [], []

    def sign(p, q):
        return 0 if q.denominator > 1 << 64 else sign_at(p, q)

    def failing_newton(p, iv, bits):
        with pytest.MonkeyPatch.context() as inner:
            inner.setattr(pisotlab.certify, "sign_at", sign)
            got = newton_root(p, iv, bits)
        assert got is None
        declined.append(bits)
        return got

    def counted_refine(p, iv, bits):
        bisected.append(bits)
        return refine_root(p, iv, bits)

    monkeypatch.setattr(pisotlab.field, "newton_root", failing_newton)
    monkeypatch.setattr(pisotlab.field, "refine_root", counted_refine)
    poly = load_catalog().get("atypical").poly
    field = NumberField.from_poly(poly)
    got = _table_facts(field, 80)
    # every refinement declined and bisected to the precision asked, no further
    assert declined and len(bisected) == len(declined)
    assert field._theta_bits == bisected[-1]
    monkeypatch.undo()
    assert _table_facts(NumberField.from_poly(poly), 80) == got


def test_theta_is_refined_once_per_margin_not_once_per_column(monkeypatch) -> None:
    # atypical to n = 400 at every level: bisection runs once, for Newton's
    # start, and Newton once per THETA_MARGIN_BITS of precision asked
    newton, bisection, asked = [], [], []

    def counted_newton(p, iv, bits):
        newton.append(bits)
        return newton_root(p, iv, bits)

    def counted_refine(p, iv, bits):
        bisection.append(bits)
        return refine_root(p, iv, bits)

    field = NumberField.from_poly(load_catalog().get("atypical").poly)
    inner = field.theta_enclosure

    def counted_enclosure(bits):
        asked.append(bits)
        return inner(bits)

    monkeypatch.setattr(field, "theta_enclosure", counted_enclosure)
    monkeypatch.setattr(pisotlab.field, "newton_root", counted_newton)
    monkeypatch.setattr(pisotlab.field, "refine_root", counted_refine)
    monkeypatch.setattr(pisotlab.certify, "refine_root", counted_refine)
    build_table(field, 5, 1, 400)
    assert bisection == [NEWTON_START_BITS]
    first, final = asked[0], max(asked)
    bound = -(-(final - first) // THETA_MARGIN_BITS) + 1
    assert len(newton) <= bound
    # one refinement per new precision asked would overrun the bound
    assert len(set(asked)) > 10 * bound
