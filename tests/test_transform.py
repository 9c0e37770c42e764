from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pisotlab.catalog import load_catalog
import pisotlab.field
import pisotlab.transform
from pisotlab.errors import InvalidParameters, PrecisionExhausted
from pisotlab.field import START_BITS, NumberField
from pisotlab.intervals import RatInterval
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
            assert cell.magnitude.lo == 0 and cell.magnitude.hi == 0


def test_magnitude_encloses_fractional_part() -> None:
    table = build_table(PLASTIC, 2, 1, 25)
    for cell in table.cells_at_level(1):
        assert cell.magnitude.lo >= 0
        assert cell.magnitude.hi <= Fraction(1, 2)


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
    if a.interval.hi < b.interval.lo:
        return "lt"
    if b.interval.hi < a.interval.lo:
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
    assert counts == [354, 706]
    assert counts[0] <= 0.6 * counts[1]


def test_frac_magnitudes_never_refines_an_exact_zero(monkeypatch) -> None:
    # golden's level 0 at n = 200 lies within 2**-138 of its integer, so its
    # first enclosure, good to about 2**-64, does not exclude the zero next
    # to it; only that entry refines, and the pair is decided
    field = NumberField.from_poly([-1, -1, 1])
    table = build_table(field, 0, 199, 200)
    table._store(IterateCell(level=0, n=199, element=field.one(), integer_part=1,
                             magnitude=RatInterval.point(Fraction(0)), bits=0,
                             exact_zero=True))
    live = table.cell(0, 200)
    assert live.magnitude.lo == 0
    seen = _count_evals(monkeypatch, field)
    row = frac_magnitudes(table, 0)
    assert row.pair_order == ("lt",)
    assert seen and set(seen) == {(live.element[0] - live.integer_part,) + live.element[1:]}
    assert row.entries[0].bits == 8


def test_undecided_only_once_both_entries_reach_the_cap(monkeypatch) -> None:
    # at cap 160, silver's level-0 pair (75, 76) starts at 158 and 160 bits:
    # the refine-both rule gives up at once, this rule first takes n = 75
    # to 316 bits
    monkeypatch.setattr(pisotlab.transform, "COMPARATOR_CAP_BITS", 160)
    table = build_table(NumberField.from_poly([-1, -2, 1]), 0, 1, 80)
    assert (table.cell(0, 75).bits, table.cell(0, 76).bits) == (158, 160)
    row = frac_magnitudes(table, 0)
    stuck = row.incomparable_pairs()
    assert stuck[0] == (75, 76)
    by_n = {e.n: e for e in row.entries}
    for pair in stuck:
        assert all(by_n[n].bits >= 160 for n in pair), pair
    assert by_n[75].bits == 316


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
