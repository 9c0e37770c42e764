from __future__ import annotations

from fractions import Fraction

import pytest

from pisotlab.catalog import load_catalog
import pisotlab.field
from pisotlab.errors import InvalidParameters, PrecisionExhausted
from pisotlab.field import START_BITS, NumberField
from pisotlab.poly import IntPolynomial, alpha_poly
from pisotlab.transform import (
    CELL_LIMIT,
    EXPONENT_LIMIT,
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
        assert table.u(0, n) == GOLDEN.nearest_integer(GOLDEN.theta_power(n))


def test_iterate_column_definition() -> None:
    # one step at exponent n: x -> theta^n (x - [x])
    x = GOLDEN.theta_power(5)
    cells = list(iterate_column(GOLDEN, 5, 1))
    assert [c.level for c in cells] == [0, 1]
    assert cells[0].element == x
    assert cells[0].integer_part == 11
    assert cells[1].element == GOLDEN.element_mul(
        GOLDEN.theta_power(5), x.shift_constant(-11)
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


@pytest.mark.parametrize("entry", list(load_catalog()), ids=lambda e: e.name)
def test_catalog_cells_certify_on_first_pass(entry) -> None:
    # outward rounding of the enclosures must never cost a cell a doubling
    field = NumberField.from_poly(entry.poly)
    table = build_table(field, field.degree - 1, 1, 200)
    assert not table.failures
    for k in range(field.degree):
        for cell in table.cells_at_level(k):
            size = max(abs(c) for c in cell.element.coords).bit_length()
            first = 0 if cell.element.is_rational else START_BITS + size
            assert cell.bits == first, (k, cell.n)
        assert frac_magnitudes(table, k).incomparable_pairs() == []


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
