"""Iterated fractional-part transform on powers of theta.

Starting from x = theta^n, one step maps x to theta^n * (x - [x]) where [x]
is the nearest integer.  Every iterate stays inside Z[theta], so the whole
table is exact; the recorded integer parts u^k_n are the observables that
the rest of the package studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import InvalidParameters, PrecisionExhausted
from .field import NumberField
from .intervals import DyadicInterval

# theta precision that every non-zero entry of an adjacent magnitude pair must
# reach before the pair is left undecided
COMPARATOR_CAP_BITS = 1 << 16
# Largest exponent evaluated exactly: ``--exact-limit 6000 suite --name
# atypical --pmax 6000 --no-expect`` takes 17 s and 94 MB (2 vCPU, Python 3.11).
EXPONENT_LIMIT = 6000
# Largest table, (k_max + 1) * (n_hi - n_lo + 1) cells: ``iterate --name
# atypical --n 1:6000`` fills 36,000 in 9 s and 108 MB (2 vCPU, Python 3.11).
CELL_LIMIT = 36000


@dataclass(frozen=True)
class IterateCell:
    level: int
    n: int
    element: tuple[int, ...]       # the iterate I^level(theta^n) itself
    integer_part: int              # [I^level(theta^n)]
    magnitude: DyadicInterval      # dyadic enclosure of |I^level - integer_part|
    bits: int                      # theta precision that certified the cell
    exact_zero: bool               # fractional part is exactly 0


def _fractional(x: tuple[int, ...], u: int) -> tuple[int, ...]:
    """The fractional element x - u of an iterate x with integer part u."""
    return (x[0] - u,) + x[1:]


def iterate_column(field: NumberField, n: int, k_max: int) -> Iterator[IterateCell]:
    """The cells of column n for levels 0..k_max, each certified in turn.

    PrecisionExhausted propagates from the level it hits, earlier cells
    staying valid.  No iterate (integer coordinates) is a half-integer.
    """
    x = field.theta_power(n)
    for k in range(k_max + 1):
        u, enclosure, bits = field.round_with_enclosure(x)
        diff = _fractional(x, u)
        yield IterateCell(
            level=k,
            n=n,
            element=x,
            integer_part=u,
            magnitude=enclosure.shift(-u).abs_(),
            bits=bits,
            exact_zero=not any(diff),
        )
        if k < k_max:
            x = field.element_mul(field.theta_power(n), diff)


class IterateTable:
    """Exact iterate data for levels 0..k_max and exponents n_lo..n_hi.

    Columns that hit the precision cap stop early; the failure is recorded
    instead of the missing cells.
    """

    def __init__(self, field: NumberField, k_max: int, n_lo: int, n_hi: int):
        self.field = field
        self.k_max = k_max
        self.n_lo = n_lo
        self.n_hi = n_hi
        self._cells: dict[tuple[int, int], IterateCell] = {}
        self.failures: dict[tuple[int, int], str] = {}

    def _store(self, cell: IterateCell) -> None:
        self._cells[(cell.level, cell.n)] = cell

    def has(self, k: int, n: int) -> bool:
        return (k, n) in self._cells

    def cell(self, k: int, n: int) -> IterateCell:
        try:
            return self._cells[(k, n)]
        except KeyError:
            # a column that failed at level j has no cell at levels j..k_max
            for (j, m), failure in self.failures.items():
                if m == n and j <= k <= self.k_max:
                    raise PrecisionExhausted(
                        f"cell (level {k}, n {n}) unavailable: {failure}"
                    ) from None
            raise InvalidParameters(f"cell (level {k}, n {n}) outside the table")

    def u(self, k: int, n: int) -> int:
        """The integer part u^k_n."""
        return self.cell(k, n).integer_part

    def u_sequence(self, k: int) -> tuple[int, list[int]]:
        """(n_lo, [u^k_n ...]) over the contiguous run available at level k."""
        out = []
        n = self.n_lo
        while n <= self.n_hi and self.has(k, n):
            out.append(self._cells[(k, n)].integer_part)
            n += 1
        return self.n_lo, out

    def cells_at_level(self, k: int) -> list[IterateCell]:
        return [
            self._cells[(k, n)]
            for n in range(self.n_lo, self.n_hi + 1)
            if (k, n) in self._cells
        ]


def build_table(
    field: NumberField, k_max: int, n_lo: int = 1, n_hi: int = 60
) -> IterateTable:
    """Compute iterates column by column; exact throughout."""
    if k_max < 0 or n_lo < 1 or n_hi < n_lo:
        raise InvalidParameters("need k_max >= 0 and 1 <= n_lo <= n_hi")
    if n_hi > EXPONENT_LIMIT:
        raise InvalidParameters("exponents run up to %d, not %d" % (EXPONENT_LIMIT, n_hi))
    cells = (k_max + 1) * (n_hi - n_lo + 1)
    if cells > CELL_LIMIT:
        raise InvalidParameters("tables hold up to %d cells, not %d" % (CELL_LIMIT, cells))
    table = IterateTable(field, k_max, n_lo, n_hi)
    for n in range(n_lo, n_hi + 1):
        k = 0
        try:
            for cell in iterate_column(field, n, k_max):
                table._store(cell)
                k += 1
        except PrecisionExhausted as exc:
            table.failures[(k, n)] = f"{type(exc).__name__}: {exc}"
    return table


# -- certified magnitude rows -------------------------------------------------


class MagEntry:
    """One refinable magnitude |I^k(theta^n) - u^k_n|."""

    __slots__ = ("n", "interval", "bits", "exact_zero", "_diff")

    def __init__(self, cell: IterateCell):
        self.n = cell.n
        self.interval = cell.magnitude
        self.bits = max(cell.bits, 8)
        self.exact_zero = cell.exact_zero
        self._diff = _fractional(cell.element, cell.integer_part)

    def refine(self, field: NumberField) -> None:
        self.bits *= 2
        self.interval = field.eval_interval(self._diff, self.bits).abs_()


@dataclass(frozen=True)
class MagnitudeRow:
    level: int
    entries: tuple[MagEntry, ...]
    # per adjacent pair (n, n+1): 'lt', 'gt', 'eq', or None when the pair
    # stayed unseparated with every non-zero entry at the bit cap
    pair_order: tuple[str | None, ...]

    def incomparable_pairs(self) -> list[tuple[int, int]]:
        return [
            (self.entries[i].n, self.entries[i + 1].n)
            for i, s in enumerate(self.pair_order)
            if s is None
        ]


def _pair_status(field: NumberField, a: MagEntry, b: MagEntry) -> str | None:
    if a._diff == b._diff or a._diff == tuple(-c for c in b._diff):
        return "eq"  # identical absolute value, certified structurally
    # not both exact zeros, or the diffs would be equal
    nonzero = [e for e in (a, b) if not e.exact_zero]
    while True:
        # an exact zero's magnitude is the point 0, so it needs no rule of its own
        if a.interval.below(b.interval):
            return "lt"
        if b.interval.below(a.interval):
            return "gt"
        # refine the looser entry; min keeps the first on a tie
        loose = min(nonzero, key=lambda e: e.bits)
        if loose.bits >= COMPARATOR_CAP_BITS:
            return None
        loose.refine(field)


def frac_magnitudes(table: IterateTable, k: int) -> MagnitudeRow:
    """Magnitude enclosures for level k, refined until every adjacent pair is
    ordered (or certified equal).

    An undecided pair refines only its looser entry: the non-zero one with
    fewer bits, the first on a tie, so an entry already sharpened for the
    previous pair is not sharpened again.  A pair is left as None in
    pair_order, not raised here, only once every non-zero entry of it has
    reached COMPARATOR_CAP_BITS.
    """
    cells = table.cells_at_level(k)
    if not cells:
        # a level of the table is empty only when every column failed at or below it
        err = PrecisionExhausted if 0 <= k <= table.k_max else InvalidParameters
        raise err(f"no cells available at level {k}")
    entries = [MagEntry(c) for c in cells]
    order = [_pair_status(table.field, a, b) for a, b in zip(entries, entries[1:])]
    return MagnitudeRow(level=k, entries=tuple(entries), pair_order=tuple(order))
