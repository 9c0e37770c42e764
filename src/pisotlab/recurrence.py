"""Linear recurrences on integer sequences: exact detection, coefficient
prediction from a minimal polynomial, comparison, and fast modular
extension.

Detection policy: smallest order whose relation fits the tail window of the
sequence exactly (window length 2*order + 4), with the onset then walked
back as far as the relation keeps holding.  The fit is solved exactly on
integer rows, so a detected recurrence is a statement about the sequence,
not an approximation.  Most orders do not fit, and a small prime proves it
first: if order j fits over Q, every (j+1)-minor of its augmented rows is 0,
hence 0 mod p, so rows of full column rank j + 1 mod p cannot fit, and the
exact solve runs only on the orders that this refutation does not reach.
The answer therefore never depends on the prime.  Extension modulo p
reduces x^e modulo the characteristic polynomial (Fiduccia, SIAM J.
Comput. 14(1), 1985).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    InvalidParameters,
    NoRecurrenceFound,
    NonExactDivision,
    VariantInapplicable,
)
from .poly import (
    IntPolynomial,
    alpha_poly,
    beta_poly,
    delta2_poly,
    plastic_poly,
    poly_from_terms,
)


@dataclass(frozen=True)
class Recurrence:
    """u_i = sum_{k=1}^{order} coeffs[k-1] * u_{i-k}, valid for every index
    i >= onset + order (indices into the analysed sequence)."""

    order: int
    coeffs: tuple[Fraction | int, ...]
    onset: int

    @property
    def is_integral(self) -> bool:
        return all(
            isinstance(c, int) or c.denominator == 1 for c in self.coeffs
        )


# the largest prime below 2**15: residues and their products fit in one
# 30-bit digit
_FILTER_PRIME = 32749


def _full_rank_mod(m: list[list[int]], p: int) -> bool:
    """Whether the rows ``m`` (residues mod the prime p) have full column
    rank modulo p.  Eliminates column by column, dropping each pivot row and
    each eliminated column, so ``m`` is consumed."""
    for _ in range(len(m[0])):
        pr = next((i for i, row in enumerate(m) if row[0]), None)
        if pr is None:
            return False
        prow = m.pop(pr)
        inv = pow(prow[0], -1, p)
        tail = [b * inv % p for b in prow[1:]]
        rest = []
        for row in m:
            f = row[0]
            rest.append([(a - f * b) % p for a, b in zip(row[1:], tail)] if f else row[1:])
        m = rest
    return True


def _solve_exact(m: list[list[int]], j: int) -> list[Fraction] | None:
    """Fraction-free Gauss-Jordan on the augmented integer rows ``m`` (j
    coefficient columns, then the right-hand side), in place: each row stays
    a nonzero rational multiple of its counterpart over Q.  Returns a
    particular solution (free variables 0) or None when inconsistent."""
    pivots: list[int] = []
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
    # rows below the last pivot have no coefficients left
    if any(row[j] for row in m[r:]):
        return None
    sol = [Fraction(0)] * j
    for i, c in enumerate(pivots):
        sol[c] = Fraction(m[i][j], m[i][c])
    return sol


def detect_recurrence(seq: Sequence[int]) -> Recurrence:
    """Find the smallest-order linear recurrence fitting the tail of ``seq``.

    The fit window is the last 2*order + 4 terms; the order search is
    therefore capped at len(seq)//2 - 2.  Raises NoRecurrenceFound when
    nothing fits.

    An order whose augmented rows have full column rank modulo
    ``_FILTER_PRIME`` is skipped without an exact solve: a rank over Q is
    at least the rank mod p, so those rows have no rational solution.  Every
    other order is solved exactly, so the result is the same for any prime.
    """
    seq = list(seq)
    length = len(seq)
    cap = length // 2 - 2
    if cap < 1:
        raise NoRecurrenceFound(f"sequence of length {length} is too short")
    p = _FILTER_PRIME
    seq_p = [u % p for u in seq]
    for j in range(1, cap + 1):
        # one equation u_i = sum_k b_k u_{i-k} per index i of the window's tail
        window = range(length - j - 4, length)
        # the residue rows hold the same columns in another order: same rank
        if _full_rank_mod([seq_p[i - j : i + 1] for i in window], p):
            continue
        rows = [[seq[i - k] for k in range(1, j + 1)] + [seq[i]] for i in window]
        b = _solve_exact(rows, j)
        if b is None:
            continue
        # walk the onset back on integers, b scaled by its common denominator
        den = math.lcm(*(c.denominator for c in b))
        ib = [c.numerator * (den // c.denominator) for c in b]
        i = length  # the relation holds at every index from i on
        while i > j and den * seq[i - 1] == sum(
            c * seq[i - 2 - k] for k, c in enumerate(ib)
        ):
            i -= 1
        coeffs = tuple(int(c) if c.denominator == 1 else c for c in b)
        return Recurrence(order=j, coeffs=coeffs, onset=max(0, i - j))
    raise NoRecurrenceFound(
        f"no linear recurrence of order <= {cap} fits the sequence tail"
    )


def characteristic_of(r: Recurrence) -> IntPolynomial:
    """x^order - b_1 x^(order-1) - ... - b_order (integer coefficients
    required)."""
    if not r.is_integral:
        raise InvalidParameters(
            "characteristic polynomial needs integer recurrence coefficients"
        )
    terms = [(r.order, 1)] + [
        (r.order - k, -int(c)) for k, c in enumerate(r.coeffs, start=1)
    ]
    return poly_from_terms(terms)


# -- coefficient predictions from a minimal polynomial ------------------------


@dataclass(frozen=True)
class PredictedRecurrence:
    variant: str
    level: int                 # iterate level the prediction addresses
    coeffs: tuple[int, ...]    # b_1..b_order

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def characteristic(self) -> IntPolynomial:
        return characteristic_of(Recurrence(self.order, self.coeffs, 0))


VARIANTS = (
    "zero_iterate",
    "top_iterate_1deg",
    "alpha_form",
    "alpha_form_adjusted",
    "beta_odd",
    "beta_even",
)


def _is_recognized_limit_point(p: IntPolynomial) -> bool:
    d = p.degree
    if d >= 2 and (p == alpha_poly(d - 1) or p == beta_poly(d - 1)):
        return True
    return p == delta2_poly()


def _parity_rule(p: IntPolynomial) -> tuple[int, ...]:
    """b_j = a_j for j = 1..d, with the signs of odd j flipped when the
    degree d is even."""
    d = p.degree
    return tuple(
        -p.coeff(j) if d % 2 == 0 and j % 2 else p.coeff(j) for j in range(1, d + 1)
    )


def predicted_recurrence(min_poly: IntPolynomial, variant: str) -> PredictedRecurrence:
    """Recurrence coefficients a conjecture family predicts for the iterate
    sequences of the Pisot number with this minimal polynomial.

    Variants:
      zero_iterate         level 0,   b_i = -a_{d-i} (the companion relation)
      top_iterate_1deg     level d-2, b_j = +-a_j with the parity sign rule;
                           inapplicable to the plastic number and recognized
                           limit-point polynomials.  Row d-2 satisfies the
                           recurrence of (-1)^d x^d p(N/x)/N, N = (-1)^d a_0,
                           which is this rule exactly when a_0 = -1; for any
                           other a_0 the prediction is wrong
      alpha_form           level d-2 for alpha_poly(d-1), coefficients as
                           stated: lag 1 -> (-1)^n, lag n -> (-2)^(n+1),
                           lag n+1 -> +1  (n = d-1)
      alpha_form_adjusted  same lags, but lag n -> 2*(-1)^(n+1); the reading
                           consistent with the general parity sign rule
      beta_odd / beta_even level d-2 for beta_poly(d-1) with odd / even d-1

    alpha_poly and beta_poly have a_0 = -1, and on them the adjusted alpha
    form and both beta forms are exactly the parity sign rule, which is how
    all four are computed once their applicability is checked.
    """
    if variant not in VARIANTS:
        raise InvalidParameters(f"unknown variant {variant!r}")
    if not min_poly.is_monic:
        raise InvalidParameters("minimal polynomial must be monic")
    d = min_poly.degree
    n = d - 1

    if variant == "zero_iterate":
        if d < 1:
            raise VariantInapplicable("zero_iterate needs degree >= 1")
        return PredictedRecurrence(
            variant=variant,
            level=0,
            coeffs=tuple(-min_poly.coeff(d - i) for i in range(1, d + 1)),
        )
    if variant == "top_iterate_1deg":
        if d < 3:
            raise VariantInapplicable("top_iterate_1deg needs degree >= 3")
        if min_poly == plastic_poly():
            raise VariantInapplicable("the plastic number is excluded")
        if _is_recognized_limit_point(min_poly):
            raise VariantInapplicable(
                "limit-point polynomial; use the alpha/beta variants"
            )
    elif variant in ("alpha_form", "alpha_form_adjusted"):
        if n < 2 or min_poly != alpha_poly(n):
            raise VariantInapplicable(
                "alpha_form applies to alpha_poly(n) with n >= 2"
            )
        if variant == "alpha_form":
            terms = {1: (-1) ** n, n: (-2) ** (n + 1), n + 1: 1}
            return PredictedRecurrence(
                variant=variant,
                level=n - 1,
                coeffs=tuple(terms.get(i, 0) for i in range(1, n + 2)),
            )
    elif variant == "beta_odd":
        if n < 3 or n % 2 == 0 or min_poly != beta_poly(n):
            raise VariantInapplicable(
                "beta_odd applies to beta_poly(n) with odd n >= 3"
            )
    elif n < 2 or n % 2 == 1 or min_poly != beta_poly(n):
        raise VariantInapplicable(
            "beta_even applies to beta_poly(n) with even n >= 2"
        )
    return PredictedRecurrence(variant=variant, level=d - 2, coeffs=_parity_rule(min_poly))


# -- comparison ----------------------------------------------------------------


@dataclass(frozen=True)
class RecurrenceComparison:
    verdict: str  # 'equal' | 'equal_up_to_onset' | 'mismatch'
    mismatch_positions: tuple[int, ...] = ()


def compare_recurrence(
    detected: Recurrence, predicted: PredictedRecurrence
) -> RecurrenceComparison:
    """equal: same order and coefficients.  equal_up_to_onset: the detected
    (minimal) characteristic divides the predicted one, so the prediction is
    a valid but non-minimal description of the tail.  mismatch otherwise,
    with differing lags listed when the orders agree."""
    pc = predicted.coeffs
    dc = tuple(detected.coeffs)
    if detected.order == len(pc) and all(a == b for a, b in zip(dc, pc)):
        return RecurrenceComparison("equal")
    if detected.is_integral:
        try:
            predicted.characteristic().exact_div(characteristic_of(detected))
            return RecurrenceComparison("equal_up_to_onset")
        except NonExactDivision:
            pass
    if detected.order == len(pc):
        positions = tuple(
            i for i, (a, b) in enumerate(zip(dc, pc), start=1) if a != b
        )
        return RecurrenceComparison("mismatch", positions)
    return RecurrenceComparison("mismatch")


# -- modular extension ----------------------------------------------------------


def modular_extend(
    r: Recurrence,
    initial_terms: Sequence[int],
    p: int,
    target_index: int,
) -> int:
    """u_{target_index} mod p, where initial_terms are the exact values
    u_{onset}, ..., u_{onset + order - 1}.

    If x^e = sum_i c_i x^i modulo the characteristic polynomial over Z/p,
    with e = target_index - onset, the answer is sum_i c_i u_{onset + i}.
    Square-and-multiply, O(order^2 log target_index).
    """
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
    b = [int(c) % p for c in r.coeffs]
    power = [1] + [0] * (j - 1)  # x^0
    for bit in bin(target_index - r.onset)[2:]:
        prod = [0] * (2 * j - 1)
        for i, x in enumerate(power):
            if x:
                for k, y in enumerate(power):
                    prod[i + k] += x * y
        if bit == "1":
            prod.insert(0, 0)  # times x
        # fold from the top: x^t = sum_k b_k x^(t-k) modulo the characteristic
        for t in range(len(prod) - 1, j - 1, -1):
            c = prod[t] % p
            if c:
                for k, bk in enumerate(b, start=1):
                    prod[t - k] += c * bk
        power = [c % p for c in prod[:j]]
    return sum(c * u for c, u in zip(power, initial_terms)) % p
