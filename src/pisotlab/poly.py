"""Dense integer polynomials with exact arithmetic, plus the coefficient
symmetry classifiers and the named polynomial families used throughout the
package.

Coefficients are stored ascending (index i holds the coefficient of x**i)
and trailing zeros are stripped, so equal polynomials compare equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .errors import InvalidParameters, NonExactDivision

# Largest degree of a polynomial taken from outside: ``certify`` on beta_26,
# the slowest family member measured at it, takes 57 s (2 vCPU, Python 3.11).
DEGREE_LIMIT = 27


class SymmetryClass(Enum):
    PALINDROMIC = "palindromic"
    ANTI_PALINDROMIC = "anti_palindromic"
    SEMI_PALINDROMIC = "semi_palindromic"
    NONE = "none"


class PairRelation(Enum):
    RECIPROCAL = "reciprocal"
    ANTI_RECIPROCAL = "anti_reciprocal"
    SEMI_RECIPROCAL = "semi_reciprocal"
    NONE = "none"


def read_int(value) -> int:
    """An integer from outside input: an int (not a bool) or a decimal string."""
    if isinstance(value, str) or (isinstance(value, int) and not isinstance(value, bool)):
        try:
            return int(value)
        except ValueError as exc:
            raise InvalidParameters(str(exc)) from None
    raise InvalidParameters(
        "int() argument must be an integer or a decimal string, not %r" % (value,)
    )


def _strip(coeffs: Iterable[int]) -> tuple[int, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class IntPolynomial:
    """An integer polynomial in one variable.

    >>> p = IntPolynomial.from_coeffs([-1, -1, 1])   # x^2 - x - 1
    >>> p.degree
    2
    >>> str(p)
    'x^2 - x - 1'
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.coeffs, tuple):
            object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if self.coeffs and self.coeffs[-1] == 0:
            object.__setattr__(self, "coeffs", _strip(self.coeffs))
        for c in self.coeffs:
            if not isinstance(c, int):
                raise InvalidParameters(f"integer coefficients required, got {c!r}")

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[int | str]) -> "IntPolynomial":
        return cls(_strip(read_int(c) for c in coeffs))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial mapped to -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if self.is_zero:
            raise InvalidParameters("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, i: int) -> int:
        """Coefficient of x**i (0 beyond the stored degree)."""
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __call__(self, x):
        """Evaluate by Horner's rule; exact for int / Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(_strip(out))

    def exact_div(self, other: "IntPolynomial") -> "IntPolynomial":
        """Exact polynomial quotient; raises NonExactDivision if the division
        leaves a remainder or produces non-integer coefficients.

        >>> num = IntPolynomial.from_coeffs([1, 0, -2, 1])   # x^3 - 2x^2 + 1
        >>> den = IntPolynomial.from_coeffs([-1, 1])         # x - 1
        >>> str(num.exact_div(den))
        'x^2 - x - 1'
        """
        if other.is_zero:
            raise NonExactDivision("division by the zero polynomial")
        if self.is_zero:
            return IntPolynomial(())
        if self.degree < other.degree:
            raise NonExactDivision("dividend degree below divisor degree")
        rem = list(self.coeffs)
        ddeg, dlead = other.degree, other.leading
        q = [0] * (self.degree - ddeg + 1)
        for k in range(len(q) - 1, -1, -1):
            c = rem[k + ddeg]
            if c % dlead != 0:
                raise NonExactDivision(
                    f"coefficient {c} not divisible by leading term {dlead}"
                )
            q[k] = c // dlead
            if q[k]:
                for i, dc in enumerate(other.coeffs):
                    rem[k + i] -= q[k] * dc
        if any(rem):
            raise NonExactDivision("nonzero remainder")
        return IntPolynomial(_strip(q))

    def reverse(self) -> "IntPolynomial":
        """Coefficient reversal x^deg * p(1/x) (the reciprocal polynomial)."""
        if self.is_zero:
            return self
        return IntPolynomial(_strip(reversed(self.coeffs)))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                xs = "x" if i == 1 else f"x^{i}"
                body = xs if mag == 1 else f"{mag}{xs}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


def poly_from_terms(terms: Iterable[tuple[int, int]]) -> IntPolynomial:
    """Build a polynomial from (exponent, coefficient) pairs, summing
    repeated exponents (the parametric families below collide at small n)."""
    terms = list(terms)
    if not terms:
        return IntPolynomial(())
    out = [0] * (max(e for e, _ in terms) + 1)
    for e, c in terms:
        if e < 0:
            raise InvalidParameters("negative exponent")
        out[e] += c
    return IntPolynomial(_strip(out))


# ---------------------------------------------------------------------------
# coefficient symmetry


def classify_pair(p: IntPolynomial, q: IntPolynomial) -> PairRelation:
    """Classify the coefficient relation between two polynomials of equal
    degree n (coefficients a_i of p, b_i of q):

    * reciprocal:         a_i ==  b_{n-i} for all i;
    * anti-reciprocal:    a_i == -b_{n-i} for all i;
    * semi-reciprocal:    a_i == -b_{n-i} for even i < n and
                          a_i ==  b_{n-i} for odd i.

    Raises InvalidParameters when the degrees differ.
    """
    n = p.degree
    if n < 1 or q.degree < 1:
        raise InvalidParameters("classification needs degree >= 1")
    if q.degree != n:
        raise InvalidParameters(f"degrees differ: {n} vs {q.degree}")
    a = [p.coeff(i) for i in range(n + 1)]
    b = [q.coeff(i) for i in range(n + 1)]
    if all(a[i] == b[n - i] for i in range(n + 1)):
        return PairRelation.RECIPROCAL
    if all(a[i] == -b[n - i] for i in range(n + 1)):
        return PairRelation.ANTI_RECIPROCAL
    even_ok = all(a[i] == -b[n - i] for i in range(0, n, 2))
    odd_ok = all(a[i] == b[n - i] for i in range(1, n + 1, 2))
    if even_ok and odd_ok:
        return PairRelation.SEMI_RECIPROCAL
    return PairRelation.NONE


_SYMMETRY_OF_SELF_PAIR = {
    PairRelation.RECIPROCAL: SymmetryClass.PALINDROMIC,
    PairRelation.ANTI_RECIPROCAL: SymmetryClass.ANTI_PALINDROMIC,
    PairRelation.SEMI_RECIPROCAL: SymmetryClass.SEMI_PALINDROMIC,
    PairRelation.NONE: SymmetryClass.NONE,
}


def classify_symmetry(p: IntPolynomial) -> SymmetryClass:
    """Classify the coefficient symmetry of ``p``: its relation to itself
    under :func:`classify_pair` (reciprocal is palindromic, and so on).
    First match wins; NONE otherwise.  Degree must be >= 1.
    """
    return _SYMMETRY_OF_SELF_PAIR[classify_pair(p, p)]


# ---------------------------------------------------------------------------
# named families


def alpha_poly(n: int) -> IntPolynomial:
    """x^{n+1} - 2 x^n + x - 1, the minimal polynomial of the n-th point of
    the first limit family (degree n + 1); n >= 1."""
    if n < 1:
        raise InvalidParameters("alpha_poly needs n >= 1")
    return poly_from_terms([(n + 1, 1), (n, -2), (1, 1), (0, -1)])


def beta_poly(n: int) -> IntPolynomial:
    """(x^{n+2} - 2 x^{n+1} + 1) / (x - 1), the minimal polynomial of the
    n-th point of the second limit family (degree n + 1); n >= 1."""
    if n < 1:
        raise InvalidParameters("beta_poly needs n >= 1")
    num = poly_from_terms([(n + 2, 1), (n + 1, -2), (0, 1)])
    den = IntPolynomial.from_coeffs([-1, 1])
    return num.exact_div(den)


def delta2_poly() -> IntPolynomial:
    """x^4 - x^3 - 2 x^2 + 1, whose dominant root (about 1.9052) is the
    smallest limit point of the Pisot set beyond the two main families."""
    return IntPolynomial.from_coeffs([1, 0, -2, -1, 1])


def plastic_poly() -> IntPolynomial:
    """x^3 - x - 1, minimal polynomial of the smallest Pisot number."""
    return IntPolynomial.from_coeffs([-1, -1, 0, 1])


def strip_unit_root(p: IntPolynomial) -> tuple[IntPolynomial, int]:
    """Divide out every (x - 1) factor; returns (quotient, multiplicity)."""
    k = 0
    den = IntPolynomial.from_coeffs([-1, 1])
    while not p.is_zero and p(1) == 0:
        p = p.exact_div(den)
        k += 1
    return p, k
