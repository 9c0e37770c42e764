"""Independent check of random_certify verdicts from numerically computed roots.

pisotlab certifies with exact rational data through sympy's root
isolation.  This oracle shares no code with that path: every root is found
by Aberth iteration in double precision, and polynomials whose verdict is
Pisot, or that have a root near the unit circle, are recomputed with
mpmath's root finder at 256 bits (the criterion-10 approach).  It runs
outside the timed region on every polynomial a run certified, so a stored
digest of a wrong answer would still be caught.
"""

from __future__ import annotations

import cmath
import json
from fractions import Fraction

import mpmath

FLOAT_MARGIN = 1e-3
PREC_BITS = 256
# A root this close to the unit circle is taken to lie on it.  Integer
# polynomials of degree <= 8 with coefficients in [-3, 3] keep roots much
# further from the circle than this unless they lie on it.
MP_MARGIN = mpmath.mpf(2) ** -64


def _aberth(coeffs: list[int], iters: int = 500) -> list[complex] | None:
    """Roots of a monic polynomial (ascending coefficients), or None when
    the iteration does not settle."""
    d = len(coeffs) - 1
    z = [1.5 * cmath.exp(2j * cmath.pi * (k + 0.25) / d) for k in range(d)]
    for _ in range(iters):
        step = 0.0
        for i in range(d):
            p = dp = 0j
            for a in reversed(coeffs):
                dp = dp * z[i] + p
                p = p * z[i] + a
            if p == 0:
                continue
            if dp == 0:
                return None
            ratio = p / dp
            w = ratio / (1 - ratio * sum(1 / (z[i] - z[j]) for j in range(d) if j != i))
            z[i] -= w
            step = max(step, abs(w))
        if step < 1e-14:
            return z
    return None


def _squarefree(coeffs: list[int]) -> bool:
    """True when the polynomial and its derivative have a constant gcd
    (Euclid over the rationals; lists hold ascending coefficients)."""
    a = [Fraction(c) for c in coeffs]
    b = [Fraction(i * c) for i, c in enumerate(coeffs)][1:]
    while b:
        while len(a) >= len(b):
            q = a[-1] / b[-1]
            for i, c in enumerate(b):
                a[len(a) - len(b) + i] -= q * c
            a.pop()
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) == 1


def _mp_roots(coeffs: list[int]) -> list:
    return mpmath.polyroots(
        [mpmath.mpf(c) for c in reversed(coeffs)], maxsteps=400, extraprec=PREC_BITS
    )


def _classify(roots, margin) -> tuple[bool, object, object]:
    outside = [r for r in roots if abs(r) > 1 + margin]
    inside = [r for r in roots if abs(r) < 1 - margin]
    if len(outside) != 1 or len(inside) != len(roots) - 1:
        return False, None, None
    theta = outside[0]
    if abs(theta.imag) > margin or theta.real <= 1:
        return False, None, None
    return True, theta.real, max((abs(r) for r in inside), default=0)


def is_pisot(coeffs: list[int]) -> tuple[bool, object, object]:
    """(verdict, dominant root, largest conjugate modulus) for a monic
    polynomial given by ascending coefficients; the roots come from mpmath
    whenever the verdict is Pisot.

    A repeated root rules Pisot out: it would lie outside the open disk, or
    else a monic integer factor would have every root strictly inside it
    and a nonzero constant term of modulus below 1."""
    if not _squarefree(coeffs):
        return False, None, None
    roots = _aberth(coeffs)
    if roots is not None and all(abs(abs(r) - 1) > FLOAT_MARGIN for r in roots):
        pisot, _, _ = _classify(roots, FLOAT_MARGIN)
        if not pisot:
            return False, None, None
    with mpmath.workprec(PREC_BITS):
        return _classify(_mp_roots(coeffs), MP_MARGIN)


def check_certify(poly: str, code: int, stdout: bytes) -> str | None:
    """None when a ``certify --poly`` result agrees with the oracle,
    otherwise a one-line reason."""
    try:
        pisot, theta, modulus = is_pisot([int(c) for c in poly.split(",")])
    except mpmath.libmp.NoConvergence:
        return "the oracle's root finder did not converge"
    if code != (0 if pisot else 3):
        return "exit %d, oracle says %s" % (code, "pisot" if pisot else "not pisot")
    if not pisot:
        return None
    cert = next(
        rec for rec in map(json.loads, stdout.decode("utf-8").splitlines())
        if rec.get("record") == "certificate"
    )
    lo, hi, bound = (
        Fraction(cert["dominant_root"]["lo"]),
        Fraction(cert["dominant_root"]["hi"]),
        Fraction(cert["conjugate_bound"]),
    )
    with mpmath.workprec(PREC_BITS):
        if not _mpf(lo) <= theta <= _mpf(hi):
            return "dominant root enclosure misses the oracle root"
        if not modulus <= _mpf(bound) < 1:
            return "conjugate bound below the oracle modulus or not below 1"
    return None


def _mpf(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator
