from __future__ import annotations

import sympy

from pisotlab.primes import is_prime, primes_between


def test_is_prime_agrees_with_sympy_small() -> None:
    for n in range(-3, 2000):
        assert is_prime(n) == sympy.isprime(n)


def test_is_prime_large_carmichael() -> None:
    assert not is_prime(561)
    assert not is_prime(41041)
    assert is_prime(2**61 - 1)


def test_primes_between_inclusive() -> None:
    assert primes_between(13, 31) == [13, 17, 19, 23, 29, 31]
    assert primes_between(14, 16) == []
    assert primes_between(2, 2) == [2]


def test_primes_between_wide_range_matches_sympy() -> None:
    assert primes_between(2, 20_000) == list(sympy.primerange(2, 20_001))
