"""Small deterministic prime utilities (ranges here stay well under 2**40)."""

from __future__ import annotations

_SMALL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL:
        if n % p == 0:
            return n == p
    # deterministic Miller-Rabin; this base set is exact below 3.3 * 10**24
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_between(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi, ascending."""
    return [n for n in range(max(lo, 2), hi + 1) if is_prime(n)]
