"""Primes in a range, by a sieve of Eratosthenes."""

from __future__ import annotations

import math


def primes_between(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi, ascending (the sieve takes hi + 1
    bytes)."""
    if hi < 2:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(hi) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, hi + 1, i)))
    return [n for n in range(max(lo, 2), hi + 1) if sieve[n]]
