from __future__ import annotations

import pytest

from pisotlab.primes import primes_between


def _trial_division(lo: int, hi: int) -> list[int]:
    return [
        n
        for n in range(max(lo, 2), hi + 1)
        if all(n % d for d in range(2, int(n**0.5) + 1))
    ]


def test_primes_between_inclusive() -> None:
    assert primes_between(13, 31) == [13, 17, 19, 23, 29, 31]
    assert primes_between(14, 16) == []
    assert primes_between(2, 2) == [2]


@pytest.mark.parametrize(
    "lo, hi",
    [(10, 3), (5, 5), (-7, 1), (0, 0), (-5, 2), (1, 2), (2, 2), (0, 30), (1, 97), (24, 25)],
)
def test_primes_between_edges_match_trial_division(lo, hi) -> None:
    assert primes_between(lo, hi) == _trial_division(lo, hi)


def test_primes_between_wide_range_matches_trial_division() -> None:
    assert primes_between(2, 20_000) == _trial_division(2, 20_000)
