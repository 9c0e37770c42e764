from __future__ import annotations

import mpmath
import pytest


@pytest.fixture(autouse=True)
def _mpmath_precision_restored():
    """Fail a test that leaves mpmath's global precision changed, since
    every later test would run at it."""
    before = mpmath.mp.prec, mpmath.iv.prec
    yield
    after = mpmath.mp.prec, mpmath.iv.prec
    assert after == before, "mpmath (mp.prec, iv.prec) left at %s, was %s" % (after, before)
