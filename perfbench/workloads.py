"""The benchmark's workloads: fixed lists of operations on pisotlab.

An operation is one thing a user does: a CLI command run in-process through
``pisotlab.cli.main``, or one call of a public library function.  Running an
operation returns ``(exit_code, output_bytes)``; the bytes are the CLI's
stdout, or a canonical JSON serialization of the library result, and are
what the golden digests cover.

Every workload is a *pass*: the list of operations it repeats in a closed
loop.  ``cold`` is the operation a fresh interpreter runs first; it is also
the first operation of every pass, except in ``random_certify``, where the
seed must not decide which certification path pays the lazy imports.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("catalog_cli", "deep_iterate", "random_certify")

# Whole passes in a run of REF_SECONDS; a run of S seconds does
# max(1, round(PASSES * S / REF_SECONDS)).  The counts put the ten samples
# beyond op_tail_ms where each workload's slow ops are: seven passes give
# catalog_cli's three atypical suites 21 samples, so the tail lies inside
# them.  A run measures 18-60 s on the 2-vCPU host the benchmark was sized on.
REF_SECONDS = 28
PASSES = {"catalog_cli": 7, "deep_iterate": 4, "random_certify": 1}

# catalog_cli: entries whose findings-mode suite also runs with a lowered
# exact limit: the slowest entry and two smaller ones.
EXTENDED_ENTRIES = ("plastic", "delta2", "atypical")
# deep_iterate: exponents 1..DEEP_N_HI at every level 0..d-1.
DEEP_N_HI = 400
# random_certify: polynomials per pass, drawn from a pool of RANDOM_POOL
# generated from POOL_SEED and stored ranked by certification time.
RANDOM_COUNT = 200
RANDOM_POOL = 2000
POOL_SEED = 0
POOL_RANKED = ROOT / "perfbench" / "golden" / "random_pool.txt"
RANDOM_DEGREES = (2, 8)
RANDOM_COEFF = 3
# x^3 - x - 1, the smallest Pisot number: its certification takes the full
# accept path, so the cold operation loads sympy whatever the seed.
RANDOM_COLD_POLY = "-1,-1,0,1"


def use_source() -> bool:
    """Make ``import pisotlab`` load the checkout's ``src/`` tree, with no
    PISOTLAB_* setting from the environment; False when there is no tree."""
    if not (SRC / "pisotlab" / "__init__.py").is_file():
        return False
    for key in [k for k in os.environ if k.startswith("PISOTLAB_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    return True


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[dict], tuple[int, bytes]]


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]
    cold: Op
    # whole passes in a run of REF_SECONDS
    passes: int


def cli_op(argv: list[str]) -> Op:
    def run(_state: dict) -> tuple[int, bytes]:
        from pisotlab import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        return code, out.getvalue().encode("utf-8")

    return Op(" ".join(argv), run)


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


# -- catalog_cli --------------------------------------------------------------


def catalog_cli_argvs(names: list[str]) -> list[list[str]]:
    """Every CLI command over the bundled catalog.

    Besides the findings-mode suite of every entry, EXTENDED_ENTRIES run it
    again with ``--exact-limit 150`` and ``--convergence``, so that primes
    151..199 are pushed forward by the detected recurrence: no other catalog
    command reaches ``modular_extend`` or ``convergence_check``.
    """
    argvs = [["certify", "--name", n] for n in names]
    argvs += [["suite", "--name", n] for n in names]
    argvs += [["suite", "--name", n, "--no-expect", "--pmax", "199"] for n in names]
    argvs += [
        ["--exact-limit", "150", "suite", "--name", n, "--no-expect", "--pmax", "199",
         "--convergence"]
        for n in EXTENDED_ENTRIES
    ]
    argvs += [
        ["limits", "identities"],
        ["limits", "ordering"],
        ["generate", "--target", "7"],
        ["suite", "--alpha", "3"],
        ["suite", "--beta", "3"],
    ]
    return argvs


def catalog_names() -> list[str]:
    from pisotlab.catalog import load_catalog

    return load_catalog().names()


# -- deep_iterate -------------------------------------------------------------


def _build_op(name: str, coeffs: tuple[int, ...], degree: int) -> Op:
    def run(state: dict) -> tuple[int, bytes]:
        from pisotlab import IntPolynomial, NumberField, build_table

        field = NumberField.from_poly(IntPolynomial.from_coeffs(coeffs))
        table = build_table(field, degree - 1, 1, DEEP_N_HI)
        state[name] = table
        rows = {str(k): table.u_sequence(k)[1] for k in range(degree)}
        failures = sorted("%d,%d" % kn for kn in table.failures)
        return 0, _canonical({"rows": rows, "failures": failures})

    return Op("build_table %s k<=%d n<=%d" % (name, degree - 1, DEEP_N_HI), run)


def _magnitudes_op(name: str, level: int) -> Op:
    def run(state: dict) -> tuple[int, bytes]:
        from pisotlab import frac_magnitudes

        row = frac_magnitudes(state[name], level)
        return 0, _canonical({"pair_order": list(row.pair_order)})

    return Op("frac_magnitudes %s k=%d" % (name, level), run)


def deep_iterate_ops() -> list[Op]:
    """Per catalog entry: a fresh field and its table at every level, then
    the certified magnitude ordering of each row (the criterion-12 shape at
    larger n).  Magnitude ops reuse the table built earlier in the pass."""
    from pisotlab.catalog import load_catalog

    ops = []
    for entry in load_catalog():
        ops.append(_build_op(entry.name, entry.poly.coeffs, entry.degree))
        ops += [_magnitudes_op(entry.name, k) for k in range(entry.degree)]
    return ops


# -- random_certify -----------------------------------------------------------


def pool_polys() -> list[str]:
    """The random_certify pool: RANDOM_POOL distinct seeded random monic
    polynomials as ascending coefficient strings, lower coefficients in
    [-3, 3], nonzero constant term, degrees 2..8 in equal shares."""
    rng = random.Random(POOL_SEED)
    lo, hi = RANDOM_DEGREES
    nonzero = [c for c in range(-RANDOM_COEFF, RANDOM_COEFF + 1) if c]
    pool: dict[str, None] = {}
    i = 0
    while len(pool) < RANDOM_POOL:
        degree = lo + i % (hi - lo + 1)
        coeffs = [rng.choice(nonzero)]
        coeffs += [rng.randint(-RANDOM_COEFF, RANDOM_COEFF) for _ in range(degree - 1)]
        pool[",".join(str(c) for c in coeffs + [1])] = None
        i += 1
    return list(pool)


def random_polys(seed: int) -> list[str]:
    """RANDOM_COUNT polynomials drawn from the pool by the seed: one from
    each of RANDOM_COUNT equal buckets of the pool ranked by certification
    time, in shuffled order.

    Latencies run from 2 ms to 0.7 s.  Drawn freely, even 200 polynomials put
    the median op 24% and the ten-from-top op 28% apart between seeds
    (interquartile range over median) before any timing noise; drawn one
    per cost bucket, every seed gets a different set with the same spread of
    costs."""
    ranked = POOL_RANKED.read_text().split()
    size = len(ranked) // RANDOM_COUNT
    rng = random.Random(seed)
    picks = [ranked[b * size + rng.randrange(size)] for b in range(RANDOM_COUNT)]
    rng.shuffle(picks)
    return picks


# -----------------------------------------------------------------------------


def build(name: str, seed: int) -> Workload:
    """The workload's pass.  Only random_certify depends on the seed."""
    if name == "catalog_cli":
        ops = [cli_op(a) for a in catalog_cli_argvs(catalog_names())]
        return Workload(tuple(ops), ops[0], PASSES[name])
    if name == "deep_iterate":
        ops = deep_iterate_ops()
        return Workload(tuple(ops), ops[0], PASSES[name])
    if name == "random_certify":
        ops = [cli_op(["certify", "--poly", p]) for p in random_polys(seed)]
        return Workload(tuple(ops), cli_op(["certify", "--poly", RANDOM_COLD_POLY]), PASSES[name])
    raise ValueError("unknown workload %r" % name)
