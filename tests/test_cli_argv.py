"""Every argv either answers or refuses cleanly.

Argvs are drawn from a grammar of every subcommand and flag, with odd
values (empty, signed, float-like, hex, underscored, non-ASCII digits,
huge) and malformed catalog files, and run through ``cli.main`` in
process.  Each call must exit 0, 2, 3, 4, 5 or 6; write nothing, or JSONL
with the header first and the status trailer last; write nothing when it
exits 2; and finish within a per-call budget.  ``--help`` is left out:
its usage text is not a report.

The size bounds and precision caps are lowered so that the budget holds.
``DEGREE_LIMIT`` at 7 stops the alpha/beta suites at N = 6, which take
about 1.5 s each; alpha_7 and beta_7 take about 10 s each while
certification runs through sympy and residues through recurrence detection.
"""

from __future__ import annotations

import contextlib
import io
import json
import signal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pisotlab.certify
import pisotlab.cli
import pisotlab.conjectures
import pisotlab.field
import pisotlab.limits
import pisotlab.poly
import pisotlab.transform
from pisotlab.cli import main

# every module that binds each bound by name
BOUNDS = [
    (pisotlab.poly, "DEGREE_LIMIT", 7),
    (pisotlab.certify, "DEGREE_LIMIT", 7),
    (pisotlab.cli, "DEGREE_LIMIT", 7),
    (pisotlab.limits, "DEGREE_LIMIT", 7),
    (pisotlab.transform, "EXPONENT_LIMIT", 200),
    (pisotlab.conjectures, "EXPONENT_LIMIT", 200),
    (pisotlab.transform, "CELL_LIMIT", 1500),
    (pisotlab.conjectures, "PMAX_LIMIT", 300),
    (pisotlab.limits, "BITS_LIMIT", 1024),
    # the precision caps of the adaptive loops
    (pisotlab.field, "CAP_BITS", 4096),
    (pisotlab.transform, "COMPARATOR_CAP_BITS", 1024),
]
BUDGET_S = 4.0
EXIT_CODES = {0, 2, 3, 4, 5, 6}

GOLDEN = {"name": "g", "coeffs": ["-1", "-1", "1"]}
GRADED = {
    "name": "graded",
    "coeffs": ["-1", "-1", "0", "1"],
    "expected_patterns": {"levels": [{"level": 0, "congruence": 0, "max_onset_prime": 7}]},
}
# file name -> JSON document; "missing.json" is never written
CATALOGS = {
    "good.json": {"schema_version": 1, "entries": [GOLDEN, GRADED,
                                                    {"name": "sqrt2", "coeffs": ["-2", "0", "1"]},
                                                    {"name": "deg8", "coeffs": ["-1"] + ["0"] * 7 + ["1"]}]},
    "name_int.json": {"schema_version": 1, "entries": [{"name": 5, "coeffs": ["-1", "-1", "1"]}]},
    "name_list.json": {"schema_version": 1, "entries": [GOLDEN, {"name": ["x"], "coeffs": ["-1", "1"]}]},
    "bare_string.json": {"schema_version": 1, "entries": [GOLDEN, "g"]},
    "no_coeffs.json": {"schema_version": 1, "entries": [{"name": "g"}]},
    "coeffs_string.json": {"schema_version": 1, "entries": [{"name": "g", "coeffs": "11"}]},
    "coeffs_float.json": {"schema_version": 1, "entries": [{"name": "g", "coeffs": [-1.5, -1, 1]}]},
    "not_monic.json": {"schema_version": 1, "entries": [{"name": "g", "coeffs": ["1", "2"]}]},
    "duplicate.json": {"schema_version": 1, "entries": [GOLDEN, GOLDEN]},
    "schema_2.json": {"schema_version": 2, "entries": [GOLDEN]},
    "entries_object.json": {"schema_version": 1, "entries": {"g": GOLDEN}},
    "top_list.json": [GOLDEN],
    "level_negative.json": {"schema_version": 1, "entries": [
        {**GOLDEN, "expected_patterns": {"levels": [{"level": -3, "congruence": 1}]}}]},
    "level_float.json": {"schema_version": 1, "entries": [
        {**GOLDEN, "expected_patterns": {"levels": [{"level": 0.5}]}}]},
    "levels_int.json": {"schema_version": 1, "entries": [
        {**GOLDEN, "expected_patterns": {"levels": 5}}]},
    "patterns_list.json": {"schema_version": 1, "entries": [
        {**GOLDEN, "expected_patterns": [{"level": 0}]}]},
    "item_string.json": {"schema_version": 1, "entries": [
        {**GOLDEN, "expected_patterns": {"levels": ["oops"]}}]},
    "constant_string.json": {"schema_version": 1, "entries": [
        {**GOLDEN, "expected_patterns": {"levels": [{"level": 0, "constant": "alt"}]}}]},
}

ODD = ["", " ", "-", "-0", "+1", "1.5", "1e3", "0x10", "1_0", "١٢", "nan", "abc",
       str(10**30), "-" + str(10**30)]


def _range(lo, hi, span):
    return st.tuples(st.integers(lo, hi), st.integers(0, span)).map(
        lambda t: "%d:%d" % (t[0], t[0] + t[1])
    )


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


# value kind -> (plain values, odd values beyond ODD); "catalog" takes the
# catalog files
VALUES = {
    "kmax": (_ints(0, 8), []),
    "exact": (_ints(0, 300), []),
    "prime": (_ints(1, 300), []),
    "degree": (_ints(1, 7), []),
    "small": (_ints(1, 12), []),
    "count": (_ints(1, 60), []),
    "bits": (_ints(60, 300), ["64", "1025", "4097", "100000"]),
    "poly": (st.sampled_from(["-1,-1,1", "-1,-2,1", "-1,-1,0,1", "1,0,-2,-1,1", "-3,-1,1",
                              "1,-3,1", "-1,1,-1,0,1,-2,1", "-2,0,1", "-2,1", "1,1"]),
             ["0,1", "1", ",", "-1,,1", "-1.5,1", "x", "0x1,1", "1_0,1", "١,-3,1",
              "-1,-1,1,", "-1,0,0,0,0,0,0,1", "-1,-1000,1", "-1,-%d,1" % 10**30]),
    "name": (st.sampled_from(["golden", "silver", "plastic", "delta2", "atypical", "g"]),
             ["graded", "sqrt2", "deg8", "bronze", "5"]),
    "range": (_range(1, 200, 60), ["5", "5:3", "0:4", "1:", ":", "a:b", "1:100000", "١:٩",
                                   "1_0:2_0", " 1 : 3 "]),
    "index": (_range(1, 5, 3), ["0:2", "1:8"]),
    "family": (st.sampled_from(["heart:3,2,1", "heart:5,4,2", "club:2,1", "spade:3,2",
                                "heart:2,3,1"]),
               ["heart:3,2", "nope:1,2", "club:", "heart:3,2,5", "club:2,99", ":",
                "club:2,1,1", "heart:1_0,2,1", "heart:3,-2,1"]),
    "kind": (st.sampled_from(["club", "heart", "spade"]), ["diamond"]),
}
# subcommand -> (target flags, of which one is given; other flags with their
# value kind and whether argparse requires them; switches)
COMMANDS = {
    ("certify",): (["--poly", "--name"], {}, []),
    ("iterate",): (["--poly", "--name"], {"--kmax": ("kmax", 0), "--n": ("range", 0)}, []),
    ("suite",): (
        ["--poly", "--name", "--alpha", "--beta", "--family"],
        {"--pmax": ("prime", 0), "--plo": ("count", 0), "--kmax": ("kmax", 0),
         "--nmax": ("count", 0)},
        ["--convergence", "--expect", "--no-expect"],
    ),
    ("limits", "solve"): ([], {"--family": ("kind", 1), "--m": ("small", 1),
                               "--n": ("degree", 1), "--l": ("small", 0)}, []),
    ("limits", "identities"): ([], {"--n": ("index", 0), "--bits": ("bits", 0)}, []),
    ("limits", "ordering"): ([], {"--count": ("degree", 0), "--bits": ("bits", 0)}, []),
    ("generate",): ([], {"--target": ("count", 1), "--pmax": ("prime", 0),
                         "--count": ("count", 0)}, []),
}
TARGET_KIND = {"--poly": "poly", "--name": "name", "--alpha": "degree", "--beta": "degree",
               "--family": "family"}


@st.composite
def _argvs(draw, catalog_dir):
    """Global flags, a subcommand and its flags.  A value is odd one draw in
    six and plain otherwise, and a flag argparse requires is left out one
    draw in twelve, so that most argvs get past parsing to real work.  A
    subcommand that needs a target mostly gets one, sometimes two or none,
    both of which argparse refuses."""
    catalogs = sorted(CATALOGS) + ["not_json.json", "missing.json", "."]

    def value(kind):
        if kind == "catalog":
            return str(catalog_dir / draw(st.sampled_from(catalogs)))
        plain, odd = VALUES[kind]
        if draw(st.integers(0, 5)) == 5:
            return draw(st.sampled_from(ODD + odd))
        return draw(plain)

    def given_(required):
        return draw(st.integers(0, 11)) < 11 if required else draw(st.booleans())

    argv = [tok for flag, kind in (("--exact-limit", "exact"), ("--catalog", "catalog"))
            if given_(False) for tok in (flag, value(kind))]
    if draw(st.integers(0, 19)) == 19:
        return argv + draw(st.sampled_from([[], ["bogus"], ["limits"], ["certify", "--bogus"]]))
    command = draw(st.sampled_from(sorted(COMMANDS)))
    targets, flags, switches = COMMANDS[command]
    argv += list(command)
    if targets:
        count = draw(st.sampled_from([1, 1, 1, 1, 1, 1, 2, 0]))
        for flag in draw(st.permutations(targets))[:count]:
            argv += [flag, value(TARGET_KIND[flag])]
    for flag, (kind, required) in flags.items():
        if given_(required):
            argv += [flag, value(kind)]
    return argv + [switch for switch in switches if draw(st.booleans())]


class _Overrun(BaseException):
    """Raised in the call by the budget alarm; a BaseException, so that no
    handler in the program swallows it."""


def _run(argv):
    out, err = io.StringIO(), io.StringIO()

    def alarm(signum, frame):
        raise _Overrun()

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses an argv this way
                code = exc.code
    except _Overrun:
        pytest.fail("%r ran past %.0f s" % (argv, BUDGET_S))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def test_every_argv_answers_or_refuses_cleanly(tmp_path, monkeypatch) -> None:
    for module, name, value in BOUNDS:
        monkeypatch.setattr(module, name, value)
    for name, doc in CATALOGS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    (tmp_path / "not_json.json").write_text("{ not json")

    def catalog(name):
        return ["--catalog", str(tmp_path / name)]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_argvs(tmp_path))
    # inputs that ended in a traceback: a catalog name that is not a
    # string, and a precision of 10**30 bits
    @example(catalog("name_int.json") + ["certify", "--name", "g"])
    @example(catalog("name_list.json") + ["iterate", "--name", "g"])
    @example(["limits", "ordering", "--bits", str(10**30)])
    @example(["limits", "identities", "--bits", str(10**30)])
    def check(argv) -> None:
        code, out, err = _run(argv)
        assert code in EXIT_CODES, (argv, code, err)
        if code == 2:
            assert out == "", (argv, out)
        if out:
            lines = [json.loads(line) for line in out.splitlines()]
            assert set(lines[0]) == {"schema_version", "command", "inputs"}, (argv, out)
            assert set(lines[-1]) == {"status", "error_count"}, (argv, out)
            assert all("status" not in line for line in lines[:-1]), (argv, out)

    check()
