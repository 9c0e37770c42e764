from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import pisotlab.cli
import pisotlab.conjectures
import pisotlab.field
import pisotlab.limits
import pisotlab.poly
import pisotlab.transform
from pisotlab import errors
from pisotlab.certify import certify_pisot
from pisotlab.cli import build_parser, main
from pisotlab.conjectures import convergence_check
from pisotlab.field import NumberField
from pisotlab.intervals import RatInterval
from pisotlab.limits import ordering_check
from pisotlab.poly import IntPolynomial, alpha_poly, classify_pair
from pisotlab.recurrence import Recurrence, modular_extend
from pisotlab.report import certificate_payload
from pisotlab.transform import build_table

GOLDEN_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "catalog_cli.jsonl"
SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    lines = [json.loads(line) for line in captured.out.splitlines()]
    return code, lines, captured.err


def header(lines):
    return lines[0]


def trailer(lines):
    return lines[-1]


def records(lines, kind):
    return [l for l in lines if l.get("record") == kind]


def test_certify_catalog_name(capsys) -> None:
    code, lines, _ = run(capsys, ["certify", "--name", "golden"])
    assert code == 0
    assert header(lines)["schema_version"] == 1
    assert header(lines)["command"] == "certify"
    cert = records(lines, "certificate")[0]
    assert cert["verdict"] == "pisot"
    assert trailer(lines) == {"status": "ok", "error_count": 0}


def test_certify_leading_dash_poly(capsys) -> None:
    # the value token itself starts with '-'; the CLI must not read it as a flag
    code, lines, _ = run(capsys, ["certify", "--poly", "-1,-1,1"])
    assert code == 0
    assert records(lines, "certificate")[0]["verdict"] == "pisot"


def test_certify_rejects_non_pisot(capsys) -> None:
    # x^2 - x - 3 has a conjugate below -1
    code, lines, _ = run(capsys, ["certify", "--poly", "-3,-1,1"])
    assert code == 3
    assert records(lines, "certificate")[0]["verdict"] == "not_pisot"
    assert trailer(lines)["status"] == "not_pisot"


def test_certify_unit_root_reported(capsys) -> None:
    code, lines, _ = run(capsys, ["certify", "--poly", "2,-3,1"])  # (x-1)(x-2)
    assert code == 3
    cert = records(lines, "certificate")[0]
    assert cert["unit_root"] == "1"


# inputs whose error message is checked, not only the exit code
PARSE_ERROR_TEXT = {
    ("certify", "--poly", ""): "error: empty coefficient list",
    # an empty field is refused, not dropped (which certified x - 1)
    ("certify", "--poly", "-1,,1"): "comma-separated integers",
    ("certify", "--poly", "-1,0,1,"): "comma-separated integers",
    ("suite", "--name", "golden", "--pmax", "100000000000"):
        "primes are scanned up to 1000000, not 100000000000",
    ("generate", "--target", "7", "--pmax", "100000000000"):
        "primes are scanned up to 1000000, not 100000000000",
    ("iterate", "--name", "golden", "--n", "1:6001"): "exponents run up to 6000, not 6001",
    ("suite", "--name", "golden", "--nmax", "6001"): "exponents run up to 6000, not 6001",
    ("--exact-limit", "6001", "suite", "--name", "golden", "--pmax", "6001"):
        "exponents run up to 6000, not 6001",
    ("--exact-limit", "6001", "suite", "--name", "golden", "--nmax", "60", "--pmax", "6001"):
        "exponents run up to 6000, not 6001",
    ("--exact-limit", "6001", "generate", "--target", "7", "--pmax", "6001"):
        "exponents run up to 6000, not 6001",
    ("limits", "ordering", "--bits", "2049"): "precision is at most 2048 bits, not 2049",
    # a scan of no prime has no branch to grade
    ("suite", "--name", "golden", "--plo", "24", "--pmax", "28"): "no prime in the range 24..28",
    ("limits", "identities", "--bits", str(10**30)):
        "precision is at most 2048 bits, not %d" % 10**30,
    ("suite", "--alpha", "0"): "error: --alpha needs N >= 1",
    ("suite", "--beta", "0"): "error: --beta needs N >= 1",
    ("iterate", "--name", "golden", "--n", "1:x"): "error: bad exponent range '1:x'",
    # the log-equation spec states the target's bound
    ("generate", "--target", "1"): "error: m must be >= 2 (integer limit points are excluded)",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--poly", "1,x,1"],
        ["certify", "--name", "bronze"],
        ["iterate", "--name", "golden", "--n", "5:3"],
        ["iterate", "--name", "golden", "--n", "0:4"],
        ["generate", "--target", "1"],
        ["limits", "ordering", "--bits", "-9"],
        ["limits", "ordering", "--count", "8", "--bits", "0"],
        ["generate", "--target", "7", "--count", "0"],
        ["suite", "--family", "heart:3,2"],
        ["suite", "--family", "heart:3,2,1,1"],
        ["suite", "--family", "club:3,2"],
        ["certify", "--poly", ""],
        ["certify", "--poly", "-1,,1"],
        ["certify", "--poly", "-1,0,1,"],
        ["suite", "--name", "golden", "--plo", "50", "--pmax", "10"],
        ["suite", "--name", "golden", "--plo", "24", "--pmax", "28"],
        ["suite", "--name", "golden", "--pmax", "1"],
        ["suite", "--name", "golden", "--kmax", "-1"],
        ["suite", "--name", "golden", "--nmax", "0"],
        ["suite", "--family", "heart:3,3,1", "--pmax", "1"],
        ["iterate", "--name", "golden", "--kmax", "-1"],
        ["limits", "identities", "--n", "0:2"],
        ["limits", "identities", "--bits", "10"],
        ["limits", "ordering", "--count", "1"],
        ["generate", "--target", "2", "--pmax", "1"],
        ["suite", "--name", "golden", "--pmax", "100000000000"],
        ["generate", "--target", "7", "--pmax", "100000000000"],
        ["iterate", "--name", "golden", "--n", "1:6001"],
        ["suite", "--name", "golden", "--nmax", "6001"],
        ["--exact-limit", "6001", "suite", "--name", "golden", "--pmax", "6001"],
        ["--exact-limit", "6001", "suite", "--name", "golden", "--nmax", "60", "--pmax", "6001"],
        ["--exact-limit", "6001", "generate", "--target", "7", "--pmax", "6001"],
        ["limits", "ordering", "--bits", "2049"],
        # 10**30 bits raised OverflowError, a traceback
        ["limits", "identities", "--bits", str(10**30)],
        ["suite", "--alpha", "0"],
        ["suite", "--beta", "0"],
        ["iterate", "--name", "golden", "--n", "1:x"],
    ],
)
def test_parse_errors_exit_2(capsys, argv) -> None:
    code, lines, err = run(capsys, argv)
    assert code == 2
    assert PARSE_ERROR_TEXT.get(tuple(argv), "error:") in err
    # refused before any output: not even the header is written
    assert lines == []


def test_pmax_bound_is_inclusive(capsys) -> None:
    top = pisotlab.conjectures.PMAX_LIMIT
    argv = ["suite", "--name", "golden", "--no-expect", "--kmax", "0", "--plo", str(top - 100)]
    code, lines, _ = run(capsys, argv + ["--pmax", str(top)])
    assert code == 0
    assert records(lines, "level")[0]["congruence"]["primes"][-1] == 999983
    code, lines, _ = run(capsys, argv + ["--pmax", str(top + 1)])
    assert (code, lines) == (2, [])


def test_exponent_bound_is_inclusive(capsys) -> None:
    top = pisotlab.transform.EXPONENT_LIMIT
    argv = ["iterate", "--name", "golden", "--kmax", "0", "--n"]
    code, lines, _ = run(capsys, argv + ["%d:%d" % (top, top)])
    assert code == 0
    assert list(records(lines, "row")[0]["values"]) == [str(top)]
    code, lines, _ = run(capsys, argv + ["%d:%d" % (top, top + 1)])
    assert (code, lines) == (2, [])
    # the exact range of a scan, min(--pmax, --exact-limit), has the same edge
    argv = ["suite", "--name", "golden", "--no-expect", "--kmax", "0", "--nmax", "60",
            "--plo", str(top - 100)]
    code, lines, _ = run(capsys, ["--exact-limit", str(top)] + argv + ["--pmax", str(top)])
    assert code == 0
    assert set(records(lines, "level")[0]["congruence"]["method"].values()) == {"exact"}
    code, lines, _ = run(capsys, ["--exact-limit", str(top + 1)] + argv + ["--pmax", str(top + 1)])
    assert (code, lines) == (2, [])


def test_degree_bound_is_inclusive(capsys) -> None:
    top = pisotlab.poly.DEGREE_LIMIT
    refusal = "degree is at most %d, not %d\n" % (top, top + 1)

    def coeffs(n):
        # alpha_n = x^(n+1) - 2x^n + x - 1, written out past the bound too
        return ",".join(str(c) for c in [-1, 1] + [0] * (n - 2) + [-2, 1])

    # the field path proves alpha_{top-1} by the disk count, so its edge is cheap
    code, lines, _ = run(capsys, ["iterate", "--poly", coeffs(top - 1), "--kmax", "0", "--n", "1:1"])
    assert code == 0
    assert len(header(lines)["inputs"]["poly"]["coeffs"]) == top + 1
    code, lines, _ = run(capsys, ["limits", "ordering", "--count", str(top - 1)])
    assert code == 0
    assert records(lines, "chain_entry")[-1]["label"] == "beta_%d" % (top - 1)
    # identity I at n is the club equation of exponent n + 1, of degree n + 2
    code, lines, _ = run(capsys, ["limits", "identities", "--n", "%d:%d" % (top - 2, top - 2)])
    assert code == 0
    for argv in (
        ["certify", "--poly", coeffs(top)],
        ["iterate", "--poly", coeffs(top), "--kmax", "0", "--n", "1:1"],
        ["suite", "--alpha", str(top)],
        ["suite", "--beta", str(top)],
        ["suite", "--family", "heart:3,%d,1" % top],
        ["limits", "solve", "--family", "club", "--m", "3", "--n", str(top)],
        ["limits", "identities", "--n", "1:%d" % (top - 1)],
        ["limits", "ordering", "--count", str(top)],
    ):
        code, lines, err = run(capsys, argv)
        assert (code, lines) == (2, []) and err.endswith(refusal), argv
    # refused before anything of that size is built
    for argv in (["suite", "--alpha", str(10**12)], ["limits", "ordering", "--count", str(10**12)]):
        code, lines, err = run(capsys, argv)
        assert (code, lines, err) == (2, [], "error: degree is at most %d, not %d\n" % (top, 10**12 + 1))


def test_cell_bound_refuses_before_any_output(capsys) -> None:
    top = pisotlab.transform.CELL_LIMIT
    refusal = "error: tables hold up to %d cells, not %d\n"
    code, lines, err = run(capsys, ["iterate", "--name", "golden", "--kmax", str(top), "--n", "1:1"])
    assert (code, lines, err) == (2, [], refusal % (top, top + 1))
    argv = ["suite", "--name", "golden", "--no-expect", "--kmax", "599", "--nmax", "61"]
    assert run(capsys, argv) == (2, [], refusal % (top, 600 * 61))


def test_identities_precision_shortfall_exits_4(capsys) -> None:
    # at 64 bits no residual is certified above 1e-30, but not every one is
    # certified below it either, so the bits fell short
    argv = ["limits", "identities", "--n", "1"]
    code, lines, _ = run(capsys, argv + ["--bits", "64"])
    assert code == 4
    assert header(lines)["inputs"] == {"n": [1, 1], "bits": 64}
    assert len(records(lines, "identity")) == 2 + 3
    assert [l for l in lines if "error" in l] == [
        {"error": "precision", "message": "residuals not below tol at 64 bits"}
    ]
    assert trailer(lines) == {"status": "precision_failure", "error_count": 1}
    code, lines, _ = run(capsys, argv + ["--bits", "128"])
    assert code == 0
    assert trailer(lines) == {"status": "ok", "error_count": 0}


def test_suite_convergence_after_every_cell_failed(capsys, monkeypatch) -> None:
    # every cell fails below the cap, so no level has a magnitude row: each
    # level carries a convergence_error, and the suite exits 4 with its
    # rounding errors, as it does without --convergence
    monkeypatch.setattr(pisotlab.field, "CAP_BITS", 32)
    argv = ["suite", "--name", "golden", "--no-expect", "--pmax", "31", "--convergence"]
    code, lines, _ = run(capsys, argv)
    assert code == 4
    levels = records(lines, "level")
    assert [l["convergence_error"] for l in levels] == [
        "no cells available at level 0",
        "no cells available at level 1",
    ]
    assert all("convergence" not in l for l in levels)
    errs = [l for l in lines if "error" in l]
    assert errs and all(e["error"] == "rounding" for e in errs)
    assert trailer(lines) == {"status": "rounding_failure", "error_count": len(errs)}


def test_missing_target_is_usage_error(capsys) -> None:
    with pytest.raises(SystemExit) as exc:
        main(["certify"])
    assert exc.value.code == 2


def test_iterate_golden_rows(capsys) -> None:
    code, lines, _ = run(
        capsys, ["iterate", "--name", "golden", "--kmax", "1", "--n", "1:10"]
    )
    assert code == 0
    rows = {r["level"]: r for r in records(lines, "row")}
    lucas = [r["values"][str(n)] for n in range(1, 11) for r in [rows[0]]]
    assert lucas == ["2", "3", "4", "7", "11", "18", "29", "47", "76", "123"]
    assert rows[1]["values"]["2"] == "-1"
    assert rows[1]["values"]["3"] == "1"
    assert rows[1]["exact_zero"]["2"] is True


def test_global_options_are_exact_limit_catalog() -> None:
    parser = build_parser()
    options = {
        opt
        for action in parser._actions
        for opt in action.option_strings
        if opt not in ("-h", "--help")
    }
    assert options == {"--exact-limit", "--catalog"}
    # the identity tolerance is the constant limits.DEFAULT_TOL, not an option
    with pytest.raises(SystemExit) as exc:
        main(["--tol", "1e-30", "limits", "identities"])
    assert exc.value.code == 2


def test_iterate_precision_cap_exhaustion(capsys, monkeypatch) -> None:
    # a cap below the first rounding pass refuses every irrational cell
    monkeypatch.setattr(pisotlab.field, "CAP_BITS", 32)
    code, lines, _ = run(
        capsys, ["iterate", "--name", "atypical", "--kmax", "0", "--n", "78:80"]
    )
    assert code == 4
    assert trailer(lines)["status"] == "rounding_failure"
    assert trailer(lines)["error_count"] == 3
    assert any(l.get("error") == "rounding" for l in lines)


def test_suite_precision_cap_exhaustion(capsys, monkeypatch) -> None:
    # the same cap fails every table cell; suite reports them as iterate does
    monkeypatch.setattr(pisotlab.field, "CAP_BITS", 32)
    code, lines, _ = run(
        capsys, ["suite", "--name", "golden", "--no-expect", "--pmax", "31"]
    )
    assert code == 4
    errs = [l for l in lines if "error" in l]
    assert errs
    for err in errs:
        assert err.keys() == {"error", "message", "level", "n"}
        assert err["error"] == "rounding"
    assert trailer(lines) == {"status": "rounding_failure", "error_count": len(errs)}
    # graded, the rounding failure takes precedence over the failed expectations
    code, lines, _ = run(capsys, ["suite", "--name", "golden", "--pmax", "31"])
    assert code == 4
    assert records(lines, "expectation") and trailer(lines)["status"] == "rounding_failure"


def test_suite_graded_catalog_passes(capsys) -> None:
    code, lines, _ = run(capsys, ["suite", "--name", "golden", "--pmax", "31"])
    assert code == 0
    assert header(lines)["inputs"]["graded"] is True
    outs = records(lines, "expectation")
    assert outs and all(o["passed"] for o in outs)
    levels = records(lines, "level")
    assert levels[0]["congruence"]["branch"]["kind"] == "plus_one"


def test_suite_raw_poly_is_findings_mode(capsys) -> None:
    code, lines, _ = run(
        capsys, ["suite", "--poly", "-1,-1,1", "--pmax", "31"]
    )
    assert code == 0
    assert header(lines)["inputs"]["graded"] is False
    assert not records(lines, "expectation")


def test_suite_alpha_target(capsys) -> None:
    code, lines, _ = run(capsys, ["suite", "--alpha", "2", "--pmax", "31"])
    assert code == 0
    outs = records(lines, "expectation")
    assert outs and all(o["passed"] for o in outs)


def test_suite_family_findings_vs_graded(capsys) -> None:
    # heart(3,2,1): the top row grows like 2^n, so the constant-tail
    # expectation cannot hold; findings mode still exits 0
    base = ["suite", "--family", "heart:3,2,1", "--pmax", "31"]
    code, lines, _ = run(capsys, base)
    assert code == 0
    assert records(lines, "solution")

    code, lines, _ = run(capsys, base + ["--expect"])
    assert code == 5
    assert trailer(lines)["status"] == "expectation_failure"
    failed = [o for o in records(lines, "expectation") if not o["passed"]]
    assert failed and all(o["aspect"] == "constant" for o in failed)
    # the congruence part of the pattern still holds
    cong = [o for o in records(lines, "expectation") if o["aspect"] == "congruence"]
    assert cong and all(o["passed"] for o in cong)


def test_suite_family_heart_221_graded(capsys) -> None:
    # heart(2,2,1) solves to alpha_2, whose pattern holds; n = 2 leaves no
    # strictly-middle congruence level
    code, lines, _ = run(
        capsys, ["suite", "--family", "heart:2,2,1", "--pmax", "47", "--expect"]
    )
    assert code == 0
    assert records(lines, "solution")[0]["poly"]["coeffs"] == [
        str(c) for c in alpha_poly(2).coeffs
    ]
    outs = records(lines, "expectation")
    assert outs and all(o["passed"] for o in outs)
    assert records(lines, "note")


def test_suite_family_takes_every_suite_flag(capsys) -> None:
    code, lines, _ = run(
        capsys,
        ["suite", "--family", "heart:3,2,1", "--pmax", "31", "--kmax", "1",
         "--convergence"],
    )
    assert code == 0
    levels = records(lines, "level")
    assert [l["level"] for l in levels] == [0, 1]
    assert all("convergence" in l for l in levels)


def test_suite_scans_exactly_before_recurrence_onset(capsys) -> None:
    # atypical's level-0 recurrence starts at exponent 43, past the exact
    # limit; primes below it are read from the table instead
    code, lines, _ = run(
        capsys, ["--exact-limit", "30", "suite", "--name", "atypical", "--no-expect"]
    )
    assert code == 0
    levels = records(lines, "level")
    assert len(levels) == 6
    assert levels[0]["recurrence"]["onset"] == 42
    method = levels[0]["congruence"]["method"]
    assert [method[p] for p in ("31", "37", "41")] == ["exact"] * 3
    assert method["43"] == "recurrence_extended"


def test_limits_solve(capsys) -> None:
    code, lines, _ = run(
        capsys, ["limits", "solve", "--family", "spade", "--m", "2", "--n", "3"]
    )
    assert code == 0
    sol = records(lines, "solution")[0]
    assert sol["poly"]["coeffs"] == ["-1", "0", "0", "-2", "1"]
    assert sol["certificate"]["verdict"] == "pisot"
    # the identity is proved exactly; the root prints at its width in bits
    assert sol["residual_hi"] == "0"
    assert sol["root"]["bits"] == pisotlab.limits.DEFAULT_SOLVE_BITS


def test_limits_solve_prints_the_proof_that_solved_it(capsys) -> None:
    # the disk count proves spade(1000, 26) with conjugates inside radius
    # 15/16 and brackets theta by [1, 1 + max|a_i|]; no second certification
    spec = pisotlab.limits.LogEquationSpec("spade", 1000, 26)
    proof = pisotlab.limits.solve_log_equation(spec).certificate
    code, lines, _ = run(
        capsys, ["limits", "solve", "--family", "spade", "--m", "1000", "--n", "26"]
    )
    assert code == 0
    cert = records(lines, "solution")[0]["certificate"]
    assert cert == certificate_payload(proof)
    assert cert["conjugate_bound"] == "15/16"
    root = cert["dominant_root"]
    assert (Fraction(root["lo"]), Fraction(root["hi"])) == (1, 1001)
    assert cert["irreducibility_witness"] is None
    assert "conjugate_moduli" not in cert


def test_suite_family_root_at_the_window_end(capsys) -> None:
    # the root lies within 2^-192 of m = 10^10, where the mpmath gate refused
    code, lines, _ = run(capsys, ["suite", "--family", "heart:10000000000,7,1",
                                  "--no-expect", "--pmax", "7", "--nmax", "8", "--kmax", "1"])
    assert code == 0
    assert records(lines, "solution")[0]["residual_hi"] == "0"
    assert len(records(lines, "level")) == 2


def test_generate_needs_no_log_gate(capsys, monkeypatch) -> None:
    def no_log_gate(*args):
        raise AssertionError("the mpmath log gate ran")

    monkeypatch.setattr(pisotlab.limits, "_log_ratio", no_log_gate)
    code, lines, _ = run(capsys, ["generate", "--target", "7"])
    assert code == 0
    assert records(lines, "target_check")[0]["achieved"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--target", str(10**30)],
        ["suite", "--family", "heart:3,2,1", "--pmax", "2000000"],
    ],
)
def test_scan_range_refused_before_the_solve(capsys, monkeypatch, argv) -> None:
    def no_solve(spec):
        raise AssertionError("solved %s before the range check" % spec.label())

    monkeypatch.setattr(pisotlab.cli, "solve_log_equation", no_solve)
    code, lines, err = run(capsys, argv)
    assert code == 2
    assert "primes are scanned up to 1000000" in err
    assert lines == []


def test_iterate_value_past_the_digit_cap(capsys) -> None:
    # 100000^900 = 10^4500 has more digits than str() converts by default
    code, lines, _ = run(capsys, ["iterate", "--poly", "-100000,1", "--n", "900:900", "--kmax", "0"])
    assert code == 0
    assert records(lines, "row")[0]["values"]["900"] == "1" + "0" * 4500


def test_certify_pisot_without_witness_prime(capsys) -> None:
    # the minimal polynomial of 5 - 4 sqrt2 - 3 sqrt3 + 2 sqrt6: its Galois
    # group V4 leaves it reducible modulo every prime
    code, lines, _ = run(capsys, ["certify", "--poly", "4,8,-16,-20,1"])
    assert code == 0
    cert = records(lines, "certificate")[0]
    assert cert["verdict"] == "pisot"
    assert cert["irreducibility_witness"] is None


def test_limits_solve_degenerate(capsys) -> None:
    code, lines, err = run(
        capsys, ["limits", "solve", "--family", "club", "--m", "2", "--n", "1"]
    )
    assert code == 6
    assert "error:" in err


def test_limits_identities_ok_and_gate(capsys, monkeypatch) -> None:
    code, lines, _ = run(capsys, ["limits", "identities", "--n", "1:2"])
    assert code == 0
    assert len(records(lines, "identity")) == 2 * 2 + 3

    # nothing is certified above 1e-30 at 64 bits: the bits fell short
    code, lines, _ = run(capsys, ["limits", "identities", "--n", "1:2", "--bits", "64"])
    assert code == 4
    assert trailer(lines)["status"] == "precision_failure"

    # a residual whose lower end is above tol refutes the identity
    def refuted(kind, n, bits):
        return RatInterval(Fraction(1, 10**20), Fraction(1, 10**19))

    monkeypatch.setattr(pisotlab.cli, "verify_identity", refuted)
    code, lines, _ = run(capsys, ["limits", "identities", "--n", "1:2"])
    assert code == 6
    assert [l for l in lines if "error" in l] == [
        {"error": "residual", "message": "worst identity residual 1/100000000000000000000 above tol"}
    ]
    assert trailer(lines)["status"] == "residual_failure"


def test_limits_ordering(capsys) -> None:
    code, lines, _ = run(capsys, ["limits", "ordering", "--count", "2"])
    assert code == 0
    assert [e["label"] for e in records(lines, "chain_entry")] == [
        "alpha_1=beta_1",
        "alpha_2",
        "beta_2",
    ]
    chain = records(lines, "chain")[0]
    assert chain["strictly_increasing"] and chain["all_below_two"]


def test_generate_hits_target(capsys) -> None:
    code, lines, _ = run(capsys, ["generate", "--target", "5", "--pmax", "31"])
    assert code == 0
    check = records(lines, "target_check")[0]
    assert check == {"record": "target_check", "target": "5", "achieved": True}
    cong = records(lines, "congruence")[0]
    assert cong["branch"]["value"] == "5"
    assert cong["branch"]["onset_prime"] == 11


def test_generate_count_limits_terms(capsys) -> None:
    code, lines, _ = run(capsys, ["generate", "--target", "7", "--count", "3"])
    assert code == 0
    assert header(lines)["inputs"]["count"] == 3
    assert records(lines, "sequence")[0]["terms"] == ["7", "49", "340"]


def test_generate_precision_cap_exhaustion(capsys, monkeypatch) -> None:
    # the cap fails every level-0 cell, so generate reports them as iterate
    # and suite do: one rounding error per cell and exit 4, not a scan error
    monkeypatch.setattr(pisotlab.field, "CAP_BITS", 32)
    code, lines, _ = run(capsys, ["generate", "--target", "7", "--pmax", "31"])
    assert code == 4
    assert records(lines, "sequence")[0]["terms"] == []
    assert not records(lines, "target_check")
    errs = [l for l in lines if "error" in l]
    assert [(e["error"], e["level"], e["n"]) for e in errs] == [
        ("rounding", 0, n) for n in range(1, 61)
    ]
    assert errs[0]["message"].startswith("PrecisionExhausted: rounding undecided at 32 bits")
    assert trailer(lines) == {"status": "rounding_failure", "error_count": 60}


def test_generate_scan_error_without_a_recurrence(capsys) -> None:
    # heart(100, 2, 1)'s level-0 row at n <= 60 shows no recurrence, so the
    # primes past the exact range cannot be scanned and level 0 has no report
    code, lines, _ = run(capsys, ["--exact-limit", "60", "generate", "--target", "100"])
    assert code == 5
    assert [l.get("record") for l in lines[1:-1]] == ["sequence", None]
    assert len(records(lines, "sequence")[0]["terms"]) == 12
    assert lines[-2] == {
        "error": "scan",
        "message": "RecurrenceUnavailable: primes beyond exact_limit=60 need a "
        "verified recurrence for level 0",
    }
    assert trailer(lines) == {"status": "error", "error_count": 1}


def test_suite_graded_below_the_expected_levels(capsys) -> None:
    # plastic grades levels 0-2; a table cut at level 0 fails both others
    code, lines, _ = run(capsys, ["suite", "--name", "plastic", "--kmax", "0"])
    assert code == 5
    assert [l["level"] for l in records(lines, "level")] == [0]
    coverage = [
        {k: o[k] for k in ("level", "passed", "expected", "observed")}
        for o in records(lines, "expectation")
        if o["aspect"] == "coverage"
    ]
    assert coverage == [
        {"level": k, "passed": False, "expected": "level tabulated", "observed": "level missing"}
        for k in (1, 2)
    ]
    assert all(o["passed"] for o in records(lines, "expectation") if o["level"] == 0)
    assert trailer(lines) == {"status": "expectation_failure", "error_count": 0}


def test_catalog_flag(capsys, tmp_path) -> None:
    cat = tmp_path / "only_golden.json"
    cat.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "entries": [{"name": "golden", "coeffs": ["-1", "-1", "1"]}],
            }
        )
    )
    code, _, _ = run(capsys, ["--catalog", str(cat), "certify", "--name", "golden"])
    assert code == 0
    code, _, err = run(capsys, ["--catalog", str(cat), "certify", "--name", "silver"])
    assert code == 2
    assert "no catalog entry" in err


def test_output_is_byte_deterministic(capsys) -> None:
    argv = ["suite", "--name", "plastic", "--pmax", "31", "--convergence"]
    code1 = main(argv)
    first = capsys.readouterr().out
    code2 = main(argv)
    second = capsys.readouterr().out
    assert code1 == code2 == 0
    assert first == second


def _golden_commands() -> list[tuple[list[str], int, str]]:
    """(argv, exit code, stdout) of every command in the benchmark's golden
    file: a header line with the record count, then the records."""
    lines = GOLDEN_CLI.read_text(encoding="utf-8").splitlines()
    out = []
    i = 0
    while i < len(lines):
        head = json.loads(lines[i])
        n = head["lines"]
        stdout = "".join(line + "\n" for line in lines[i + 1 : i + 1 + n])
        out.append((head["argv"], head["exit"], stdout))
        i += 1 + n
    return out


GOLDEN_COMMANDS = _golden_commands()


def test_cheap_golden_commands_present() -> None:
    assert len(GOLDEN_COMMANDS) == 29


@pytest.mark.parametrize(
    "argv,code,stdout", GOLDEN_COMMANDS, ids=[" ".join(c[0]) for c in GOLDEN_COMMANDS]
)
def test_output_matches_golden(capsys, argv, code, stdout) -> None:
    assert main(list(argv)) == code
    assert capsys.readouterr().out == stdout


class _PrecisionSubclass(errors.PrecisionExhausted):
    """The exit code is taken by isinstance: a subclass keeps its base's."""


@pytest.mark.parametrize(
    "exc, code",
    [
        (errors.InvalidParameters("x"), 2),
        (errors.NonExactDivision("x"), 2),
        (errors.CatalogError("x"), 2),
        (errors.NotPisot("x"), 3),
        (errors.PrecisionExhausted("x"), 4),
        (_PrecisionSubclass("x"), 4),
        (errors.RecurrenceUnavailable("x"), 2),
        (errors.ResidualTooLarge("x"), 6),
        (errors.NoRootInInterval("x"), 6),
        (errors.NoRecurrenceFound("x"), 2),
        (errors.PisotLabError("x"), 2),
    ],
)
def test_error_exit_codes(monkeypatch, capsys, exc, code) -> None:
    def fail(args, out):
        raise exc

    monkeypatch.setattr(pisotlab.cli, "cmd_certify", fail)
    assert main(["certify", "--name", "golden"]) == code
    assert capsys.readouterr().err == "error: x\n"


def _overlapping_chain(monkeypatch):
    # beta_2 made alpha_2: the two enclosures overlap at every precision
    monkeypatch.setattr(pisotlab.limits, "beta_poly", alpha_poly)


def _no_comparator_refinement(monkeypatch):
    # silver's first level-0 enclosures overlap from n = 101 on
    monkeypatch.setattr(pisotlab.transform, "COMPARATOR_CAP_BITS", 64)


def _silver_level0_to_104():
    return build_table(NumberField.from_poly([-1, -2, 1]), 0, 1, 104)


# the sites that raised NotMonic, ZeroConstantTerm, DegreeMismatch,
# IndexBelowOnset, IncomparableAdjacent and IncomparableMagnitudes: each
# keeps its message and, where a command reaches it, its exit code
@pytest.mark.parametrize(
    "setup, call, base, message, argv, code",
    [
        pytest.param(
            None, lambda: certify_pisot(IntPolynomial.from_coeffs([1, 2])),
            errors.InvalidParameters, "polynomial must be monic, leading term 2",
            ["certify", "--poly", "1,2"], 2, id="not_monic",
        ),
        pytest.param(
            None, lambda: certify_pisot(IntPolynomial.from_coeffs([0, -1, 1])),
            errors.InvalidParameters, "constant term is zero; 0 would be a root",
            ["certify", "--poly", "0,-1,1"], 2, id="zero_constant_term",
        ),
        pytest.param(
            None,
            lambda: classify_pair(
                IntPolynomial.from_coeffs([1, 1]), IntPolynomial.from_coeffs([1, 1, 1])
            ),
            errors.InvalidParameters, "degrees differ: 1 vs 2", None, None,
            id="degree_mismatch",
        ),
        pytest.param(
            None, lambda: modular_extend(Recurrence(order=2, coeffs=(1, 1), onset=4), [7, 11], 5, 2),
            errors.InvalidParameters, "index 2 precedes the recurrence onset 4", None, None,
            id="index_below_onset",
        ),
        pytest.param(
            _overlapping_chain, lambda: ordering_check(2),
            errors.PrecisionExhausted, "chain enclosures still overlap at 4096 bits",
            ["limits", "ordering", "--count", "2"], 4, id="incomparable_adjacent",
        ),
        pytest.param(
            _no_comparator_refinement, lambda: convergence_check(_silver_level0_to_104(), 0),
            errors.PrecisionExhausted,
            "magnitude pairs [(101, 102), (102, 103), (103, 104)] undecided at 64 bits",
            ["suite", "--name", "silver", "--no-expect", "--kmax", "0", "--nmax", "104",
             "--convergence"],
            0, id="incomparable_magnitudes",
        ),
    ],
)
def test_former_subclass_raise_sites(
    capsys, monkeypatch, setup, call, base, message, argv, code
) -> None:
    if setup is not None:
        setup(monkeypatch)
    with pytest.raises(base) as info:
        call()
    assert type(info.value) is base and str(info.value) == message
    if argv is None:
        return  # no command reaches this site
    got, lines, err = run(capsys, argv)
    assert got == code
    if code == 0:
        # the suite records an undecided row and goes on
        assert records(lines, "level")[0]["convergence_error"] == message
        assert trailer(lines) == {"status": "ok", "error_count": 0}
    else:
        assert (lines, err) == ([], "error: %s\n" % message)


def test_suite_alpha_1_grades_level_0_against_1(capsys) -> None:
    # alpha_1 = beta_1 = x^2 - x - 1, whose level-0 row is the Lucas numbers
    # from n = 2 on, and L_p = 1 (mod p)
    code, lines, _ = run(capsys, ["suite", "--alpha", "1"])
    assert code == 0
    assert all(o["passed"] for o in records(lines, "expectation"))
    residues = records(lines, "level")[0]["congruence"]["residues"]
    lucas = [2, 1]
    while len(lucas) <= 97:
        lucas.append(lucas[-1] + lucas[-2])
    assert len(residues) == 25
    for p, r in residues.items():
        assert int(r) % int(p) == lucas[int(p)] % int(p)


@pytest.mark.parametrize(
    "argv, err",
    [
        (["suite", "--poly", "1,1"],
         "x + 1 failed certification: root at -1 lies on the unit circle"),
        (["iterate", "--poly", "-1,0,1", "--n", "1:3"],
         "x^2 - 1 failed certification: root at 1 lies on the unit circle"),
        (["suite", "--poly", "-6,1,1"],
         "x^2 + x - 6 failed certification: real root at -3 outside the open unit disk"),
        (["suite", "--poly", "0,1"], "constant term is zero; 0 would be a root"),
    ],
)
def test_field_refusals_keep_certify_messages(capsys, argv, err) -> None:
    code, _, got = run(capsys, argv)
    assert (code, got) == (3 if "failed" in err else 2, "error: %s\n" % err)


def _python(args: list[str], **kwargs) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports pisotlab from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, **kwargs)


def test_python_dash_m_runs_the_cli() -> None:
    argv = ["certify", "--name", "golden"]
    proc = _python(["-m", "pisotlab", *argv], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == next(out for a, _, out in GOLDEN_COMMANDS if a == argv)


def test_closed_stdout_pipe_ends_quietly() -> None:
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first line
    try:
        proc = _python(
            ["-m", "pisotlab", "suite", "--name", "golden"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == pisotlab.cli.EXIT_BROKEN_PIPE


def test_closed_pipe_leaves_in_memory_stdout_alone(monkeypatch) -> None:
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError

    redirected = []
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    monkeypatch.setattr(os, "dup2", lambda *fds: redirected.append(fds))
    assert main(["certify", "--name", "golden"]) == pisotlab.cli.EXIT_BROKEN_PIPE
    assert redirected == []


_IMPORT_PROBE = """
import contextlib, io, sys
from pisotlab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, "sympy" in sys.modules)
"""


@pytest.mark.parametrize(
    "argv, imports_sympy",
    [
        (["suite", "--name", "golden", "--pmax", "13"], False),
        (["iterate", "--name", "plastic", "--n", "1:40"], False),
        # certify prints sympy's root enclosures, so it still isolates with sympy
        (["certify", "--name", "golden"], True),
        # limits solve prints the disk-count proof that solved it
        (["limits", "solve", "--family", "spade", "--m", "2", "--n", "3"], False),
        (["generate", "--target", "7"], False),
        (["suite", "--family", "heart:2,2,1", "--pmax", "13"], False),
        (["limits", "identities", "--n", "1:2"], False),
        (["limits", "ordering", "--count", "2"], False),
        (["limits", "solve", "--family", "spade", "--m", "1000", "--n", "26"], False),
    ],
)
def test_which_commands_import_sympy(argv, imports_sympy) -> None:
    proc = _python(["-c", _IMPORT_PROBE, *argv], capture_output=True, text=True)
    assert proc.stdout.split() == ["0", str(imports_sympy)], proc.stderr
