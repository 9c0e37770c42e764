from __future__ import annotations

import json
from pathlib import Path

import pytest

import pisotlab.cli
import pisotlab.field
from pisotlab import errors
from pisotlab.cli import build_parser, main
from pisotlab.poly import alpha_poly

GOLDEN_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "catalog_cli.jsonl"


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
PARSE_ERROR_TEXT = {("certify", "--poly", ""): "error: empty coefficient list"}


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--poly", "1,x,1"],
        ["certify", "--name", "bronze"],
        ["iterate", "--name", "golden", "--n", "5:3"],
        ["iterate", "--name", "golden", "--n", "0:4"],
        ["--tol", "junk", "certify", "--name", "golden"],
        ["generate", "--target", "1"],
        ["--tol", "0", "limits", "identities"],
        ["limits", "ordering", "--bits", "-9"],
        ["limits", "ordering", "--count", "8", "--bits", "0"],
        ["--tol", "0", "limits", "solve", "--family", "spade", "--m", "2", "--n", "3"],
        ["generate", "--target", "7", "--count", "0"],
        ["suite", "--family", "heart:3,2"],
        ["suite", "--family", "heart:3,2,1,1"],
        ["suite", "--family", "club:3,2"],
        ["certify", "--poly", ""],
    ],
)
def test_parse_errors_exit_2(capsys, argv) -> None:
    code, lines, err = run(capsys, argv)
    assert code == 2
    assert PARSE_ERROR_TEXT.get(tuple(argv), "error:") in err


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


def test_global_options_are_tol_exact_limit_catalog() -> None:
    parser = build_parser()
    options = {
        opt
        for action in parser._actions
        for opt in action.option_strings
        if opt not in ("-h", "--help")
    }
    assert options == {"--tol", "--exact-limit", "--catalog"}


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


def test_limits_solve_degenerate(capsys) -> None:
    code, lines, err = run(
        capsys, ["limits", "solve", "--family", "club", "--m", "2", "--n", "1"]
    )
    assert code == 6
    assert "error:" in err


def test_limits_identities_ok_and_gate(capsys) -> None:
    code, lines, _ = run(capsys, ["limits", "identities", "--n", "1:2"])
    assert code == 0
    assert len(records(lines, "identity")) == 2 * 2 + 3

    code, lines, _ = run(
        capsys, ["--tol", "1e-200", "limits", "identities", "--n", "1:2"]
    )
    assert code == 6
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


@pytest.mark.parametrize(
    "exc, code",
    [
        (errors.InvalidParameters("x"), 2),
        (errors.NotMonic("x"), 2),
        (errors.CatalogError("x"), 2),
        (errors.NotPisot("x"), 3),
        (errors.ExactHalfInteger("x"), 4),
        (errors.PrecisionExhausted("x"), 4),
        (errors.IncomparableAdjacent("x"), 4),
        (errors.ResidualTooLarge("x"), 6),
        (errors.NoRootInInterval("x"), 6),
        (errors.NoRecurrenceFound("x"), 2),
    ],
)
def test_error_exit_codes(monkeypatch, capsys, exc, code) -> None:
    def fail(args, out):
        raise exc

    monkeypatch.setattr(pisotlab.cli, "cmd_certify", fail)
    assert main(["certify", "--name", "golden"]) == code
    assert capsys.readouterr().err == "error: x\n"
