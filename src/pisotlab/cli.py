"""Command-line front end.

Commands:

* ``certify``   -- Pisot certification of a polynomial or catalog entry
* ``iterate``   -- tabulate iterate rows u^k_n
* ``suite``     -- run every scanner over a field, optionally graded
* ``limits``    -- log-equation solving, identity residuals, ordering chain
* ``generate``  -- build a sequence whose prime-indexed terms hit a target
                   residue class

Exit codes: 0 success (including pure findings), 2 unparseable input,
3 certified not-Pisot, 4 a precision cap or ``--bits`` too low to certify,
5 a graded expectation failed, 6 an identity residual above 1e-30
(``limits.DEFAULT_TOL``), a log equation false in Z[theta] or no root in the
family window, 141 stdout closed by its reader (no traceback).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict

from . import catalog as catalog_mod
from .certify import certify_pisot
from .conjectures import (
    EXACT_LIMIT_DEFAULT,
    alpha_expectations,
    beta_expectations,
    check_scan_range,
    heart_expectations,
    run_suite,
)
from .errors import (
    InvalidParameters,
    NoRootInInterval,
    NotPisot,
    PisotLabError,
    PrecisionExhausted,
    ResidualTooLarge,
)
from .field import NumberField
from .limits import (
    DEFAULT_SOLVE_BITS,
    DEFAULT_TOL,
    IDENTITY_KINDS,
    LogEquationSpec,
    ordering_check,
    solve_log_equation,
    verify_identity,
)
from .poly import DEGREE_LIMIT, IntPolynomial, alpha_poly, beta_poly
from .report import (
    ReportWriter,
    certificate_payload,
    congruence_payload,
    enc_fraction,
    enc_int,
    enc_interval,
    enc_poly,
)
from .transform import build_table

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NOT_PISOT = 3
EXIT_ROUNDING = 4
EXIT_EXPECTATION = 5
EXIT_RESIDUAL = 6
# the reader of stdout went away (e.g. ``| head -1``): 128 + SIGPIPE, the
# status a shell reports for a writer the closed pipe killed
EXIT_BROKEN_PIPE = 141

# first match wins, as in an except chain
_EXIT_CODES = (
    (NotPisot, EXIT_NOT_PISOT),
    (PrecisionExhausted, EXIT_ROUNDING),
    ((ResidualTooLarge, NoRootInInterval), EXIT_RESIDUAL),
    (PisotLabError, EXIT_PARSE),
)


def _parse_poly(text: str) -> IntPolynomial:
    if not text.strip():
        raise InvalidParameters("empty coefficient list")
    try:
        return IntPolynomial.from_coeffs(text.split(","))
    except InvalidParameters as exc:
        raise InvalidParameters(
            "polynomial must be comma-separated integers, ascending: %s" % exc
        ) from exc


def _parse_range(text: str, what: str) -> tuple[int, int]:
    try:
        if ":" in text:
            lo_s, hi_s = text.split(":", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError as exc:
        raise InvalidParameters("bad %s range %r" % (what, text)) from exc
    if lo > hi:
        raise InvalidParameters("%s range is empty: %s" % (what, text))
    return lo, hi


def _parse_family(text: str) -> LogEquationSpec:
    """'heart:3,2,1' or 'club:4,5' or 'spade:2,1'."""
    try:
        fam, rest = text.split(":", 1)
        return LogEquationSpec(fam.strip(), *(int(t) for t in rest.split(",")))
    except (ValueError, TypeError) as exc:
        raise InvalidParameters("bad family spec %r: %s" % (text, exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pisotlab",
        description="Exact iterate tables, congruence scans, and limit-point "
        "construction for Pisot numbers.",
    )
    p.add_argument("--exact-limit", type=int, default=EXACT_LIMIT_DEFAULT,
                   help="largest prime evaluated through the exact transform")
    p.add_argument("--catalog",
                   help="path to a catalog JSON file (default: bundled)")

    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("certify", help="certify a polynomial as Pisot")
    tgt = c.add_mutually_exclusive_group(required=True)
    tgt.add_argument("--poly", help="ascending comma-separated coefficients")
    tgt.add_argument("--name", help="catalog entry name")

    it = sub.add_parser("iterate", help="tabulate iterate rows")
    tgt = it.add_mutually_exclusive_group(required=True)
    tgt.add_argument("--poly")
    tgt.add_argument("--name")
    it.add_argument("--kmax", type=int, default=None, help="top iterate level")
    it.add_argument("--n", default="1:60", help="exponent range LO:HI")

    s = sub.add_parser("suite", help="run all scanners over one field")
    tgt = s.add_mutually_exclusive_group(required=True)
    tgt.add_argument("--poly")
    tgt.add_argument("--name")
    tgt.add_argument("--alpha", type=int, metavar="N",
                     help="degree-(N+1) alpha-family limit point")
    tgt.add_argument("--beta", type=int, metavar="N",
                     help="degree-(N+1) beta-family limit point")
    tgt.add_argument("--family", metavar="FAM:M,N[,L]",
                     help="solve a log-equation family member first")
    s.add_argument("--pmax", type=int, default=97)
    s.add_argument("--plo", type=int, default=2)
    s.add_argument("--kmax", type=int, default=None)
    s.add_argument("--nmax", type=int, default=None)
    s.add_argument("--convergence", action="store_true",
                   help="also run magnitude convergence checks")
    s.add_argument("--expect", dest="expect", action="store_true", default=None,
                   help="grade against expectations (default for --name/--alpha/--beta)")
    s.add_argument("--no-expect", dest="expect", action="store_false",
                   help="findings mode: report, never fail")

    lm = sub.add_parser("limits", help="limit-point construction and identities")
    lsub = lm.add_subparsers(dest="limits_command", required=True)
    ls = lsub.add_parser("solve", help="solve one log-equation spec")
    ls.add_argument("--family", required=True, choices=["club", "heart", "spade"])
    ls.add_argument("--m", type=int, required=True)
    ls.add_argument("--n", type=int, required=True)
    ls.add_argument("--l", type=int, default=None)
    li = lsub.add_parser("identities", help="certify the closed-form identities")
    li.add_argument("--n", default="1:8", help="range for the indexed identities")
    li.add_argument("--bits", type=int, default=256, dest="id_bits")
    lo = lsub.add_parser("ordering", help="certify the limit-point ordering chain")
    lo.add_argument("--count", type=int, default=3)
    lo.add_argument("--bits", type=int, default=128, dest="ord_bits")

    g = sub.add_parser("generate",
                       help="sequence whose prime-indexed terms are = target (mod p)")
    g.add_argument("--target", type=int, required=True, metavar="M")
    g.add_argument("--pmax", type=int, default=None)
    g.add_argument("--count", type=int, default=40,
                   help="at most this many terms of the 12-term row head")

    return p


def _merge_dash_values(argv: list[str]) -> list[str]:
    """Join ``--poly -3,-1,1`` into ``--poly=-3,-1,1`` so argparse does not
    mistake a leading negative coefficient for an option."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--poly" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(tok + "=" + argv[i + 1])
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_merge_dash_values(list(sys.argv[1:] if argv is None else argv)))
    handler = {
        "certify": cmd_certify,
        "iterate": cmd_iterate,
        "suite": cmd_suite,
        "limits": cmd_limits,
        "generate": cmd_generate,
    }[args.command]
    try:
        code = handler(args, sys.stdout)
        sys.stdout.flush()  # a closed pipe may first show on this flush
        return code
    except BrokenPipeError:
        _silence_stdout()
        return EXIT_BROKEN_PIPE
    except PisotLabError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return next(code for types, code in _EXIT_CODES if isinstance(exc, types))


def _silence_stdout() -> None:
    """Point a stdout whose reader has gone at os.devnull, so the
    interpreter's final flush raises nothing; an in-memory stdout (no file
    descriptor) is left as it is."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _resolve_poly(args) -> tuple[str, IntPolynomial]:
    if getattr(args, "poly", None) is not None:
        return ("poly:%s" % args.poly, _parse_poly(args.poly))
    cat = catalog_mod.load_catalog(args.catalog)
    entry = cat.get(args.name)
    return (entry.name, entry.poly)


# ---------------------------------------------------------------------------


def cmd_certify(args, out) -> int:
    label, poly = _resolve_poly(args)
    writer = ReportWriter(out, "certify", {"target": label, "poly": enc_poly(poly)})
    cert = certify_pisot(poly)
    writer.record("certificate", certificate_payload(cert))
    if not cert.geometry_ok:
        writer.close("not_pisot")
        return EXIT_NOT_PISOT
    writer.close()
    return EXIT_OK


def cmd_iterate(args, out) -> int:
    label, poly = _resolve_poly(args)
    n_lo, n_hi = _parse_range(args.n, "exponent")
    if n_lo < 1:
        raise InvalidParameters("exponents start at 1")
    k_max = args.kmax if args.kmax is not None else poly.degree - 1
    writer = ReportWriter(
        out,
        "iterate",
        {"target": label, "poly": enc_poly(poly), "kmax": k_max, "n": [n_lo, n_hi]},
    )
    field = NumberField.from_poly(poly)
    table = build_table(field, k_max, n_lo, n_hi)
    for k in range(k_max + 1):
        cells = table.cells_at_level(k)
        writer.record(
            "row",
            {
                "level": k,
                "n_lo": n_lo,
                "values": {str(c.n): enc_int(c.integer_part) for c in cells},
                "exact_zero": {str(c.n): c.exact_zero for c in cells},
            },
        )
    if _rounding_failures(writer, table.failures):
        return EXIT_ROUNDING
    writer.close()
    return EXIT_OK


def _rounding_failures(writer: ReportWriter, failures: dict) -> bool:
    """One ``rounding`` error per failed cell, then a rounding-failure close."""
    for (k, n), reason in sorted(failures.items()):
        writer.error("rounding", reason, level=k, n=n)
    if failures:
        writer.close("rounding_failure")
    return bool(failures)


def _suite_target(args):
    """Resolve the suite target to (label, poly or LogEquationSpec,
    expectations, graded)."""
    if args.alpha is not None or args.beta is not None:
        alpha = args.alpha is not None
        name, n = ("alpha", args.alpha) if alpha else ("beta", args.beta)
        if n < 1:
            raise InvalidParameters("--%s needs N >= 1" % name)
        if n + 1 > DEGREE_LIMIT:  # before the polynomial and its expectations are built
            raise InvalidParameters("degree is at most %d, not %d" % (DEGREE_LIMIT, n + 1))
        label, poly = "%s_%d" % (name, n), (alpha_poly if alpha else beta_poly)(n)
        expectations = (alpha_expectations if alpha else beta_expectations)(n, max_onset_prime=13)
    elif args.family is not None:
        spec = _parse_family(args.family)
        if spec.family != "heart":
            raise InvalidParameters("generalized congruences are stated for the heart family")
        # family targets default to findings mode; --expect opts into grading
        return (spec.label(), spec, heart_expectations(spec.m, spec.n), bool(args.expect))
    elif args.name is not None:
        entry = catalog_mod.load_catalog(args.catalog).get(args.name)
        label, poly, expectations = entry.name, entry.poly, entry.expectations
    else:
        (label, poly), expectations = _resolve_poly(args), None
    graded = args.expect if args.expect is not None else expectations is not None
    return (label, poly, expectations, graded)


def cmd_suite(args, out) -> int:
    label, target, expectations, graded = _suite_target(args)
    check_scan_range(args.plo, args.pmax, args.exact_limit)  # before the field is built
    writer = ReportWriter(
        out, "suite", {"target": label, "pmax": args.pmax, "graded": graded}
    )
    if isinstance(target, LogEquationSpec):
        sol = solve_log_equation(target)
        field = NumberField(sol.poly, sol.certificate)
    else:
        field = NumberField.from_poly(target)
    suite = run_suite(
        field,
        expectations if graded else None,
        p_lo=args.plo,
        p_hi=args.pmax,
        k_max=args.kmax,
        n_hi=args.nmax,
        exact_limit=args.exact_limit,
        include_convergence=args.convergence,
    )
    # the suite runs first, so that it refuses its inputs before any output
    if isinstance(target, LogEquationSpec):
        writer.record("solution", _solution_payload(sol))
    _emit_suite(writer, suite, graded=graded)
    if isinstance(target, LogEquationSpec) and target.n <= 2:
        writer.record("note", {"text": "no strictly-middle congruence levels; skipped"})
    if _rounding_failures(writer, suite.table_failures):
        return EXIT_ROUNDING
    if graded and not suite.passed:
        writer.close("expectation_failure")
        return EXIT_EXPECTATION
    writer.close()
    return EXIT_OK


def _solution_payload(sol, **extra) -> dict:
    return {
        "poly": enc_poly(sol.poly),
        "root": enc_interval(sol.root, DEFAULT_SOLVE_BITS),
        "residual_hi": "0",  # the identity is proved exactly
        **extra,
    }


def _emit_suite(writer: ReportWriter, suite, *, graded: bool) -> None:
    for rep in suite.levels:
        payload: dict = {
            "level": rep.level,
            "u_head": [enc_int(v) for v in rep.u_head],
        }
        if rep.recurrence is not None:
            payload["recurrence"] = {
                "order": rep.recurrence.order,
                "coeffs": [enc_fraction(c) for c in rep.recurrence.coeffs],
                "onset": rep.recurrence.onset,
            }
            if rep.characteristic is not None:
                payload["characteristic"] = enc_poly(rep.characteristic)
                payload["symmetry"] = rep.symmetry.value
        elif rep.recurrence_error:
            payload["recurrence_error"] = rep.recurrence_error
        if rep.congruence is not None:
            payload["congruence"] = congruence_payload(rep.congruence)
        elif rep.congruence_error:
            payload["congruence_error"] = rep.congruence_error
        if rep.constant is not None:
            payload["constant"] = asdict(rep.constant)
        if rep.convergence is not None:
            payload["convergence"] = asdict(rep.convergence)
        elif rep.convergence_error:
            payload["convergence_error"] = rep.convergence_error
        writer.record("level", payload)
    for pa in suite.pair_audits:
        writer.record(
            "pair_audit",
            {"level_a": pa.level_a, "level_b": pa.level_b, "relation": pa.relation.value},
        )
    if graded:
        for o in suite.outcomes:
            writer.record("expectation", asdict(o))


def cmd_limits(args, out) -> int:
    if args.limits_command == "solve":
        spec = LogEquationSpec(args.family, args.m, args.n, args.l)
        writer = ReportWriter(out, "limits solve", {"spec": spec.label()})
        sol = solve_log_equation(spec)
        writer.record(
            "solution",
            _solution_payload(
                sol,
                unit_root_multiplicity=sol.unit_root_multiplicity,
                certificate=certificate_payload(sol.certificate),
            ),
        )
        writer.close()
        return EXIT_OK

    if args.limits_command == "identities":
        n_lo, n_hi = _parse_range(args.n, "identity index")
        writer = ReportWriter(
            out, "limits identities", {"n": [n_lo, n_hi], "bits": args.id_bits}
        )
        # every residual comes before the first record, so a refused n prints nothing
        residuals = [
            (kind, n, verify_identity(kind, n, args.id_bits))
            for kind in IDENTITY_KINDS
            for n in (range(n_lo, n_hi + 1) if kind in ("I", "II") else (None,))
        ]
        for kind, n, r in residuals:
            enc = enc_interval(r, args.id_bits)
            writer.record("identity", {"kind": kind, "n": n, "residual": enc})
        # a lower end above tol refutes an identity; an upper end not below it
        # shows only that the bits fell short
        lo, hi = max(r.lo for *_, r in residuals), max(r.hi for *_, r in residuals)
        if lo > DEFAULT_TOL:
            writer.error("residual", "worst identity residual %s above tol" % lo)
            writer.close("residual_failure")
            return EXIT_RESIDUAL
        if hi >= DEFAULT_TOL:
            writer.error("precision", "residuals not below tol at %d bits" % args.id_bits)
            writer.close("precision_failure")
            return EXIT_ROUNDING
        writer.close()
        return EXIT_OK

    # ordering
    writer = ReportWriter(
        out, "limits ordering", {"count": args.count, "bits": args.ord_bits}
    )
    chain = ordering_check(args.count, args.ord_bits)
    for entry in chain.entries:
        writer.record(
            "chain_entry",
            {
                "label": entry.label,
                "poly": enc_poly(entry.poly),
                "enclosure": enc_interval(entry.enclosure, entry.bits),
            },
        )
    writer.record(
        "chain",
        {
            "strictly_increasing": chain.strictly_increasing,
            "all_below_two": chain.all_below_two,
            "first_pair_equal": chain.merged_first_pair,
            "gap_lower_bounds": [enc_fraction(g) for g in chain.gaps],
        },
    )
    writer.close()
    return EXIT_OK


def cmd_generate(args, out) -> int:
    m = args.target
    spec = LogEquationSpec("heart", m, 2, 1)
    if args.count < 1:
        raise InvalidParameters("--count must be >= 1")
    p_hi = args.pmax if args.pmax is not None else max(97, 4 * m)
    check_scan_range(2, p_hi, args.exact_limit)  # before the solve
    writer = ReportWriter(
        out, "generate", {"target": m, "pmax": p_hi, "count": args.count}
    )
    sol = solve_log_equation(spec)
    # only level 0 is reported, so only level 0 is tabulated
    suite = run_suite(
        NumberField(sol.poly, sol.certificate),
        p_hi=p_hi,
        k_max=0,
        exact_limit=args.exact_limit,
    )
    level0 = suite.level_report(0)
    writer.record(
        "sequence",
        {
            "poly": enc_poly(sol.poly),
            "terms": [enc_int(v) for v in level0.u_head[: args.count]],
            "note": "first terms of the integer-part row; scans cover n <= %d"
            % suite.n_hi,
        },
    )
    hit = False
    if level0.congruence is not None:
        writer.record("congruence", congruence_payload(level0.congruence))
        hit = level0.congruence.branch.matches(m)
        writer.record("target_check", {"target": enc_int(m), "achieved": hit})
    # a precision cap takes precedence over the target check, as in cmd_suite
    if _rounding_failures(writer, suite.table_failures):
        return EXIT_ROUNDING
    if level0.congruence is None:
        writer.error("scan", level0.congruence_error)
        writer.close("error")
        return EXIT_EXPECTATION
    writer.close() if hit else writer.close("expectation_failure")
    return EXIT_OK if hit else EXIT_EXPECTATION


if __name__ == "__main__":
    sys.exit(main())
