"""Integrity checks for the benchmark's tracer and oracle.

    python3 perfbench/selftest.py

Installs the tracer and checks that no pisotlab namespace still holds an
unwrapped original; runs one traced pass of every workload and checks that
it is correct (its outputs match the golden digests the untraced runs are
held to), that every layer function has calls on the workload meant to
exercise it, that the self times in each op's span tree sum to the latency
the run loop measured for that op, and that every span nests in its parent;
runs one untraced pass of catalog_cli; and checks that the oracle rejects
wrong verdicts.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys

import workloads

# Layer functions that must have calls > 0 on each workload's traced pass.
INTENDED = {
    "catalog_cli": (
        "certify.certify_pisot", "certify.refine_root",
        "field.round_with_enclosure", "field.eval_interval", "field.theta_enclosure",
        "field.element_mul", "field.theta_power", "transform.build_table",
        "transform.frac_magnitudes", "recurrence.detect_recurrence",
        "recurrence.modular_extend", "conjectures.run_suite",
        "conjectures.congruence_scan", "conjectures.constant_detect",
        "conjectures.convergence_check", "limits.solve_log_equation",
        "limits.verify_identity", "limits.ordering_check", "cli.main",
        "report.record", "catalog.load_catalog",
    ),
    "deep_iterate": (
        "certify.certify_pisot", "certify.refine_root",
        "field.round_with_enclosure", "field.eval_interval", "field.theta_enclosure",
        "field.element_mul", "field.theta_power", "transform.build_table",
        "transform.frac_magnitudes",
    ),
    "random_certify": ("certify.certify_pisot", "cli.main", "report.record"),
}
# Extra counts that must be nonzero on the same passes.
INTENDED_COUNTS = {
    "catalog_cli": (
        "conjectures.congruence_scan.recurrence_extended",
        "recurrence.detect_recurrence.found", "report.record.bytes",
        "field.round_with_enclosure.passes", "field.theta_enclosure.refines",
        "certify.refine_root.halvings",
    ),
    "deep_iterate": ("transform.build_table.cells", "certify.refine_root.bits_max"),
    "random_certify": ("certify.certify_pisot.not_pisot",),
}


# The loop's clock readings sit just outside the op span: they may differ by
# the call overhead between them, or a garbage collection run there.
SPAN_GAP_S = 2e-3


def check(ok: bool, what: str) -> None:
    print("%s %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        sys.exit(1)


def check_wrappers() -> None:
    import pisotlab
    import pisotlab.cli
    import pisotlab.conjectures
    import pisotlab.field
    import pisotlab.limits
    import tracing

    originals = {
        "field.refine_root": pisotlab.field.refine_root,
        "limits.certify_pisot": pisotlab.limits.certify_pisot,
        "conjectures.detect_recurrence": pisotlab.conjectures.detect_recurrence,
        "cli.build_table": pisotlab.cli.build_table,
        "pisotlab.build_table": pisotlab.build_table,
        "NumberField.mul": pisotlab.field.NumberField.__dict__["mul"],
    }
    tracer = tracing.Tracer()
    tracer.install()
    check(tracer.unwrapped() == [], "no pisotlab namespace holds an unwrapped original")
    now = {
        "field.refine_root": pisotlab.field.refine_root,
        "limits.certify_pisot": pisotlab.limits.certify_pisot,
        "conjectures.detect_recurrence": pisotlab.conjectures.detect_recurrence,
        "cli.build_table": pisotlab.cli.build_table,
        "pisotlab.build_table": pisotlab.build_table,
        "NumberField.mul": pisotlab.field.NumberField.__dict__["mul"],
    }
    for name, fn in now.items():
        check(getattr(fn, "__wrapped__", None) is originals[name], "%s is wrapped" % name)


def run_bench(workload: str, trace: int) -> tuple[dict, dict]:
    """One short run; returns (last output line, full record)."""
    proc = subprocess.run(
        [sys.executable, str(workloads.ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=workloads.ROOT,
    )
    check(proc.returncode == 0, "%s trace=%d exits 0" % (workload, trace))
    result = json.loads(proc.stdout.splitlines()[-1])
    record_file = workloads.ROOT / "perfbench" / "out" / (
        "%s-seed0-trace%d.json" % (workload, trace))
    return result, json.loads(record_file.read_text())


def check_traced(workload: str) -> None:
    result, record = run_bench(workload, 1)
    check(result["correct"], "%s traced outputs match golden" % workload)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for prefix in INTENDED[workload]:
        check(metrics[prefix + ".calls"] > 0, "%s: %s has calls" % (workload, prefix))
    for name in INTENDED_COUNTS[workload]:
        check(metrics[name] > 0, "%s: %s is nonzero" % (workload, name))
    check(record["span_gap_s"] < SPAN_GAP_S,
          "%s: self times sum to each op's loop-measured latency (gap %.1e s)"
          % (workload, record["span_gap_s"]))
    check(record["span_nesting_s"] == 0.0, "%s: every span nests in its parent" % workload)


def check_oracle() -> None:
    import golden
    import oracle

    pisot = workloads.cli_op(["certify", "--poly", workloads.RANDOM_COLD_POLY]).run({})
    check(oracle.check_certify(workloads.RANDOM_COLD_POLY, *pisot) is None,
          "oracle accepts the certificate of x^3 - x - 1")
    check(oracle.check_certify(workloads.RANDOM_COLD_POLY, 3, pisot[1]) is not None,
          "oracle rejects a not-Pisot verdict for x^3 - x - 1")
    check(oracle.check_certify("1,1,1", 0, pisot[1]) is not None,
          "oracle rejects a Pisot verdict for x^2 + x + 1")
    shifted = pisot[1].replace(b'"lo":"1.3', b'"lo":"1.4')
    check(oracle.check_certify(workloads.RANDOM_COLD_POLY, 0, shifted) is not None,
          "oracle rejects an enclosure that misses the root")
    stored = golden.expected("random_certify")
    check(len(stored) > 0, "random_certify golden digests are stored")


def main() -> int:
    if not workloads.use_source():
        print("error: no src/pisotlab tree next to perfbench/", file=sys.stderr)
        return 2
    check_wrappers()
    check_oracle()
    for workload in workloads.WORKLOADS:
        check_traced(workload)
    result, _ = run_bench("catalog_cli", 0)
    check(result["correct"], "catalog_cli untraced outputs match golden")
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
