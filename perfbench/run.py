"""Benchmark pisotlab end to end (tracing off) or per layer (tracing on).

    python3 perfbench/run.py --workload catalog_cli --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 28

One client runs the workload's operations in a closed loop, one at a time,
for a fixed number of whole passes, scaled by ``--seconds``.  Every output is checked against the golden
digests; random_certify verdicts are also checked against an independent
root oracle after the timed loop.  The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
full record, with the run environment, goes to ``perfbench/out/``.
See perfbench/README.md for the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import workloads

PROBES = 3
OUT_DIR = workloads.ROOT / "perfbench" / "out"
SOURCE_MODULES = (
    "__init__", "catalog", "certify", "cli", "conjectures", "errors", "field",
    "intervals", "limits", "poly", "primes", "recurrence", "report", "transform",
)
END_TO_END = (
    ("setup_s", "s"),
    ("cold_op_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_gmean_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ok_frac", "ratio"),
    ("rss_peak_mb", "MB"),
)


def ref_loop_s() -> float:
    """Time of a fixed pure-Python loop: a host-speed reading, never used to
    scale a metric."""
    t0 = perf_counter()
    x = 0
    for i in range(1_000_000):
        x += i
    return perf_counter() - t0


def probe(workload: str, seed: int) -> dict:
    """Set-up time and cold-op latency from one fresh interpreter."""
    script = workloads.ROOT / "perfbench" / "probe.py"
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(script), workload, str(seed)],
        stdout=subprocess.PIPE, text=True, cwd=workloads.ROOT,
    )
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - t0
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if ready.strip() != "ready" or code != 0:
        raise RuntimeError("probe for %s exited %d" % (workload, code))
    result = json.loads(rest.splitlines()[-1])
    result["setup_s"] = setup
    return result


class Checker:
    """Compares each operation's exit code and output digest with golden."""

    def __init__(self, workload: str):
        import golden

        self.expected = golden.expected(workload)
        # first output of each op, kept only for the random_certify oracle
        self.outputs: dict[str, tuple[int, bytes]] | None = (
            {} if workload == "random_certify" else None)
        self.failures: list[str] = []
        self.attempted = 0

    def check(self, name: str, code, data: bytes | None, error: str | None = None) -> None:
        if error is not None:
            self.attempted += 1
            self.failures.append("%s: raised %s" % (name, error))
            return
        if self.outputs is not None:
            self.outputs.setdefault(name, (code, data))
        self.compare(name, code, hashlib.sha256(data).hexdigest())

    def compare(self, name: str, code: int, sha: str) -> None:
        self.attempted += 1
        want = self.expected.get(name)
        if want is None:
            self.failures.append("%s: no golden digest" % name)
        elif code != want[0]:
            self.failures.append("%s: exit %s, golden %s" % (name, code, want[0]))
        elif sha != want[1]:
            self.failures.append("%s: output digest differs from golden" % name)


def attempt(op, state: dict, tracer=None, op_id: int = -1):
    """Run one operation: (exit code, output, None) or, when it raises,
    (None, None, the error)."""
    try:
        if tracer is None:
            code, data = op.run(state)
        else:
            code, data = tracer.run_op(op_id, op.run, state)
    except Exception as exc:  # an op that raises is a counted failure
        return None, None, "%s: %s" % (type(exc).__name__, exc)
    return code, data, None


def pass_count(w, seconds: float) -> int:
    """Whole passes in a run of ``seconds``, at least one.  The count never
    depends on the host's speed, so every run of a workload takes the same
    samples, before and after a change, and the tail is always the same
    rank."""
    return max(1, round(w.passes * seconds / workloads.REF_SECONDS))


def run_loop(w, passes: int, checker: Checker, tracer=None, between=None) -> list[float]:
    """Closed loop: ``passes`` whole passes over the workload's operations.
    ``between(done)`` runs before each operation, outside the timing, with
    the number of operations done.  Returns every latency in run order; the
    index of a latency is its op id."""
    samples: list[float] = []
    state: dict = {}
    for _ in range(passes):
        for op in w.ops:
            if between is not None:
                between(len(samples))
            t0 = perf_counter()
            code, data, error = attempt(op, state, tracer, len(samples))
            samples.append(perf_counter() - t0)
            checker.check(op.name, code, data, error)
    return samples


def latency_metrics(samples: list[float]) -> dict:
    """Throughput over the run, and the geometric mean, median and tail of
    every sample.  The tail is the highest percentile with at least ten
    samples beyond it.

    The geometric mean is the gated typical latency, not the median: op
    latencies lie thinly around the median, so the median mostly records
    the host's speed during the few ops next to it, and it spread about
    twice as much as ops_per_s between runs of the same code.  The
    geometric mean weighs every sample alike on a log scale and spread about
    as much as ops_per_s.  The median stays in the run record."""
    ranked = sorted(samples)
    n = len(ranked)
    k = max(n - 11, 0)
    return {
        "ops_per_s": n / sum(ranked),
        "op_gmean_ms": statistics.geometric_mean(ranked) * 1e3,
        "op_p50_ms": statistics.median(ranked) * 1e3,
        "op_tail_ms": ranked[k] * 1e3,
        "tail_percentile": 100.0 * (k + 1) / n,
        "tail_samples": n,
    }


def source_lines() -> dict[str, int]:
    pkg = workloads.SRC / "pisotlab"
    out = {"src.lines": 0}
    for mod in SOURCE_MODULES:
        path = pkg / (mod + ".py")
        lines = len(path.read_bytes().splitlines()) if path.is_file() else 0
        out["src.%s.lines" % mod] = lines
    out["src.lines"] = sum(len(p.read_bytes().splitlines()) for p in pkg.glob("*.py"))
    return out


def environment() -> dict:
    import mpmath
    import sympy

    src = hashlib.sha256()
    for p in sorted((workloads.SRC / "pisotlab").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            src.update(p.relative_to(workloads.SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return {
        "commit": _git_commit(),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "src.lines": source_lines()["src.lines"],
    }


def _git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = workloads.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    ref_start = ref_loop_s()
    checker = Checker(workload)
    import pisotlab  # noqa: F401  (every submodule, before wrappers go in)
    import pisotlab.cli  # noqa: F401

    w = workloads.build(workload, seed)
    # the lazy imports and sympy's warm-up are paid here, untimed; the
    # probes measure them as cold_op_s
    checker.check(w.cold.name, *attempt(w.cold, {}))

    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        for name in tracer.unwrapped():
            checker.failures.append("unwrapped reference %s" % name)

    passes = pass_count(w, seconds)
    total = passes * len(w.ops)
    probes: list[dict] = []

    def probe_when_due(done: int) -> None:
        # fresh-interpreter probes spread evenly over the run
        while len(probes) < PROBES and done >= len(probes) * total / PROBES:
            p = probe(workload, seed)
            probes.append(p)
            if "error" in p:
                checker.check(p["op"], None, None, p["error"])
            else:
                checker.compare(p["op"], p["exit"], p["sha256"])

    samples = run_loop(w, passes, checker, tracer, None if traced else probe_when_due)
    if not traced:
        probe_when_due(total)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if workload == "random_certify":
        import oracle

        for name, (code, data) in checker.outputs.items():
            reason = oracle.check_certify(name.split()[-1], code, data)
            if reason:
                checker.failures.append("%s: oracle: %s" % (name, reason))

    lat = latency_metrics(samples)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "passes": passes,
        "ops_per_pass": len(w.ops),
        "op_p50_ms": lat["op_p50_ms"],
        "tail_percentile": lat["tail_percentile"],
        "tail_samples": lat["tail_samples"],
        "env": environment(),
        "failures": checker.failures[:20],
        "samples_s": {op.name: samples[i::len(w.ops)] for i, op in enumerate(w.ops)},
    }
    if traced:
        metrics = tracer.layer_metrics(passes)
        metrics.update(source_lines())
        metrics["trace.ops_per_s"] = lat["ops_per_s"]
        record["span_gap_s"], record["span_nesting_s"] = tracer.op_balance(samples)
        record["spans"] = len(tracer.spans)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / ("%s-seed%d.spans.jsonl" % (workload, seed)))
    else:
        metrics = {
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "cold_op_s": statistics.median(p["cold_op_s"] for p in probes),
            "ops_per_s": lat["ops_per_s"],
            "op_gmean_ms": lat["op_gmean_ms"],
            "op_tail_ms": lat["op_tail_ms"],
            "ok_frac": 1.0 - len(checker.failures) / checker.attempted,
            "rss_peak_mb": rss_mb,
        }
        record["probes"] = [[p["setup_s"], p["cold_op_s"]] for p in probes]
    record["host.ref_loop_s"] = [ref_start, ref_loop_s()]
    record["attempted"] = checker.attempted
    record["failed"] = len(checker.failures)
    record["metrics"] = metrics
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced, print a table")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if not workloads.use_source():
        print("error: no src/pisotlab tree next to perfbench/", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, args.seconds)

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    out_file.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for failure in record["failures"]:
        print("FAIL %s" % failure)
    print(json.dumps({k: record[k] for k in ("env", "host.ref_loop_s", "passes", "op_p50_ms",
                                             "tail_percentile", "tail_samples")}))
    units = dict(END_TO_END) if not args.trace else layer_units()
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in record["metrics"].items()},
    }))
    return 1 if record["failed"] else 0


def layer_units() -> dict[str, str]:
    import tracing

    units = {name: unit for name, unit, _ in tracing.per_layer_spec()}
    units.update({k: "lines" for k in source_lines()})
    units["trace.ops_per_s"] = "1/s"
    return units


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, then traced: one table of every end-to-end
    metric, the median op latency, the failure fraction and the tracing
    overhead."""
    script = workloads.ROOT / "perfbench" / "run.py"
    print("%-15s %-12s %14s  %s" % ("workload", "metric", "value", "unit"))
    status = 0
    for workload in workloads.WORKLOADS:
        results = []
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=workloads.ROOT,
            )
            try:
                lines = proc.stdout.splitlines()
                results.append((json.loads(lines[-2]), json.loads(lines[-1])))
            except (IndexError, ValueError):
                print(proc.stderr, file=sys.stderr)
                return proc.returncode or 1
        (info, plain), (_, traced) = results
        for name, unit in END_TO_END:
            print("%-15s %-12s %14.6g  %s" % (workload, name, plain["metrics"][name]["value"], unit))
        print("%-15s %-12s %14.6g  %s" % (workload, "op_p50_ms", info["op_p50_ms"], "ms"))
        fail_frac = plain["failed"] / plain["attempted"]
        print("%-15s %-12s %14.6g  %s" % (workload, "fail_frac", fail_frac, "ratio"))
        overhead = plain["metrics"]["ops_per_s"]["value"] / traced["metrics"]["trace.ops_per_s"]["value"]
        print("%-15s %-12s %14.6g  %s" % (workload, "trace_slowdown", overhead, "x"))
        if not (plain["correct"] and traced["correct"]):
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
