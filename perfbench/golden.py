"""Golden outputs: the byte-identity gate for performance changes.

``golden/catalog_cli.jsonl`` holds the full stdout of every catalog CLI
command: a line ``{"argv": [...], "exit": N, "lines": K}`` followed by the
command's K output lines verbatim.  ``golden/digests.json`` holds the exit
code and sha256 of every other operation: the deep-iterate library calls
and ``certify --poly`` on every polynomial of the random_certify pool.  ``golden/random_pool.txt`` is that pool ranked by
certification time; it defines random_certify's inputs, not expected output.

    python3 perfbench/golden.py check   # re-run the catalog CLI commands and
                                        # name the first record that differs
    python3 perfbench/golden.py write   # store the current outputs as golden
    python3 perfbench/golden.py rank    # re-rank the random_certify pool
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import workloads

GOLDEN_DIR = workloads.ROOT / "perfbench" / "golden"
CATALOG_FILE = GOLDEN_DIR / "catalog_cli.jsonl"
DIGEST_FILE = GOLDEN_DIR / "digests.json"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read_catalog_golden() -> list[tuple[list[str], int, list[str]]]:
    """(argv, exit code, output lines) for every stored catalog command."""
    out = []
    with open(CATALOG_FILE, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    i = 0
    while i < len(lines):
        head = json.loads(lines[i])
        n = head["lines"]
        out.append((head["argv"], head["exit"], lines[i + 1 : i + 1 + n]))
        i += 1 + n
    return out


def expected(workload: str) -> dict[str, tuple[int, str]]:
    """Op name -> (exit code, sha256 of the output) for one workload."""
    if workload == "catalog_cli":
        return {
            " ".join(argv): (code, digest("".join(l + "\n" for l in lines).encode("utf-8")))
            for argv, code, lines in read_catalog_golden()
        }
    with open(DIGEST_FILE, encoding="utf-8") as fh:
        stored = json.load(fh)[workload]
    return {name: (code, sha) for name, (code, sha) in stored.items()}


def write() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    with open(CATALOG_FILE, "w", encoding="utf-8") as fh:
        for argv in workloads.catalog_cli_argvs(workloads.catalog_names()):
            code, out = workloads.cli_op(argv).run({})
            lines = out.decode("utf-8").splitlines()
            fh.write(json.dumps({"argv": argv, "exit": code, "lines": len(lines)}) + "\n")
            fh.writelines(l + "\n" for l in lines)
    stored = {}
    stored["deep_iterate"] = _digests(workloads.build("deep_iterate", 0).ops)
    pool = [workloads.cli_op(["certify", "--poly", p]) for p in workloads.pool_polys()]
    cold = workloads.cli_op(["certify", "--poly", workloads.RANDOM_COLD_POLY])
    stored["random_certify"] = _digests(pool + [cold])
    with open(DIGEST_FILE, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=0, sort_keys=True)
        fh.write("\n")


def _digests(ops) -> dict[str, list]:
    state: dict = {}
    out = {}
    for op in ops:
        code, data = op.run(state)
        out[op.name] = [code, digest(data)]
    return out


def rank_pool() -> None:
    """Store the random_certify pool ranked by certification time (fastest
    of two timings).  The ranking defines the workload's inputs: redo it
    only in a change that redefines the benchmark."""
    from time import perf_counter

    workloads.cli_op(["certify", "--poly", workloads.RANDOM_COLD_POLY]).run({})
    cost = {}
    for _ in range(2):
        for poly in workloads.pool_polys():
            op = workloads.cli_op(["certify", "--poly", poly])
            t0 = perf_counter()
            op.run({})
            cost[poly] = min(cost.get(poly, float("inf")), perf_counter() - t0)
    ranked = sorted(cost, key=cost.get)
    workloads.POOL_RANKED.write_text("".join(p + "\n" for p in ranked))


def check() -> int:
    """Re-run every catalog CLI command; 0 when all output is byte-identical."""
    for argv, code, lines in read_catalog_golden():
        got_code, out = workloads.cli_op(argv).run({})
        got = out.decode("utf-8").splitlines()
        name = " ".join(argv)
        if got_code != code:
            print("DIFF %s: exit %d, golden %d" % (name, got_code, code))
            return 1
        for i in range(max(len(got), len(lines))):
            want = lines[i] if i < len(lines) else "<no record>"
            have = got[i] if i < len(got) else "<no record>"
            if want != have:
                print("DIFF %s: record %d differs" % (name, i + 1))
                print("  golden: %s" % want[:400])
                print("  now:    %s" % have[:400])
                return 1
        print("same %s (%d records)" % (name, len(lines)))
    print("catalog CLI output is byte-identical to golden")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("action", choices=["check", "write", "rank"], nargs="?", default="check")
    args = parser.parse_args()
    if not workloads.use_source():
        print("error: no src/pisotlab tree next to perfbench/", file=sys.stderr)
        return 2
    if args.action == "write":
        write()
        return 0
    if args.action == "rank":
        rank_pool()
        return 0
    return check()


if __name__ == "__main__":
    sys.exit(main())
