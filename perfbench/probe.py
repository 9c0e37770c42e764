"""One fresh-interpreter sample of set-up time and cold-operation latency.

Prints ``ready`` once ``pisotlab.cli`` is imported and the bundled catalog
is loaded (the parent times the interval from process start to that line),
then runs the workload's cold operation and prints one JSON line with its
latency and its exit code and output digest, or the error it raised.

    python3 perfbench/probe.py WORKLOAD SEED
"""

import sys

import workloads

workloads.use_source()

import pisotlab.cli  # noqa: E402,F401
from pisotlab.catalog import load_catalog  # noqa: E402

load_catalog()
print("ready", flush=True)

import hashlib  # noqa: E402
import json  # noqa: E402
from time import perf_counter  # noqa: E402

op = workloads.build(sys.argv[1], int(sys.argv[2])).cold
result = {"op": op.name}
t0 = perf_counter()
try:
    code, out = op.run({})
except Exception as exc:  # reported to the parent as a failed operation
    result["error"] = "%s: %s" % (type(exc).__name__, exc)
else:
    result.update(exit=code, sha256=hashlib.sha256(out).hexdigest())
result["cold_op_s"] = perf_counter() - t0
print(json.dumps(result))
