"""Outside-in layer tracing: wrap pisotlab's public functions, record spans.

A span is recorded around every call of a wrapped function: name, start,
end, parent span and op id.  Spans stay in memory until the run ends.
Because ``from .x import f`` binds a second reference, each wrapper is
installed in every pisotlab namespace (module or class) that holds the
original; ``Tracer.unwrapped`` lists any reference that was missed.

Counters read from arguments and results run after the span has closed
(also when the call raised), so their cost lands in the caller's self time,
never in the traced function's.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from collections import defaultdict
from time import perf_counter

# (metric prefix, module, attribute path) of every traced function.
LAYER_FUNCS = (
    ("certify.certify_pisot", "pisotlab.certify", "certify_pisot"),
    ("certify.refine_root", "pisotlab.certify", "refine_root"),
    ("field.round_with_enclosure", "pisotlab.field", "NumberField.round_with_enclosure"),
    ("field.eval_interval", "pisotlab.field", "NumberField.eval_interval"),
    ("field.theta_enclosure", "pisotlab.field", "NumberField.theta_enclosure"),
    ("field.element_mul", "pisotlab.field", "NumberField.element_mul"),
    ("field.theta_power", "pisotlab.field", "NumberField.theta_power"),
    ("transform.build_table", "pisotlab.transform", "build_table"),
    ("transform.frac_magnitudes", "pisotlab.transform", "frac_magnitudes"),
    ("recurrence.detect_recurrence", "pisotlab.recurrence", "detect_recurrence"),
    ("recurrence.modular_extend", "pisotlab.recurrence", "modular_extend"),
    ("conjectures.run_suite", "pisotlab.conjectures", "run_suite"),
    ("conjectures.congruence_scan", "pisotlab.conjectures", "congruence_scan"),
    ("conjectures.constant_detect", "pisotlab.conjectures", "constant_detect"),
    ("conjectures.convergence_check", "pisotlab.conjectures", "convergence_check"),
    ("limits.solve_log_equation", "pisotlab.limits", "solve_log_equation"),
    ("limits.verify_identity", "pisotlab.limits", "verify_identity"),
    ("limits.ordering_check", "pisotlab.limits", "ordering_check"),
    ("cli.main", "pisotlab.cli", "main"),
    ("report.record", "pisotlab.report", "ReportWriter.record"),
    ("catalog.load_catalog", "pisotlab.catalog", "load_catalog"),
)

# Extra per-layer counts: (metric, unit, better).
EXTRA_METRICS = (
    ("certify.certify_pisot.not_pisot", "count", "higher"),
    ("certify.refine_root.halvings", "bits", "lower"),
    ("certify.refine_root.bits_max", "bits", "lower"),
    ("field.round_with_enclosure.passes", "count", "lower"),
    ("field.round_with_enclosure.first_pass_ratio", "ratio", "higher"),
    ("field.round_with_enclosure.bits_max", "bits", "lower"),
    ("field.theta_enclosure.refines", "count", "lower"),
    ("transform.build_table.cells", "count", "higher"),
    ("transform.build_table.failures", "count", "lower"),
    ("transform.frac_magnitudes.undecided_pairs", "count", "lower"),
    ("recurrence.detect_recurrence.found", "count", "higher"),
    ("recurrence.detect_recurrence.seq_len_sum", "count", "lower"),
    ("conjectures.congruence_scan.recurrence_extended", "count", "lower"),
    ("report.record.bytes", "bytes", "lower"),
)

OP_SPAN = "op"

def _log2(q) -> float:
    return math.log2(q.numerator) - math.log2(q.denominator)


# Counter hooks: called after every call, with result None when it raised.


def _after_certify(c, args, kwargs, result):
    if result is not None and not result.geometry_ok:
        c["certify.certify_pisot.not_pisot"] += 1


def _after_refine(c, args, kwargs, result):
    bits = args[2] if len(args) > 2 else kwargs["bits"]
    c["certify.refine_root.bits_max"] = max(c["certify.refine_root.bits_max"], bits)
    if result is not None and args[1].width and result.width:
        c["certify.refine_root.halvings"] += _log2(args[1].width) - _log2(result.width)


def _after_round(c, args, kwargs, result):
    if result is not None:
        c["field.round_with_enclosure.bits_max"] = max(
            c["field.round_with_enclosure.bits_max"], result[2]
        )


def _after_build(c, args, kwargs, result):
    if result is not None:
        c["transform.build_table.cells"] += sum(
            len(result.cells_at_level(k)) for k in range(result.k_max + 1)
        )
        c["transform.build_table.failures"] += len(result.failures)


def _after_magnitudes(c, args, kwargs, result):
    if result is not None:
        c["transform.frac_magnitudes.undecided_pairs"] += len(result.incomparable_pairs())


def _after_detect(c, args, kwargs, result):
    c["recurrence.detect_recurrence.seq_len_sum"] += len(args[0] if args else kwargs["seq"])
    if result is not None:
        c["recurrence.detect_recurrence.found"] += 1


def _after_scan(c, args, kwargs, result):
    if result is not None:
        c["conjectures.congruence_scan.recurrence_extended"] += sum(
            1 for m in result.method.values() if m == "recurrence_extended"
        )


_AFTER = {
    "certify.certify_pisot": _after_certify,
    "certify.refine_root": _after_refine,
    "field.round_with_enclosure": _after_round,
    "transform.build_table": _after_build,
    "transform.frac_magnitudes": _after_magnitudes,
    "recurrence.detect_recurrence": _after_detect,
    "conjectures.congruence_scan": _after_scan,
}


class Tracer:
    """Spans are lists ``[name, start, end, parent, op_id]``; ``parent`` is
    an index into ``spans`` (-1 for an op span)."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op_id = -1
        self._originals: dict[str, object] = {}

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for prefix, mod_name, path in LAYER_FUNCS:
            owner = sys.modules[mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, attr)
            self._originals[prefix] = original
            wrapper = self._wrap(prefix, original)
            for ns in _namespaces():
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)

    def unwrapped(self) -> list[str]:
        """Names in pisotlab modules or classes that still hold an original."""
        left = []
        for ns in _namespaces():
            for key, value in vars(ns).items():
                for prefix, original in self._originals.items():
                    if value is original:
                        left.append("%s.%s -> %s" % (getattr(ns, "__name__", ns), key, prefix))
        return left

    def _wrap(self, name: str, fn):
        tracer = self
        after = _AFTER.get(name)
        is_record = name == "report.record"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer._op_id]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            if is_record:
                # bytes written by this record: the stream position around it
                pos = args[0]._stream.tell()
            result = None
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                if after is not None:
                    after(tracer.counts, args, kwargs, result)
                if is_record:
                    tracer.counts["report.record.bytes"] += args[0]._stream.tell() - pos
            return result

        return wrapper

    # -- ops -----------------------------------------------------------------

    def run_op(self, op_id: int, fn, *args):
        """Run one operation inside an op span (the root of its span tree)."""
        self._op_id = op_id
        span = [OP_SPAN, 0.0, 0.0, -1, op_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    # -- aggregation ---------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass calls, busy time, self time and extra counts by layer.

        Busy time counts only the outermost span of a recursive chain of
        the same function; self time is a span's duration minus the
        durations of its direct children.
        """
        spans = self.spans
        child_time = _child_time(spans)
        evals_under = defaultdict(int)
        out: dict[str, float] = {}
        for prefix, _, _ in LAYER_FUNCS:
            out[prefix + ".calls"] = 0
            out[prefix + ".busy_s"] = 0.0
            out[prefix + ".self_s"] = 0.0
        refines = 0
        for name, _, _, parent, _ in spans:
            if parent >= 0:
                pname = spans[parent][0]
                if name == "field.eval_interval" and pname == "field.round_with_enclosure":
                    evals_under[parent] += 1
                elif name == "certify.refine_root" and pname == "field.theta_enclosure":
                    refines += 1
        for i, (name, start, end, parent, _) in enumerate(spans):
            if name == OP_SPAN:
                continue
            out[name + ".calls"] += 1
            out[name + ".self_s"] += end - start - child_time[i]
            if not _inside_same(spans, parent, name):
                out[name + ".busy_s"] += end - start
        for key in out:
            out[key] /= passes
        for metric, _, _ in EXTRA_METRICS:
            value = self.counts.get(metric, 0)
            out[metric] = value if metric.endswith("_max") else value / passes
        out["field.round_with_enclosure.passes"] = sum(evals_under.values()) / passes
        out["field.round_with_enclosure.first_pass_ratio"] = (
            sum(1 for v in evals_under.values() if v == 1) / len(evals_under)
            if evals_under else 0.0
        )
        out["field.theta_enclosure.refines"] = refines / passes
        return out

    def op_balance(self, latencies: list[float]) -> tuple[float, float]:
        """Two checks of the span structure against the run loop.

        The gap: the largest |latency the loop measured for an op - sum of
        the self times in the op's span tree|.  The self times sum to the
        op span by construction, so this checks that the op span covers
        the op as the loop, on its own clock reading, timed it.  The
        nesting: the farthest any span reaches outside its parent; 0 for
        well-formed spans."""
        spans = self.spans
        child_time = _child_time(spans)
        self_by_op = defaultdict(float)
        nesting = 0.0
        for i, (name, start, end, parent, op_id) in enumerate(spans):
            self_by_op[op_id] += end - start - child_time[i]
            if name != OP_SPAN:
                pstart, pend = spans[parent][1], spans[parent][2]
                nesting = max(nesting, pstart - start, end - pend)
        gap = max(abs(lat - self_by_op[i]) for i, lat in enumerate(latencies))
        return gap, nesting

    def dump(self, path) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write('["%s",%.9f,%.9f,%d,%d]\n' % (name, start, end, parent, op_id))


def _child_time(spans) -> list[float]:
    """Summed duration of each span's direct children."""
    out = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] += end - start
    return out


def _inside_same(spans, parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _namespaces():
    """Every pisotlab module and every class defined in one."""
    mods = [m for k, m in sorted(sys.modules.items()) if k == "pisotlab" or k.startswith("pisotlab.")]
    classes = {
        id(v): v
        for m in mods
        for v in vars(m).values()
        if inspect.isclass(v) and (v.__module__ or "").startswith("pisotlab")
    }
    return mods + list(classes.values())


def per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric the traced run reports, as (name, unit, better),
    apart from the source line counts and the traced throughput."""
    spec = []
    for prefix, _, _ in LAYER_FUNCS:
        spec += [
            (prefix + ".calls", "count", "lower"),
            (prefix + ".busy_s", "s", "lower"),
            (prefix + ".self_s", "s", "lower"),
        ]
    return spec + list(EXTRA_METRICS)
