"""Spans and counters around the calls into each skewprod module.

Nothing under src/ knows about this file.  A Tracer replaces a public
function by a recording wrapper in every module that looks the name
up, so a call is seen where its caller makes it: `verify` binds
`weight` and `newton_polygon` at import, `germ` binds `poly_mul`, and
`poly` reaches the kernels through its `kernels` attribute.
`skewprod/__init__.py` rebinds `skewprod.fuzz`, `skewprod.predict` and
`skewprod.classify` to functions, so modules are reached through
importlib.

A span is (name, start, end, parent index, operation id).  Spans stay in
memory until the run ends.  A span's self time is its duration minus
the durations of its direct children; the work a wrapper does to count
things runs inside a child span named "trace", so it is charged to no
layer.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter

import workloads
from workloads import clock, module


def _coeff_bits(c) -> int:
    if type(c) is int:
        return c.bit_length()
    return max(c.numerator.bit_length(), c.denominator.bit_length())


def _count_mul(counts, args, out):
    a, b = args[0], args[1]
    counts["kernels.mul_work"] += len(a) * len(b)
    counts["kernels.mul_terms_out"] += len(out)
    if out:
        bits = max(map(_coeff_bits, out.values()))
        if bits > counts["kernels.max_coeff_bits"]:
            counts["kernels.max_coeff_bits"] = bits


def _count_polygon(counts, args, out):
    counts["newton.polygon_points"] += len(args[0])


def _count_weight(counts, args, out):
    counts["newton.weight_points"] += len(args[0])


def _count_verify(counts, args, report):
    counts["verify.checks"] += sum(len(v.checks) for v in report.variants)
    counts["verify.failed_checks"] += report.failures
    counts["verify.findings"] += len(report.findings)
    if report.oracle:
        counts["germ.q_terms"] += len(report.oracle[-1].germ.q)


def _count_fuzz(counts, args, summary):
    counts["fuzz.germs_run"] += summary.germs_run
    counts["fuzz.skipped"] += summary.skipped
    counts["fuzz.truncated"] += summary.truncated


def _count_json(counts, args, text):
    counts["jsonio.bytes"] += len(text.encode())


def targets():
    """(object, attribute, span name, counting hook) for every wrapped call.

    One row per place a caller looks a name up.  `render` is the
    benchmark's own call into jsonio plus json.dumps, as the CLI does it.
    """
    poly, germ = module("poly"), module("germ")
    verify, fuzz = module("verify"), module("fuzz")
    rows = [
        (poly.kernels, "mul_terms", "kernels.mul", _count_mul),
        (poly.kernels, "add_terms", "kernels.add", None),
        (poly, "poly_mul", "poly.mul", None),
        (poly, "poly_pow", "poly.pow", None),
        (germ, "poly_mul", "poly.mul", None),
        (germ, "poly_pow", "poly.pow", None),
        (germ, "compose_germ", "germ.compose", None),
    ]
    rows += [(module(m), "newton_polygon", "newton.polygon", _count_polygon)
             for m in ("verify", "classify", "fuzz", "predict")]
    rows += [
        (verify, "weight", "newton.weight", _count_weight),
        (verify, "classify", "classify", None),
        (verify, "case_variants", "classify", None),
        (fuzz, "classify", "classify", None),
        (verify, "predict", "predict", None),
        (verify, "critical_coeff_sequence", "predict", None),
        (verify, "asymptotic", "predict", None),
        (verify, "verify_germ", "verify", _count_verify),
        (fuzz, "verify_germ", "verify", _count_verify),
        (fuzz, "fuzz", "fuzz", _count_fuzz),
        (workloads, "render", "jsonio", _count_json),
    ]
    return rows


class Tracer:
    """Records spans and per-operation counts while installed."""

    def __init__(self, rows):
        self.rows = rows
        self.spans = []
        self.counts = []  # one Counter per operation
        self._stack = [-1]
        self._saved = []

    # -- installing ----------------------------------------------------

    def _wrap(self, fn, name, hook):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1]
            op = len(self.counts) - 1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, op)
            if hook is not None:
                start = clock()
                hook(self.counts[op], args, result)
                spans.append(("trace", start, clock(), parent, op))
            return result

        return traced

    def __enter__(self):
        for obj, attr, name, hook in self.rows:
            fn = getattr(obj, attr)
            self._saved.append((obj, attr, fn))
            setattr(obj, attr, self._wrap(fn, name, hook))
        return self

    def __exit__(self, *exc):
        while self._saved:
            obj, attr, fn = self._saved.pop()
            setattr(obj, attr, fn)

    def operation(self, fn, *args):
        """Run fn(*args) as one operation under a root span named "op"."""
        self.counts.append(Counter())
        op = len(self.counts) - 1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = clock()
        try:
            return fn(*args)
        finally:
            end = clock()
            self._stack.pop()
            self.spans[idx] = ("op", start, end, -1, op)

    # -- reading -------------------------------------------------------

    def layer_times(self, op: int) -> dict:
        """Per span name: calls, total (outermost spans) and self seconds."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, o in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, parent, o) in enumerate(spans):
            if o != op:
                continue
            row = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
            row["calls"] += name != "trace"
            row["self"] += end - start - child_time[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                row["total"] += end - start
        return out

    def repeat_problems(self) -> list:
        """Counts must repeat exactly from one traced operation to the next."""
        def counts(op):
            calls = {name: row["calls"]
                     for name, row in self.layer_times(op).items()}
            return dict(self.counts[op]), calls

        first = counts(0)
        return [f"traced operation {op} counted differently from operation 0"
                for op in range(1, len(self.counts)) if counts(op) != first]

    def write(self, path: str, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def unit(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("_pct"):
        return "%"
    if metric.endswith("_bits"):
        return "bits"
    if metric.endswith("_yield"):
        return "ratio"
    return "count"


def _layer(times: dict, name: str, key: str) -> float:
    return times.get(name, {}).get(key, 0)


def layer_metrics(tracer: Tracer, untraced_wall: list) -> dict:
    """The per-layer metrics of one operation: counts from the first
    traced operation, seconds as the median over traced operations."""
    ops = range(len(tracer.counts))
    per_op = [tracer.layer_times(op) for op in ops]

    def seconds(name, key="total"):
        return statistics.median(_layer(t, name, key) for t in per_op)

    t0, c = per_op[0], tracer.counts[0]
    work = c["kernels.mul_work"]
    traced_wall = seconds("op")
    return {
        "kernels.mul_calls": _layer(t0, "kernels.mul", "calls"),
        "kernels.mul_work": work,
        "kernels.mul_terms_out": c["kernels.mul_terms_out"],
        "kernels.mul_yield": c["kernels.mul_terms_out"] / work if work else 0.0,
        "kernels.mul_s": seconds("kernels.mul"),
        "kernels.add_s": seconds("kernels.add"),
        "kernels.max_coeff_bits": c["kernels.max_coeff_bits"],
        "poly.mul_self_s": seconds("poly.mul", "self"),
        "poly.pow_calls": _layer(t0, "poly.pow", "calls"),
        "poly.pow_s": seconds("poly.pow"),
        "germ.compose_calls": _layer(t0, "germ.compose", "calls"),
        "germ.compose_s": seconds("germ.compose"),
        "germ.compose_self_s": seconds("germ.compose", "self"),
        "germ.q_terms": c["germ.q_terms"],
        "newton.polygon_calls": _layer(t0, "newton.polygon", "calls"),
        "newton.polygon_s": seconds("newton.polygon"),
        "newton.polygon_points": c["newton.polygon_points"],
        "newton.weight_calls": _layer(t0, "newton.weight", "calls"),
        "newton.weight_s": seconds("newton.weight"),
        "newton.weight_points": c["newton.weight_points"],
        "classify.calls": _layer(t0, "classify", "calls"),
        "classify.s": seconds("classify"),
        "predict.calls": _layer(t0, "predict", "calls"),
        "predict.s": seconds("predict"),
        "verify.self_s": seconds("verify", "self"),
        "verify.checks": c["verify.checks"],
        "verify.failed_checks": c["verify.failed_checks"],
        "verify.findings": c["verify.findings"],
        "fuzz.germs_run": c["fuzz.germs_run"],
        "fuzz.skipped": c["fuzz.skipped"],
        "fuzz.truncated": c["fuzz.truncated"],
        "fuzz.self_s": seconds("fuzz", "self"),
        "jsonio.s": seconds("jsonio"),
        "jsonio.bytes": c["jsonio.bytes"],
        "trace.wall_s": traced_wall,
        "trace.overhead_pct":
            (traced_wall / statistics.median(untraced_wall) - 1) * 100,
    }
