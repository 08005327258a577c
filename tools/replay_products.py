"""Replay the products of one operation through each product-kernel path.

    python3 tools/replay_products.py --workload NAME [--repeat K] [--ratios R,...]

Run from the root of a source checkout; skewprod is imported from src/.
The script runs one operation with skewprod._kernels.mul_terms wrapped
and keeps the operands of every call; the operation is one operation
of a perfbench workload (perfbench/workloads.py).  It then times each
recorded product best-of-K through mul_terms as dispatched, through
mul_dict, and through mul_kronecker where that path takes it, the three
in turn in each of K rounds, and checks that the outputs agree by
repr(sorted(...)), coefficient types included.  Only the last output
of each path is kept, and only as that string, so no product is alive
while the next one is timed.

Products fall in four classes: "empty" (an operand with no terms),
"int" (both operands all-int), "fraction" (an all-Fraction operand) and
"mixed" (all others).  It prints the dispatch and dict-loop seconds of
each class.  For each ratio R (an int or a/b) it prints the total the
products of each class but "empty" would take if those whose smaller
operand has at least KRONECKER_MIN_TERMS terms and whose multiply-adds
reach R per cell of the bounding box went to Kronecker and all others
to the dict loop.  The kernel has one such bound,
KRONECKER_MIN_WORK_PER_CELL, for every coefficient type: it is chosen
where the totals of the classes are all least.  The last line is one
JSON object; the exit code is 1 when two paths disagree.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from skewprod import _kernels  # noqa: E402

DEFAULT_RATIOS = "1/2,1,2,3,4,5,6,8"


def exact(terms) -> str:
    """The terms with their coefficient types: 2 and Fraction(2) differ."""
    return repr(sorted(terms.items()))


def record(operation) -> list:
    """The (a, b) of every mul_terms call operation() makes, in order."""
    calls = []
    inner = _kernels.mul_terms

    def recording(a, b):
        calls.append((a, b))
        return inner(a, b)

    _kernels.mul_terms = recording
    try:
        operation()
    finally:
        _kernels.mul_terms = inner
    return calls


def workload_operation(name: str):
    import workloads

    workload = workloads.WORKLOADS[name]
    inputs = workload.build()
    return lambda: workload.run(inputs, [])


PATHS = {"dispatch": _kernels.mul_terms, "dict": _kernels.mul_dict,
         "kronecker": _kernels.mul_kronecker}


def best_of(a, b, repeat: int):
    """({path: least seconds over `repeat` rounds}, {path: the exact()
    string of its last output, or None where it returned None}).

    Each round calls every path once, in turn, so a change in the
    machine's load reaches all of them alike.  Each output is freed
    before the next call is timed.
    """
    best, text = {}, {}
    for last in [False] * (repeat - 1) + [True]:
        for path, fn in PATHS.items():
            start = time.perf_counter()
            out = fn(a, b)
            took = time.perf_counter() - start
            best[path] = min(took, best.get(path, took))
            if last:
                text[path] = None if out is None else exact(out)
            out = None
    return best, text


def kind(a, b) -> str:
    if not a or not b:
        return "empty"
    types_a, types_b = set(map(type, a.values())), set(map(type, b.values()))
    if types_a == types_b == {int}:
        return "int"
    if {Fraction} in (types_a, types_b) and types_a | types_b <= {int, Fraction}:
        return "fraction"
    return "mixed"


def replay(calls, repeat: int) -> list:
    """One row per product: its shape, class, the seconds of each path
    (None where the path did not run), and whether the paths agree."""
    rows = []
    for a, b in calls:
        row = {"kind": kind(a, b), "work": len(a) * len(b),
               "min_terms": min(len(a), len(b)), "cells": 0}
        if a and b:
            shape = _kernels._product_shape(_kernels._box(a), _kernels._box(b))
            row["cells"] = shape[0] * shape[1]
        seconds, outputs = best_of(a, b, repeat)
        row.update(seconds)
        if outputs["kronecker"] is None:
            row["kronecker"] = None
            del outputs["kronecker"]
        row["agree"] = len(set(outputs.values())) == 1
        rows.append(row)
    return rows


def total_at(rows, ratio: Fraction, which: str) -> float:
    """Seconds of the `which` products if those reaching `ratio`
    multiply-adds per cell went to Kronecker."""
    total = 0.0
    for row in rows:
        if row["kind"] != which:
            continue
        dense = (row["min_terms"] >= _kernels.KRONECKER_MIN_TERMS
                 and row["cells"] * ratio <= row["work"])
        use_kron = dense and row["kronecker"] is not None
        total += row["kronecker"] if use_kron else row["dict"]
    return total


def summarize(rows, ratios) -> dict:
    kinds = sorted({row["kind"] for row in rows})
    return {
        "products": len(rows),
        "mismatches": sum(1 for row in rows if not row["agree"]),
        "by_kind": {k: sum(1 for row in rows if row["kind"] == k)
                    for k in kinds},
        "seconds": {path: sum(row[path] or 0.0 for row in rows)
                    for path in ("dispatch", "dict", "kronecker")},
        "seconds_by_kind": {
            k: {path: sum(row[path] for row in rows if row["kind"] == k)
                for path in ("dispatch", "dict")}
            for k in kinds},
        "seconds_by_ratio": {
            k: {str(r): total_at(rows, r, k) for r in ratios}
            for k in kinds if k != "empty"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--ratios", default=DEFAULT_RATIOS)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    ratios = [Fraction(r) for r in args.ratios.split(",")]
    rows = replay(record(workload_operation(args.workload)), args.repeat)
    summary = summarize(rows, ratios)
    print(f"{summary['products']} products {summary['by_kind']}, "
          f"{summary['mismatches']} mismatches")
    for path, seconds in summary["seconds"].items():
        print(f"{path:>24} {seconds:10.4f} s")
    for k, paths in summary["seconds_by_kind"].items():
        for path, seconds in paths.items():
            print(f"{k + ' ' + path:>24} {seconds:10.4f} s")
    for k, totals in summary["seconds_by_ratio"].items():
        for r, seconds in totals.items():
            print(f"{k:>12} at {r:>9} per cell {seconds:10.4f} s")
    print(json.dumps(summary))
    return 0 if summary["mismatches"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
