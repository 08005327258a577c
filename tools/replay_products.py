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

Both paths take int operands only, so each recorded operand is kept as
its integer numerators (_kernels._clear_denominators), as mul_terms
hands them on; every benchmark workload makes int products only, since
germ.substitute clears the denominators of a rational germ's iterates
once per call.  It prints the seconds of each path.  For each ratio R
(an int or a/b) it prints the total the products would take if those
whose smaller operand has at least KRONECKER_MIN_WORK_PER_CELL terms
(the floor mul_terms tests) and whose multiply-adds reach R per cell of
the bounding box went to Kronecker and all others to the dict loop; the
kernel's one such bound, KRONECKER_MIN_WORK_PER_CELL, is chosen where
that total is least.  The
last line is one JSON object; the exit code is 1 when two paths
disagree.
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
    """The (a, b) of every mul_terms call operation() makes, in order,
    each as its integer numerators; a squared operand stays one dict."""
    calls = []
    inner = _kernels.mul_terms
    numerators = _kernels._clear_denominators

    def recording(a, b):
        num_a = numerators(a)[1]
        calls.append((num_a, num_a if b is a else numerators(b)[1]))
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


def replay(calls, repeat: int) -> list:
    """One row per product: its shape, the seconds of each path (None
    where the path did not run), and whether the paths agree."""
    rows = []
    for a, b in calls:
        row = {"work": len(a) * len(b),
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


def total_at(rows, ratio: Fraction) -> float:
    """Seconds of the products if those reaching `ratio` multiply-adds
    per cell went to Kronecker."""
    total = 0.0
    for row in rows:
        dense = (row["min_terms"] >= _kernels.KRONECKER_MIN_WORK_PER_CELL
                 and row["cells"] * ratio <= row["work"])
        use_kron = dense and row["kronecker"] is not None
        total += row["kronecker"] if use_kron else row["dict"]
    return total


def summarize(rows, ratios) -> dict:
    return {
        "products": len(rows),
        "mismatches": sum(1 for row in rows if not row["agree"]),
        "seconds": {path: sum(row[path] or 0.0 for row in rows)
                    for path in ("dispatch", "dict", "kronecker")},
        "seconds_by_ratio": {str(r): total_at(rows, r) for r in ratios},
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
    print(f"{summary['products']} products, "
          f"{summary['mismatches']} mismatches")
    for path, seconds in summary["seconds"].items():
        print(f"{path:>24} {seconds:10.4f} s")
    for r, seconds in summary["seconds_by_ratio"].items():
        print(f"{'at ' + r + ' per cell':>24} {seconds:10.4f} s")
    print(json.dumps(summary))
    return 0 if summary["mismatches"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
