"""Replay the check side of one fuzz_campaign operation on recorded oracle data.

    python3 tools/replay_checks.py [--seed N] [--count N] [--repeat K] [--phases]

Run from the root of a source checkout; skewprod is imported from src/.
The script runs one operation of perfbench's fuzz_campaign workload
(perfbench/workloads.py; --count draws fewer germs from the same
stream) with skewprod.verify.oracle_records wrapped, and keeps the
arguments of every verify_germ call and the result of its
oracle_records.  It then runs each recorded verify_germ call K times
with oracle_records replaced by its recorded result, so only the checks
that need no new iterate are timed, and prints the best of the K
passes.  Each pass, timed whole or by phase, starts with gc.collect().
With --phases it runs K more passes with these of verify's
functions timed apart, and prints the best and the median of the K for
each phase:

    oracle_records     verify.oracle_records, the recorded calls run
                       again (the other phases read their results)
    case_variants      verify.case_variants, the readings of each germ
    weight_samples     verify.weight_samples
    predictions        verify.predictions
    per_n_checks       verify._per_n_checks, the loop over n
    no_iterate_checks  verify._r_map_checks, _slope_lemma_check and
                       _interval_system_checks, which need no iterate

The digest covers every report's verification_json, hashed in order as
tests/test_fuzz.py's test_campaign_sample_verification_digest does, so
at the default seed and count it reads that test's digest.  fuzz
verifies with full_iterates=False, so each recorded Q^n from n = 2 on
is germ.vertex_step's wherever that is certified, and holds only the
terms at its polygon's vertices; the checks read the same values off it
as off the full Q^n, and the digest is the same.
Copy the script into another checkout to pair its check side against
this one.
The last line is one JSON object.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

fuzz = workloads.module("fuzz")
jsonio = workloads.module("jsonio")
verify = workloads.module("verify")


def record(cfg) -> list:
    """(args, kwargs, oracle_records result, oracle_records (args,
    kwargs)) of every verify_germ call the campaign makes, in order."""
    calls = []
    inner_verify, inner_records = fuzz.verify_germ, verify.oracle_records

    def recording_verify(*args, **kwargs):
        calls.append([args, kwargs, None, None])
        return inner_verify(*args, **kwargs)

    def recording_records(*args, **kwargs):
        result = inner_records(*args, **kwargs)
        calls[-1][2:] = result, (args, kwargs)
        return result

    fuzz.verify_germ = recording_verify
    verify.oracle_records = recording_records
    try:
        fuzz.fuzz(cfg)
    finally:
        fuzz.verify_germ = inner_verify
        verify.oracle_records = inner_records
    return calls


def replay(calls) -> tuple:
    """(seconds, reports) of one pass of verify_germ over the calls,
    each reading its recorded oracle records.  The pass starts from a
    full collection, so it is not charged for garbage the passes before
    it left."""
    inner = verify.oracle_records
    reports = []
    seconds = 0.0
    gc.collect()
    try:
        for args, kwargs, result, _ in calls:
            verify.oracle_records = lambda *a, _r=result, **k: _r
            start = time.perf_counter()
            report = verify.verify_germ(*args, **kwargs)
            seconds += time.perf_counter() - start
            reports.append(report)
    finally:
        verify.oracle_records = inner
    return seconds, reports


# Each phase and the functions of skewprod.verify whose time it sums;
# oracle_pass times oracle_records, which replay does not run.
PHASES = {
    "oracle_records": (),
    "case_variants": ("case_variants",),
    "weight_samples": ("weight_samples",),
    "predictions": ("predictions",),
    "per_n_checks": ("_per_n_checks",),
    "no_iterate_checks": ("_r_map_checks", "_slope_lemma_check",
                          "_interval_system_checks"),
}


def oracle_pass(calls) -> float:
    """The seconds of one pass of the recorded oracle_records calls, run
    again from a full collection."""
    seconds = 0.0
    gc.collect()
    for *_, (args, kwargs) in calls:
        start = time.perf_counter()
        verify.oracle_records(*args, **kwargs)
        seconds += time.perf_counter() - start
    return seconds


def phase_pass(calls) -> dict:
    """The seconds of each phase over one pass of replay(calls), and of
    oracle_pass(calls) for oracle_records."""
    seconds = dict.fromkeys(PHASES, 0.0)
    seconds["oracle_records"] = oracle_pass(calls)

    def timed(phase, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[phase] += time.perf_counter() - start
        return wrapper

    saved = []
    try:
        for phase, names in PHASES.items():
            for name in names:
                fn = getattr(verify, name)
                saved.append((name, fn))
                setattr(verify, name, timed(phase, fn))
        replay(calls)
    finally:
        for name, fn in saved:
            setattr(verify, name, fn)
    return seconds


def reports_digest(reports) -> str:
    h = hashlib.sha256()
    for report in reports:
        h.update(json.dumps(jsonio.verification_json(report),
                            sort_keys=True).encode())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--count", type=int, default=None,
                        help="germs to draw (default: the workload's)")
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--phases", action="store_true",
                        help="also time the phases of the check side")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    cfg = workloads.campaign_config(args.seed)
    if args.count is not None:
        cfg = dataclasses.replace(cfg, germ_count=args.count)
    calls = record(cfg)
    passes = []
    digests = set()
    for _ in range(args.repeat):
        seconds, reports = replay(calls)
        passes.append(seconds)
        digests.add(reports_digest(reports))
    summary = {
        "germs": len(calls),
        "repeat": args.repeat,
        "best_s": min(passes),
        "passes_s": passes,
        "digest": digests.pop() if len(digests) == 1 else sorted(digests),
    }
    print(f"{summary['germs']} germs, check side best of {args.repeat}: "
          f"{summary['best_s']:.4f} s, digest {summary['digest']}")
    if args.phases:
        timed = [phase_pass(calls) for _ in range(args.repeat)]
        summary["phases_s"] = {phase: min(t[phase] for t in timed)
                               for phase in PHASES}
        summary["phases_median_s"] = {
            phase: statistics.median(t[phase] for t in timed)
            for phase in PHASES}
        for phase in PHASES:
            print(f"  {phase:18} best of {args.repeat}: "
                  f"{summary['phases_s'][phase]:.4f} s, median "
                  f"{summary['phases_median_s'][phase]:.4f} s")
    print(json.dumps(summary))
    return 0 if isinstance(summary["digest"], str) else 1


if __name__ == "__main__":
    sys.exit(main())
