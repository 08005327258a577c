"""Tests of the benchmark itself: python3 -m pytest perfbench

They run small operations through the same wrappers and gates the
benchmark uses, so they take seconds, not the minutes of a full run.
"""

import dataclasses
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import module  # noqa: E402

COUNTS = ("kernels.mul_work", "germ.q_terms", "verify.checks",
          "fuzz.germs_run", "kernels.mul_calls", "newton.weight_points",
          "jsonio.bytes")


def small_oracle():
    oracle = dataclasses.replace(workloads.WORKLOADS["oracle_rational"],
                                 n_max=3)
    return lambda: oracle.run(oracle.build(), [])


def small_campaign():
    fuzz = module("fuzz")
    cfg = fuzz.FuzzConfig(seed=7, germ_count=12, n_max=2)

    def op():
        summary = fuzz.fuzz(cfg)
        return summary, workloads.render(module("jsonio").fuzz_json, summary)
    return op


def traced(op, times=1):
    tracer = tracing.Tracer(tracing.targets())
    with tracer:
        for _ in range(times):
            tracer.operation(op)
    return tracer


def test_counts_repeat_across_traced_runs():
    for make in (small_oracle, small_campaign):
        first = tracing.layer_metrics(traced(make()), [1.0])
        second = tracing.layer_metrics(traced(make()), [1.0])
        assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
        assert first["verify.checks"] > 0 and first["kernels.mul_work"] > 0
    assert first["fuzz.germs_run"] > 0


def test_counts_repeat_within_one_run():
    assert traced(small_campaign(), times=2).repeat_problems() == []


def test_self_times_add_up_to_operation():
    tracer = traced(small_campaign())
    times = tracer.layer_times(0)
    op_start, op_end = tracer.spans[0][1:3]
    assert tracer.spans[0][0] == "op"
    total = sum(row["self"] for row in times.values())
    assert abs(total - (op_end - op_start)) < 1e-6 * (op_end - op_start)
    assert set(times) >= {"op", "fuzz", "verify", "germ.compose", "poly.mul",
                          "kernels.mul", "newton.weight", "classify",
                          "predict", "jsonio", "trace"}


def test_tracer_restores_every_wrapped_name():
    rows = tracing.targets()
    before = [getattr(obj, attr) for obj, attr, _, _ in rows]
    traced(small_oracle())
    assert [getattr(obj, attr) for obj, attr, _, _ in rows] == before


def test_gate_accepts_recorded_output_and_rejects_changes():
    oracle = workloads.WORKLOADS["oracle_rational"]
    report, text = oracle.run(oracle.build(), [])
    assert oracle.check(report, text) == []
    assert oracle.check(report, text.replace("3/4", "3/5"))
    short = dataclasses.replace(oracle, n_max=3)
    assert short.check(*short.run(short.build(), []))


def test_campaign_gate_wants_the_recorded_summary():
    campaign = workloads.WORKLOADS["fuzz_campaign"]
    summary, text = small_campaign()()
    assert summary.failures == 0 and summary.coverage_ok
    assert campaign.check(summary, text)
    assert campaign.seeded_gates(workloads.DEFAULT_SEED) == []


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle_dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_metrics_match_benchmark_json():
    import json

    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    printed = tracing.layer_metrics(traced(small_oracle()), [1.0])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: tracing.unit(name) for name in printed}
