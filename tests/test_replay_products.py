"""Smoke tests of tools/replay_products.py on the oracle_rational and
fuzz_campaign workloads."""

import importlib.util
import json
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from skewprod import _kernels

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_replay_oracle_rational():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "replay_products.py"),
         "--workload", "oracle_rational", "--repeat", "1",
         "--ratios", "1/2,5"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.splitlines()[-1])
    # The traced benchmark counts the same 30 products.
    assert summary["products"] == 30
    assert summary["mismatches"] == 0
    assert set(summary["seconds_by_ratio"]) == {"1/2", "5"}
    assert all(seconds > 0 for seconds in summary["seconds_by_ratio"].values())
    assert all(summary["seconds"][path] > 0
               for path in ("dispatch", "dict", "kronecker"))


def test_replay_fuzz_campaign_products():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "replay_products.py"),
         "--workload", "fuzz_campaign", "--repeat", "1", "--ratios", "5"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.splitlines()[-1])
    # The traced benchmark counts the same 88 products.
    assert summary["products"] == 88
    assert summary["mismatches"] == 0
    assert set(summary["seconds_by_ratio"]) == {"5"}
    assert set(summary["seconds"]) == {"dispatch", "dict", "kronecker"}


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "replay_products", ROOT / "tools" / "replay_products.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_repeat_below_one_rejected(monkeypatch, capsys):
    tool = _load_tool()

    def no_workload(name):
        raise AssertionError("recorded a workload")

    monkeypatch.setattr(tool, "workload_operation", no_workload)
    with pytest.raises(SystemExit) as exit_info:
        tool.main(["--workload", "fuzz_campaign", "--repeat", "0"])
    assert exit_info.value.code == 2
    assert "--repeat must be at least 1" in capsys.readouterr().err


def test_replay_takes_rational_and_empty_operands():
    # Both paths take int operands only, so the recorded operands are
    # the numerators mul_terms hands on; a squared one stays one dict.
    tool = _load_tool()
    both = {(0, 1): 1, (1, 0): Fraction(1, 2)}
    numerators = {(0, 1): 2, (1, 0): 1}
    calls = tool.record(lambda: (_kernels.mul_terms(both, both),
                                 _kernels.mul_terms({}, both)))
    assert calls[0][0] is calls[0][1]
    assert calls == [(numerators, numerators), ({}, numerators)]
    rows = tool.replay(calls, 1)
    assert [row["cells"] for row in rows] == [9, 0]
    assert all(row["agree"] for row in rows)
    summary = tool.summarize(rows, [Fraction(5)])
    assert summary["products"] == 2 and summary["mismatches"] == 0
    assert set(summary["seconds_by_ratio"]) == {"5"}


def test_paths_take_turns_in_each_round(monkeypatch):
    tool = _load_tool()
    order = []

    def path(name, out):
        def fn(a, b):
            order.append(name)
            return out
        return fn

    monkeypatch.setattr(tool, "PATHS", {
        "dispatch": path("dispatch", {(0, 0): 1}),
        "dict": path("dict", {(0, 0): 1}),
        "kronecker": path("kronecker", None)})
    seconds, outputs = tool.best_of({}, {}, 3)
    assert order == ["dispatch", "dict", "kronecker"] * 3
    assert set(seconds) == {"dispatch", "dict", "kronecker"}
    assert outputs == {"dispatch": "[((0, 0), 1)]", "dict": "[((0, 0), 1)]",
                       "kronecker": None}
