"""Smoke tests of tools/replay_products.py on the oracle_rational and
fuzz_campaign workloads."""

import importlib.util
import json
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_replay_oracle_rational():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "replay_products.py"),
         "--workload", "oracle_rational", "--repeat", "1",
         "--ratios", "1/2,5"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.splitlines()[-1])
    # The traced benchmark counts the same 30 products; substitute
    # clears the germ's denominators first, so all of them are int.
    assert summary["products"] == 30
    assert summary["mismatches"] == 0
    assert summary["by_kind"] == {"int": 30}
    assert set(summary["seconds_by_ratio"]) == {"int"}
    assert all(set(totals) == {"1/2", "5"}
               for totals in summary["seconds_by_ratio"].values())
    assert all(summary["seconds"][path] > 0
               for path in ("dispatch", "dict", "kronecker"))
    assert set(summary["seconds_by_kind"]) == {"int"}
    assert all(seconds > 0 for paths in summary["seconds_by_kind"].values()
               for seconds in paths.values())


def test_replay_fuzz_campaign_products():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "replay_products.py"),
         "--workload", "fuzz_campaign", "--repeat", "1", "--ratios", "5"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.splitlines()[-1])
    # The traced benchmark counts the same 88 products, each of two int
    # operands with terms.
    assert summary["products"] == 88
    assert summary["by_kind"] == {"int": 88}
    assert summary["mismatches"] == 0
    assert set(summary["seconds_by_ratio"]) == {"int"}
    assert set(summary["seconds_by_kind"]) == {"int"}
    assert set(summary["seconds_by_kind"]["int"]) == {"dispatch", "dict"}


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


def test_kind_labels_an_empty_operand():
    tool = _load_tool()
    half = Fraction(1, 2)
    both = {(0, 1): 1, (1, 0): half}
    assert tool.kind({}, {(1, 0): half}) == tool.kind(both, {}) == "empty"
    assert tool.kind({(0, 1): 1}, {(1, 0): 2}) == "int"
    assert tool.kind({(0, 1): 1}, {(1, 0): half}) == "fraction"
    assert tool.kind(both, both) == "mixed"


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
