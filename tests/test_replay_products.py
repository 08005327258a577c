"""Smoke tests of tools/replay_products.py on the oracle_rational and
fuzz_campaign workloads."""

import json
import pathlib
import subprocess
import sys

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
    assert summary["regions"] == summary["region_slower"] == 0
    assert summary["by_kind"] == {"fraction": 18, "mixed": 12}
    assert set(summary["seconds_by_ratio"]) == {"fraction"}
    assert set(summary["seconds_by_ratio"]["fraction"]) == {"1/2", "5"}
    assert all(summary["seconds"][path] > 0
               for path in ("dispatch", "dict", "kronecker"))


def test_replay_fuzz_campaign_regions():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "replay_products.py"),
         "--workload", "fuzz_campaign", "--repeat", "1", "--ratios", "5"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.splitlines()[-1])
    # The traced benchmark counts the same 2,382 products; the truncated
    # last steps make 785 of them with a region.
    assert summary["products"] == 2382
    assert summary["regions"] == 785
    assert summary["mismatches"] == 0
    assert 0 <= summary["region_slower"] <= summary["regions"]
    assert all(summary["seconds_region"][path] > 0
               for path in ("pruned", "full"))
