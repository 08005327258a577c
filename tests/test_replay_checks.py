"""Smoke test of tools/replay_checks.py on a small campaign."""

import hashlib
import json
import pathlib
import subprocess
import sys
from dataclasses import replace

from skewprod.fuzz import _projected_degree, campaign_limits, generate_germs
from skewprod.jsonio import verification_json
from skewprod.verify import verify_germ
from conftest import CRITERION_5

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_replay_small_campaign():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "replay_checks.py"),
         "--count", "12", "--repeat", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.splitlines()[-1])
    assert summary["repeat"] == 2 and len(summary["passes_s"]) == 2
    assert summary["best_s"] == min(summary["passes_s"]) > 0
    # The replayed reports are the ones a fresh verify_germ gives: the
    # 10 of the first 12 campaign germs under the degree cap (they reach
    # every coverage target, so no retry follows).
    cfg = replace(CRITERION_5, germ_count=12)
    germs = [g for g in generate_germs(cfg)
             if _projected_degree(g, cfg.n_max) <= cfg.degree_cap]
    assert summary["germs"] == len(germs) == 10
    h = hashlib.sha256()
    for g in germs:
        report = verify_germ(g, cfg.n_max, limits=campaign_limits(cfg))
        h.update(json.dumps(verification_json(report), sort_keys=True).encode())
    assert summary["digest"] == h.hexdigest()[:16]


def test_replay_phases():
    """--phases times the recorded oracle and the check side's five
    phases apart, and prints the best and the median of each over the
    passes."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "replay_checks.py"),
         "--count", "5", "--repeat", "3", "--phases"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.splitlines()[-1])
    phases, medians = summary["phases_s"], summary["phases_median_s"]
    assert list(phases) == list(medians) == [
        "oracle_records", "case_variants", "weight_samples", "predictions",
        "per_n_checks", "no_iterate_checks"]
    assert all(0 < phases[phase] <= medians[phase] for phase in phases)
    assert isinstance(summary["digest"], str)
    for phase in phases:
        assert any(line.split()[:1] == [phase] and "median" in line
                   for line in done.stdout.splitlines())
