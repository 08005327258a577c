import hashlib
import importlib
import json
from dataclasses import replace

import pytest

from skewprod import FuzzConfig, fuzz
from skewprod.fuzz import _projected_degree, campaign_limits, generate_germs
from skewprod.germ import format_germ_file
from skewprod.jsonio import verification_json
from skewprod.newton import composed_polygon
from skewprod.verify import CheckResult, verify_germ
from conftest import CRITERION_5


def test_determinism_bit_identical():
    cfg = FuzzConfig(seed=424242, germ_count=40, n_max=2)
    a = fuzz(cfg).as_dict()
    b = fuzz(cfg).as_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_germ_stream_deterministic():
    cfg = FuzzConfig(seed=99, germ_count=25)
    first = [(dict(g.p.items()), dict(g.q.items()))
             for g in generate_germs(cfg)]
    second = [(dict(g.p.items()), dict(g.q.items()))
              for g in generate_germs(cfg)]
    assert first == second


def test_empty_campaign():
    summary = fuzz(FuzzConfig(seed=1, germ_count=0, max_extra_draws=0))
    d = summary.as_dict()
    assert d["germs_run"] == 0 and d["failures"] == 0
    assert not d["coverage_ok"]


def test_one_iterate_draws_no_vanishing_retries():
    """A vanishing event first shows in Q^2, so with n_max = 1 the
    retries stop once the case kinds and a boundary germ are seen."""
    cfg = FuzzConfig(seed=1, germ_count=20, n_max=1)
    summary = fuzz(cfg)
    assert summary.extra_draws < cfg.max_extra_draws // 10
    assert summary.germs_run == 20 + summary.extra_draws
    assert summary.vanishing_events == 0
    assert not summary.coverage_ok


def test_negative_germ_count_rejected():
    with pytest.raises(ValueError, match="germ count must be non-negative"):
        fuzz(FuzzConfig(seed=1, germ_count=-3))


def test_small_campaign_zero_failures():
    summary = fuzz(FuzzConfig(seed=8, germ_count=50, n_max=2,
                              boundary_bias_pct=25))
    assert summary.failures == 0
    assert summary.germs_run > 0
    assert summary.boundary_count >= 1


def test_coverage_retries_reach_all_kinds():
    summary = fuzz(FuzzConfig(seed=3141, germ_count=80, n_max=2,
                              boundary_bias_pct=20))
    d = summary.as_dict()
    assert d["coverage_ok"]
    assert all(d["case_counts"][k] >= 1
               for k in ("Case1", "Case2", "Case3", "Case4"))
    assert d["vanishing_events"] >= 1


def test_degree_cap_skips_counted():
    summary = fuzz(FuzzConfig(seed=5, germ_count=30, n_max=3, degree_cap=8))
    assert summary.skipped > 0
    assert summary.failures == 0


def test_campaign_sample_verification_digest():
    """The full verification JSON of every campaign germ verified.

    The campaign's own digest covers only its summary counts; this pins
    every claim, detail string and prediction of the 220 reports, with
    the Case 3, Case 4 and two-reading boundary germs the fixtures lack.
    Germs are run as fuzz runs them: past the degree cap they are
    skipped, and the rest verified under the campaign's limits.
    """
    cfg = CRITERION_5
    limits = campaign_limits(cfg)
    h = hashlib.sha256()
    kinds = set()
    verified = two_readings = 0
    for g in generate_germs(cfg):
        if _projected_degree(g, cfg.n_max) > cfg.degree_cap:
            continue
        report = verify_germ(g, cfg.n_max, limits=limits)
        verified += 1
        kinds.update(v.case.kind for v in report.variants)
        two_readings += len(report.variants) > 1
        h.update(json.dumps(verification_json(report), sort_keys=True).encode())
    assert verified == 220
    assert kinds == {"Case1", "Case2", "Case3", "Case4"}
    assert two_readings >= 10
    assert h.hexdigest()[:16] == "158a4d6815a0bb40"


# The whole-stream verification digests of the criterion-5 campaign
# drawn from other seeds, hashed as above.
STREAM_DIGESTS = {20260809: "158a4d6815a0bb40", 7: "fc383deae15ec6a4",
                  11: "26c2142641ab4c2d"}


def _report_json(g, cfg, limits, **kwargs) -> str:
    report = verify_germ(g, cfg.n_max, limits=limits, **kwargs)
    return json.dumps(verification_json(report), sort_keys=True)


@pytest.mark.parametrize("seed", sorted(STREAM_DIGESTS))
def test_truncated_oracle_gives_the_full_reports(seed):
    """fuzz verifies each germ with full_iterates=False; every report's
    JSON must equal the default's."""
    cfg = replace(CRITERION_5, seed=seed)
    limits = campaign_limits(cfg)
    h = hashlib.sha256()
    for g in generate_germs(cfg):
        if _projected_degree(g, cfg.n_max) > cfg.degree_cap:
            continue
        full = _report_json(g, cfg, limits)
        assert _report_json(g, cfg, limits, full_iterates=False) == full
        h.update(full.encode())
    assert h.hexdigest()[:16] == STREAM_DIGESTS[seed]


# The full steps each campaign stream makes: one per germ with a
# vanishing event, whose Q^2 loses a predicted vertex.
FULL_STEPS = {20260809: 26, 7: 32, 11: 31}


@pytest.mark.parametrize("seed", sorted(STREAM_DIGESTS))
def test_truncated_last_step_keeps_the_predicted_vertices(seed, step_log):
    """On the campaign streams every record from n = 2 on holds exactly
    the vertices of the polygon predicted from the record before, except
    where a predicted vertex cancels and the full step runs."""
    cfg = replace(CRITERION_5, seed=seed)
    limits = campaign_limits(cfg)
    full_steps = fallbacks = 0
    for g in generate_germs(cfg):
        if _projected_degree(g, cfg.n_max) > cfg.degree_cap:
            continue
        step_log.clear()
        report = verify_germ(g, cfg.n_max, limits=limits,
                             full_iterates=False)
        assert report.reached_n == cfg.n_max
        full_steps += len(step_log)
        for prev, rec in zip(report.oracle, report.oracle[1:]):
            predicted = composed_polygon(g.q, min(prev.germ.p.column_minima()),
                                         prev.polygon)
            support = sorted(rec.germ.q.exponents())
            if support != list(predicted.vertices):
                assert not set(predicted.vertices) <= set(support)
                fallbacks += 1
    assert full_steps == fallbacks == FULL_STEPS[seed]


def test_fuzz_verifies_with_truncated_last_step(monkeypatch):
    fuzz_module = importlib.import_module("skewprod.fuzz")
    calls = []
    inner = fuzz_module.verify_germ

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return inner(*args, **kwargs)

    monkeypatch.setattr(fuzz_module, "verify_germ", recording)
    summary = fuzz(FuzzConfig(seed=3, germ_count=5, n_max=2))
    assert len(calls) == summary.germs_run > 0
    assert all(kw.get("full_iterates") is False for kw in calls)


@pytest.mark.parametrize("coeff_min,coeff_max", [(0, 0), (2, 1)])
def test_coefficient_range_without_a_nonzero_int_rejected(
        monkeypatch, coeff_min, coeff_max):
    """_coeff redraws 0, so [0, 0] would draw forever and an empty range
    fails inside random: both are rejected before any draw."""
    fuzz_module = importlib.import_module("skewprod.fuzz")

    def no_draw(*args):
        raise AssertionError("drew a coefficient")

    monkeypatch.setattr(fuzz_module, "_coeff", no_draw)
    cfg = FuzzConfig(seed=1, germ_count=1, coeff_min=coeff_min,
                     coeff_max=coeff_max)
    with pytest.raises(ValueError, match="coeff_min..coeff_max"):
        fuzz(cfg)


@pytest.mark.parametrize("entry", ["fuzz", "generate_germs"])
@pytest.mark.parametrize("fields,message", [
    ({"coeff_min": 0, "coeff_max": 0}, "coeff_min..coeff_max"),
    ({"coeff_min": 3, "coeff_max": 1}, "coeff_min..coeff_max"),
    ({"delta_max": 0}, "delta_max must be at least 1"),
    ({"n_max": 0}, "n_max must be at least 1"),
])
def test_config_rejected_before_any_draw(monkeypatch, entry, fields,
                                         message):
    """Both entry points check the config on the call, before any draw:
    [0, 0] would draw forever, and an empty coefficient or delta range
    would fail inside random."""
    fuzz_module = importlib.import_module("skewprod.fuzz")

    def no_draw(*args):
        raise AssertionError("drew a germ")

    monkeypatch.setattr(fuzz_module, "_draw", no_draw)
    monkeypatch.setattr(fuzz_module, "_coeff", no_draw)
    cfg = FuzzConfig(seed=1, germ_count=1, **fields)
    with pytest.raises(ValueError, match=message):
        getattr(fuzz_module, entry)(cfg)


def test_campaign_formats_only_its_findings(monkeypatch):
    """fuzz reads each check's claim and passed only, so a 40-germ
    campaign formats no check detail: the formatter runs once for each
    finding and for nothing else."""
    verify_module = importlib.import_module("skewprod.verify")
    inner = verify_module._format_detail
    calls = []

    def counted(template, values):
        calls.append(template)
        return inner(template, values)

    monkeypatch.setattr(verify_module, "_format_detail", counted)
    summary = fuzz(replace(CRITERION_5, germ_count=40))
    assert summary.findings > 0
    assert len(calls) == summary.findings


def test_fuzz_counts_failures_and_truncations(monkeypatch):
    """Failed checks are summed over the germs, failing_germs keeps the
    first 10 with their sorted unique claims, and each report that hit a
    resource cap counts as truncated."""
    fuzz_module = importlib.import_module("skewprod.fuzz")
    inner = fuzz_module.verify_germ
    germs = []

    def seeded(germ, *args, **kwargs):
        report = inner(germ, *args, **kwargs)
        if len(germs) % 2 == 0:
            report.variants[0].checks += [CheckResult("b-claim", False),
                                          CheckResult("a-claim", False),
                                          CheckResult("b-claim", False)]
        else:
            report.resource_error = "seeded cap"
        germs.append(germ)
        return report

    monkeypatch.setattr(fuzz_module, "verify_germ", seeded)
    summary = fuzz(FuzzConfig(seed=3, germ_count=30, n_max=2))
    failing = germs[::2]
    assert len(failing) > 10
    assert summary.failures == 3 * len(failing)
    assert summary.truncated == len(germs) - len(failing)
    assert summary.failing_germs == [
        {"germ": format_germ_file(g), "claims": ["a-claim", "b-claim"]}
        for g in failing[:10]]


@pytest.mark.parametrize("seed,n_max,coverage_ok,extra_draws,germs_run", [
    (1, 3, True, 13, 9),
    (10, 1, False, 6, 6),  # no vanishing retry; the boundary retry runs
])
def test_coverage_retries_from_an_empty_campaign(
        seed, n_max, coverage_ok, extra_draws, germs_run):
    """With no germ drawn, coverage comes from the targeted retries
    alone; the two streams reach every kind of retry between them."""
    summary = fuzz(FuzzConfig(seed=seed, germ_count=0, n_max=n_max))
    assert summary.coverage_ok is coverage_ok
    assert summary.extra_draws == extra_draws
    assert summary.germs_run == germs_run
    assert summary.boundary_count >= 1
