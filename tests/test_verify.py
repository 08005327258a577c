from fractions import Fraction

import pytest

from skewprod import ResourceLimits, verify_germ
from conftest import germ


@pytest.mark.parametrize("name", ["g1", "g2", "g3", "g4", "g5"])
def test_fixtures_verify_clean(name, germs):
    report = verify_germ(germs[name], 3)
    assert report.failures == 0
    assert report.reached_n == 3
    assert report.resource_error is None
    assert all(len(v.checks) > 10 for v in report.variants)


def test_boundary_germ_has_two_variants(germs):
    report = verify_germ(germs["g5"], 2)
    assert [v.case.kind for v in report.variants] == ["Case2", "Case3"]
    assert report.failures == 0
    assert all(v.vanishing_first_n == 2 for v in report.variants)
    assert any("vanishing event at n=2" in msg for msg in report.findings)


def test_g2_pinned_oracle_values(germs):
    report = verify_germ(germs["g2"], 2)
    rec = report.oracle[1]
    assert rec.n == 2 and rec.c_qn == 8 and rec.c_fn == 4
    assert rec.ord_z == 4 and rec.ord_w == 1
    assert rec.polygon.vertices == ((4, 4), (7, 2), (9, 1))
    pred = report.variants[0].predictions[1]
    assert (pred.cqn.lower, pred.cqn.upper) == (Fraction(11, 2), 10)
    assert pred.cqn.lower_strict and pred.cqn.upper_strict


def test_resource_cap_keeps_earlier_results(germs):
    limits = ResourceLimits(max_terms=10**6, max_total_degree=100)
    report = verify_germ(germs["g4"], 6, limits=limits)
    # degree(Q^n) grows like 3^n: n = 4 still fits (81), n = 5 does not
    assert report.reached_n == 4
    assert report.resource_error is not None
    assert report.failures == 0


def test_extra_weight_samples(germs):
    report = verify_germ(germs["g2"], 2, extra_ls=["5/2", "7"])
    v = report.variants[0]
    in_range = [c for c in v.checks if c.claim == "weight-equality"]
    # 5/2 joins the endpoint and midpoint samples
    assert any("w_5/2" in c.detail for c in in_range)
    outside = [c for c in v.checks
               if c.claim == "weight-sample-outside-range"]
    assert outside and all(c.passed is None for c in outside)
    assert report.failures == 0


def test_nonpositive_extra_weight_rejected(germs):
    # an out-of-range sample is still read, and w_l needs l > 0
    with pytest.raises(ValueError):
        verify_germ(germs["g1"], 2, extra_ls=(-1,))


def test_detects_seeded_defects(germs):
    """Deliberately wrong case payloads must fail: the checks have to
    reject wrong weights, a wrong dominant vertex, and a wrong delta."""
    from dataclasses import replace

    from skewprod import classify
    from skewprod.verify import _verify_variant, oracle_records

    f = germs["g2"]
    case = classify(f)
    records, _ = oracle_records(f, 2)

    wrong_l1 = replace(case, l1=case.l1 + 1, alpha=case.alpha + 1)
    assert _verify_variant(f, wrong_l1, records, ()).failures > 0

    wrong_dominant = replace(case, gamma=case.gamma + 1)
    assert _verify_variant(f, wrong_dominant, records, ()).failures > 0

    wrong_prev = replace(case, prev_vertex=(2, 2))
    assert _verify_variant(f, wrong_prev, records, ()).failures > 0

    # claiming the boundary form where delta < T must trip the starred
    # previous-vertex identity
    wrong_boundary = replace(case, delta_eq_t_prev=True)
    assert _verify_variant(f, wrong_boundary, records, ()).failures > 0


def test_interval_stability_checked_for_case2(germs):
    report = verify_germ(germs["g2"], 3)
    v = report.variants[0]
    stab = [c for c in v.checks if c.claim == "interval-stability"]
    assert len(stab) == 3 and all(c.passed for c in stab)


def test_case1_checks_polygon_is_quadrant(germs):
    report = verify_germ(germs["g1"], 3)
    v = report.variants[0]
    only = [c for c in v.checks if c.claim == "dominant-only-vertex"]
    assert len(only) == 3 and all(c.passed for c in only)
