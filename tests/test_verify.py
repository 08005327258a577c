import hashlib
import json
import sys
from fractions import Fraction

import pytest

from skewprod import (
    ResourceLimits,
    case_variants,
    iterate_germ,
    newton_polygon,
    parse_germ_file,
    verify_germ,
)
from skewprod.germ import iterates
from skewprod.exact import format_exact
from skewprod.growth import GrowthTable
from skewprod.jsonio import verification_json
from skewprod.newton import NewtonPolygon, composed_polygon, weight
from skewprod.verify import CheckResult, oracle_records
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


def test_prediction_digit_guard_keeps_earlier_results():
    """predict's digit guard trips at n = 11 under a 640-digit limit, and
    every reading keeps the same n <= 10."""
    f = parse_germ_file("p = 2*z^2\nq = 3*z^3 + w^2\n")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        report = verify_germ(f, 11)
        fits = verify_germ(f, 10)
    finally:
        sys.set_int_max_str_digits(old)
    assert report.reached_n == 10
    assert "Q^11" in report.resource_error
    assert fits.resource_error is None
    assert [rec.n for rec in report.oracle] == list(range(1, 11))
    assert report.failures == 0
    for v, w in zip(report.variants, fits.variants):
        assert [p.n for p in v.predictions] == list(range(1, 11))
        assert v.checks == w.checks


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


def test_check_details_bind_their_own_n(germs):
    """A check's detail is formatted on first read, from the values of
    its own n bound when the check was made, and reads the same again."""
    report = verify_germ(germs["g2"], 3, extra_ls=["7"])
    checks = [c for v in report.variants for c in v.checks]
    first = [c.detail for c in checks]
    assert [c.detail for c in checks] == first
    assert all(repr(c).endswith(f"detail={c.detail!r})") for c in checks)
    seen = set()
    for c in checks:
        if c.n is None:
            continue
        rec = report.oracle[c.n - 1]
        if c.claim == "p-iterate-order":
            assert c.detail == (f"order(p^n) = {rec.c_pn}, "
                                f"delta^n = {rec.delta_pow}")
        elif c.claim == "weight-sample-outside-range":
            w = format_exact(weight(rec.germ.q, 7))
            assert c.detail == f"w_7(Q^n) = {w} (no claim)"
        else:
            continue
        seen.add((c.claim, c.n))
    # delta^n and w_7(Q^n) differ from one n to the next.
    assert len({rec.delta_pow for rec in report.oracle}) == 3
    assert seen == {(claim, n) for n in (1, 2, 3)
                    for claim in ("p-iterate-order",
                                  "weight-sample-outside-range")}


def test_check_result_record():
    """Equal, hashed and shown by (claim, passed, n, detail), whether the
    detail is a str or formatted on read; no field can be set."""
    lazy = CheckResult("cqn-exact", True, 2, ("c(Q^n) = {}, claimed {}", 6,
                                              Fraction(12, 2)))
    eager = CheckResult("cqn-exact", True, 2, "c(Q^n) = 6, claimed 6")
    assert lazy == eager and hash(lazy) == hash(eager)
    assert repr(lazy) == repr(eager) == (
        "CheckResult(claim='cqn-exact', passed=True, n=2, "
        "detail='c(Q^n) = 6, claimed 6')")
    assert lazy != CheckResult("cqn-exact", True, 3, eager.detail)
    assert CheckResult("x", None) == CheckResult("x", None, None, "")
    for name in ("claim", "passed", "n", "detail", "other"):
        with pytest.raises(AttributeError):
            setattr(eager, name, None)


def test_detects_seeded_defects(germs, monkeypatch):
    """Deliberately wrong case payloads must fail: the checks have to
    reject wrong weights, a wrong dominant vertex, and a wrong delta."""
    import importlib
    from dataclasses import replace

    from skewprod import classify

    verify_module = importlib.import_module("skewprod.verify")
    f = germs["g2"]
    case = classify(f)

    def failures(wrong):
        monkeypatch.setattr(verify_module, "case_variants", lambda g: [wrong])
        return verify_germ(f, 2).failures

    wrong_l1 = replace(case, l1=case.l1 + 1, alpha=case.alpha + 1)
    assert failures(wrong_l1) > 0

    wrong_dominant = replace(case, gamma=case.gamma + 1)
    assert failures(wrong_dominant) > 0

    wrong_prev = replace(case, prev_vertex=(2, 2))
    assert failures(wrong_prev) > 0

    # claiming the boundary form where delta < T must trip the starred
    # previous-vertex identity
    wrong_boundary = replace(case, delta_eq_t_prev=True)
    assert failures(wrong_boundary) > 0


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


# -- the vertex steps (full_iterates=False) -------------------------------

# (fixture, n) pairs where the predicted polygon of Q^n is larger than
# the true one, so the certificate sends the step to the full one.
FALLBACKS = {("g5", 2), ("g5", 4)}
TRUNCATION_CASES = ([(name, n) for name in ("g1", "g2", "g3", "g4", "g5", "g6")
                     for n in (2, 3, 4)]
                    + [("g7", 2), ("g7", 3), ("g8", 3)])


def _json(report) -> str:
    return json.dumps(verification_json(report), sort_keys=True)


def _exact(terms) -> str:
    """Terms with their coefficient types: 2 and Fraction(2) differ."""
    return repr(sorted(terms))


def _vertex_terms(rec, full_rec) -> bool:
    """Whether a record holds exactly the terms of the full one at its
    polygon's vertices; either way it has the full p and polygon."""
    assert rec.germ.p == full_rec.germ.p
    assert rec.polygon == full_rec.polygon
    want = [(v, full_rec.germ.q.coeff(*v)) for v in rec.polygon.vertices]
    return _exact(rec.germ.q.items()) == _exact(want)


@pytest.mark.parametrize("name,n", TRUNCATION_CASES)
def test_truncated_last_step_matches_full(name, n, germs):
    f = germs[name]
    full = verify_germ(f, n)
    cut = verify_germ(f, n, full_iterates=False)
    assert _json(cut) == _json(full)
    assert cut.oracle[0].germ == f
    # From n = 2 on each record is the full Q^n's terms at the vertices
    # of the polygon predicted from Q^(n-1), or, where the certificate
    # fails, the full Q^n.
    for prev, rec, want in zip(full.oracle, cut.oracle[1:], full.oracle[1:]):
        predicted = composed_polygon(
            f.q, min(prev.germ.p.column_minima()), prev.polygon)
        if (name, rec.n) in FALLBACKS:
            assert rec.germ == want.germ
            assert _exact(rec.germ.q.items()) == _exact(want.germ.q.items())
        else:
            assert _vertex_terms(rec, want)
            assert rec.polygon.vertices == predicted.vertices


@pytest.mark.parametrize("name", ["g1", "g2", "g3", "g4", "g6", "g7"])
def test_vertex_step_keeps_its_polygon(name, germs, monkeypatch):
    """A certified vertex step leaves its composed polygon on its q, so
    the oracle record builds no second hull; that polygon is the one a
    fresh build gives."""
    built = []
    build = NewtonPolygon.of_poly.__func__

    def counted(cls, poly):
        built.append(poly)
        return build(cls, poly)

    f = germs[name]
    cases = case_variants(f)
    monkeypatch.setattr(NewtonPolygon, "of_poly", classmethod(counted))
    records, error = oracle_records(f, 3, cases=cases)
    monkeypatch.undo()
    assert error is None and len(records) == 3
    for rec in records[1:]:
        q = rec.germ.q
        assert not any(p is q for p in built)
        assert rec.polygon is newton_polygon(q)
        assert rec.polygon == NewtonPolygon.of_poly(q)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_g5_certificate_falls_back(n, germs, step_log):
    f = germs["g5"]
    full = [fn for _, fn in iterates(f, n)]
    step_log.clear()
    verify_germ(f, n, full_iterates=False)
    # At n = 2 and 4 a boundary term of Q^n cancels, so N(Q^n) is
    # smaller than predicted and the full step follows.  Q^3 is a vertex
    # step, so the full step to Q^4 composes forward from Q^2, the
    # deepest iterate held in full.
    composed = {2: [1], 3: [1], 4: [1, 2, 3]}[n]
    assert step_log == [full[k - 1] for k in composed]


def test_default_and_iterate_keep_full_iterates(germs, step_log):
    f = germs["g2"]
    f2 = iterate_germ(f, 2)
    step_log.clear()
    verify_germ(f, 3)
    iterate_germ(f, 3)
    assert step_log == [f, f2] * 2


def test_dominant_read_in_interior_takes_full_step(germs, step_log,
                                                   monkeypatch):
    """A dominant bidegree inside the predicted polygon is a point the
    truncated step would get wrong, so the full step runs."""
    f, n = germs["g2"], 3
    build = GrowthTable.build.__func__

    def moved(cls, delta, gamma, d, n_top):
        # (gamma_n + 1, d^n + 1) lies inside a polygon with a vertex at
        # (gamma_n, d^n).
        table = build(cls, delta, gamma, d, n_top)
        g, d_pow = list(table.gamma), list(table.d_pow)
        g[n] += 1
        d_pow[n] += 1
        return cls(tuple(g), tuple(d_pow), table.delta_pow)

    monkeypatch.setattr(GrowthTable, "build", classmethod(moved))
    full = verify_germ(f, n)
    step_log.clear()
    cut = verify_germ(f, n, full_iterates=False)
    # Q^2 is a vertex step, so the full step to Q^3 composes forward
    # from f, the deepest iterate held in full.
    assert step_log == [f, full.oracle[1].germ]
    assert _json(cut) == _json(full)
    assert _vertex_terms(cut.oracle[1], full.oracle[1])
    assert cut.oracle[1].germ != full.oracle[1].germ
    assert cut.oracle[-1].germ == full.oracle[-1].germ


def _cap_cases():
    # test_resource_cap_keeps_earlier_results's degree cap, and term
    # caps one below and at the term count of the deepest Q^n.
    yield "g4", 6, ResourceLimits(max_terms=10**6, max_total_degree=100)
    yield "g4", 5, ResourceLimits(max_terms=10**6, max_total_degree=100)
    for name, n, terms in (("g2", 4, 83), ("g7", 3, 641), ("g8", 3, 103_573)):
        for cap in (terms - 1, terms):
            yield name, n, ResourceLimits(max_terms=cap)


@pytest.mark.parametrize("name,n,limits", list(_cap_cases()))
def test_truncated_last_step_trips_caps_as_full(name, n, limits, germs):
    full = verify_germ(germs[name], n, limits=limits)
    cut = verify_germ(germs[name], n, limits=limits, full_iterates=False)
    assert (cut.reached_n, cut.resource_error) == (full.reached_n,
                                                   full.resource_error)
    assert _json(cut) == _json(full)
    # Every record is full or its vertex terms.
    for rec, want in zip(cut.oracle, full.oracle):
        assert (rec.germ.q == want.germ.q) or _vertex_terms(rec, want)


# g6 with 1/2 and 3/7 for two of its coefficients: its iterates mix int
# and Fraction coefficients, and its products mix them in one operand.
MIXED_GERM = ("z^2", "w^4 + 1/2*z*w^2 + z^3*w + 3/7*z^7")
ORACLE_RATIONAL_GERM = ("z^2 + 1/3*z^3", "2/3*w^3 - 5/7*z*w + 3/4*z^3")


def test_mixed_germ_iterate():
    q = iterate_germ(germ(*MIXED_GERM), 4).q
    assert len(q) == 50_389
    digest = hashlib.sha256(repr(sorted(q.items())).encode()).hexdigest()
    assert digest[:16] == "9a2f64fbb723a988"


@pytest.mark.parametrize("p_src, q_src", [MIXED_GERM, ORACLE_RATIONAL_GERM])
def test_vertex_steps_match_full_on_rational_germs(p_src, q_src):
    f = germ(p_src, q_src)
    assert _json(verify_germ(f, 4, full_iterates=False)) == _json(
        verify_germ(f, 4))
