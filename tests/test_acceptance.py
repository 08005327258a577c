"""Acceptance gate: one test per criterion, each printing a PASS line.

The criteria keep their numbers; there is no criterion 4, because the
pi1/pi2 blow-ups it checked are not part of this package.

Every comparison is exact rational arithmetic with zero tolerance; the
stated runtime budgets are asserted.  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction

from skewprod import (
    CASE2,
    CASE4,
    FuzzConfig,
    case_variants,
    classify,
    fuzz,
    gamma_n,
    iterate_germ,
    parse_poly,
    predict,
    verify_germ,
    weight,
    weight_intervals,
)
from skewprod.classify import r_map_pair
from conftest import DATA, FIXTURES, GOLDEN, germ
from reference import (
    rect_contains,
    system_membership,
    system_membership_case4_ar,
    system_membership_case4_first,
    system_membership_case4_pair,
)

FIVE = ("g1", "g2", "g3", "g4", "g5")


def _stamp(criterion, started, detail):
    elapsed = time.perf_counter() - started
    print(f"PASS criterion {criterion}: {detail} [{elapsed:.2f}s]")
    return elapsed


def test_criterion_1_fixture_suite(germs):
    started = time.perf_counter()
    checks = 0
    for name in FIVE:
        report = verify_germ(germs[name], 4)
        assert report.reached_n == 4, name
        assert report.failures == 0, (
            name,
            [c for v in report.variants for c in v.checks if c.passed is False],
        )
        checks += sum(len(v.checks) for v in report.variants)

    # pinned values
    g2 = verify_germ(germs["g2"], 2)
    assert g2.oracle[1].c_qn == 8
    p2 = g2.variants[0].predictions[1]
    assert (p2.cqn.lower, p2.cqn.upper) == (Fraction(11, 2), Fraction(10))
    assert p2.cqn.lower_strict and p2.cqn.upper_strict
    assert p2.prev_vertex.point == (7, 2)

    g3 = verify_germ(germs["g3"], 2)
    assert g3.variants[0].predictions[1].next_vertex.point == (2, 2)

    g4 = verify_germ(germs["g4"], 2)
    assert g4.variants[0].predictions[1].cqn.exact == 4
    assert g4.oracle[1].c_qn == 4

    g5 = verify_germ(germs["g5"], 2)
    assert all(v.vanishing_first_n == 2 for v in g5.variants)
    assert weight(g5.oracle[1].germ.q, 1) == 4

    elapsed = _stamp(1, started, f"fixture suite G1-G5, n <= 4, {checks} checks")
    assert elapsed < 5.0


def test_criterion_2_monomial_closed_forms():
    started = time.perf_counter()
    rng = random.Random(2)
    configs = 0
    for delta in range(1, 5):
        for g in range(0, 5):
            for d in range(0, 5):
                if g + d < 1:
                    continue
                configs += 1
                a = rng.choice((1, 2, -1))
                b = rng.choice((1, -2, 3))
                f = germ(f"{a}*z^{delta}", f"{b}*z^{g}*w^{d}")
                alpha = Fraction(g, delta - d) if delta != d else None
                fn = f
                for n in range(1, 7):
                    if n > 1:
                        from skewprod import compose_germ

                        fn = compose_germ(f, fn)
                    c_qn = fn.q.orders()[0]
                    c_pn = min(i for i, _ in fn.p.support())
                    c_fn = min(c_pn, c_qn)
                    g_n = gamma_n(delta, g, d, n)
                    d_n = d**n
                    dp = delta**n
                    assert c_pn == dp
                    assert c_qn == g_n + d_n
                    assert c_fn == min(dp, g_n + d_n)
                    if g > 0 and d > 0:
                        if delta > d:
                            if alpha < 1:
                                assert alpha * dp < c_qn < dp
                                assert alpha * dp < c_fn < dp
                            elif alpha > 1:
                                assert dp < c_qn < alpha * dp
                                assert c_fn == dp
                            else:
                                assert c_qn == dp and c_fn == dp
                            assert min(alpha, 1) * dp <= c_qn <= max(alpha, 1) * dp
                        elif delta < d:
                            assert dp < c_qn < (1 - alpha) * d_n
                            assert c_fn == dp
                        else:
                            assert c_qn == n * g * delta ** (n - 1) + dp > dp
                            assert c_fn == dp
                    elif g == 0:
                        assert c_qn == d_n and c_fn == min(dp, d_n)
                    else:
                        assert c_qn == g * delta ** (n - 1)
                        assert c_fn == min(delta, g) * delta ** (n - 1)
    elapsed = _stamp(2, started, f"monomial closed forms, {configs} bidegrees, n <= 6")
    assert elapsed < 10.0


def test_criterion_3_lemma_suite(germs):
    started = time.perf_counter()
    rng = random.Random(3)

    # R^n closed form vs n-fold application, 50 random rational l each
    for name in ("g2", "g3", "g4", "g5"):
        for case in case_variants(germs[name]):
            if case.kind == "Case1":
                continue
            growth = case.growth(10)
            for _ in range(50):
                l = Fraction(rng.randint(1, 50), rng.randint(1, 25))
                value = l
                for n in range(11):
                    assert Fraction(*r_map_pair(
                        growth.gamma[n], growth.d_pow[n], growth.delta_pow[n],
                        l.numerator, l.denominator)) == value
                    value = Fraction(*r_map_pair(
                        case.gamma, case.d, case.delta,
                        value.numerator, value.denominator))

    # anchor-slope constancy for n <= 6
    for name in FIXTURES:
        for case in case_variants(germs[name]):
            if case.gamma <= 0:
                continue
            slopes = {
                Fraction(case.d**n - case.delta**n,
                         gamma_n(case.delta, case.gamma, case.d, n))
                for n in range(1, 7)
            }
            assert len(slopes) == 1, (name, case.kind)

    # closed-form intervals vs raw inequality systems, 200 samples each
    for name in FIXTURES:
        f = germs[name]
        for case in case_variants(f):
            ivs = weight_intervals(case)
            probes = [Fraction(rng.randint(1, 80), rng.randint(1, 20))
                      for _ in range(200)]
            probes += [x for x in (case.l1, case.alpha, case.l1_plus_l2)
                       if isinstance(x, (int, Fraction)) and x > 0]
            if case.kind == CASE4:
                for l in probes:
                    assert ivs.i_f.first.contains(l) == \
                        system_membership_case4_first(case, l)
                    assert ivs.i_f_ar.contains(l) == \
                        system_membership_case4_ar(case, l)
                for _ in range(200):
                    x, y = rng.choice(probes), rng.choice(probes)
                    assert rect_contains(ivs.i_f, x, y) == \
                        system_membership_case4_pair(f, case, x, y)
            else:
                for l in probes:
                    assert ivs.i_f.contains(l) == \
                        system_membership(f, case, l), (name, case.kind, l)

    # interval stability under iteration for Case-2 germs with d > 0
    for src in (germs["g2"], germ("z^2", "z^5*w + z*w^3")):
        case = classify(src)
        assert case.kind == CASE2 and case.d > 0
        base = weight_intervals(case).i_f
        for n in (1, 2, 3):
            sub = classify(iterate_germ(src, n))
            assert sub.kind == CASE2
            assert weight_intervals(sub).i_f == base

    elapsed = _stamp(3, started, "r-map, slopes, interval systems, stability")
    assert elapsed < 10.0


def test_criterion_5_fuzz_campaign():
    started = time.perf_counter()
    cfg = FuzzConfig(seed=20260809, germ_count=240, delta_max=3,
                     support_max=6, coeff_min=-3, coeff_max=3, n_max=3,
                     boundary_bias_pct=25)
    summary = fuzz(cfg)
    d = summary.as_dict()
    assert summary.germs_run >= 200, d
    assert summary.failures == 0, d["failing_germs"]
    assert d["coverage_ok"]
    assert all(d["case_counts"][k] >= 1
               for k in ("Case1", "Case2", "Case3", "Case4"))
    assert summary.boundary_count >= 1
    assert summary.vanishing_events >= 1
    elapsed = _stamp(
        5, started,
        f"{summary.germs_run} germs, cases {d['case_counts']}, "
        f"{summary.boundary_count} boundary, "
        f"{summary.vanishing_events} vanishing, 0 failures")
    assert elapsed < 60.0


def test_criterion_6_coefficient_formula(germs):
    started = time.perf_counter()
    mismatches = []
    for name in FIXTURES:
        f = germs[name]
        growth = max(f.delta, f.q.total_degree())
        n_top = 2 if growth >= 5 else 3
        for case in case_variants(f):
            if case.dominant_may_vanish:
                continue
            for n in range(1, n_top + 1):
                pred = predict(f, case, n)
                coeff, bidegree = pred.dominant_coeff, pred.dominant_bidegree
                observed = iterate_germ(f, n).q.coeff(*bidegree)
                assert observed != 0, (name, case.kind, n)
                if observed != coeff:
                    mismatches.append((name, case.kind, n, observed, coeff))
    assert mismatches == []
    elapsed = _stamp(6, started, "dominant coefficient closed form confirmed")
    assert elapsed < 10.0


def test_criterion_7_cli_contract(tmp_path):
    started = time.perf_counter()

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "skewprod", *argv],
                              capture_output=True, text=True)

    for name in FIVE:
        for command, flags in (("classify", ()), ("iterate", ("--n", "2")),
                               ("predict", ("--n", "2"))):
            r = run(command, "--germ", str(DATA / f"{name}.germ"), *flags,
                    "--format", "json")
            assert r.returncode == 0
            assert r.stdout == (GOLDEN / f"{name}_{command}.json").read_text()

    # parse/print round-trip on 100 random polynomials
    rng = random.Random(7)
    from skewprod import SparsePoly2, format_poly

    for _ in range(100):
        terms = {}
        for _ in range(rng.randint(1, 8)):
            c = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 5)))
            if c:
                terms[(rng.randint(0, 7), rng.randint(0, 7))] = c
        p = SparsePoly2(terms)
        assert parse_poly(format_poly(p)) == p

    # exit-status table
    assert run("verify", "--germ", str(DATA / "g5.germ"),
               "--n-max", "2").returncode == 0
    assert run("classify").returncode == 2
    bad = tmp_path / "bad.germ"
    bad.write_text("p = z^2\nq = q + w\n")
    assert run("classify", "--germ", str(bad)).returncode == 2
    assert run("iterate", "--germ", str(DATA / "g1.germ"),
               "--n", "21").returncode == 3

    elapsed = _stamp(7, started, "golden files, round-trip, exit statuses")
    assert elapsed < 30.0
