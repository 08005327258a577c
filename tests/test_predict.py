from fractions import Fraction

import pytest

from skewprod import (
    CASE2,
    CqnBounds,
    asymptotic,
    case_variants,
    classify,
    critical_coeff_sequence,
    gamma_n,
    iterate_germ,
    predict,
)
from skewprod.growth import GrowthTable
from skewprod.predict import PredictionRangeError
from conftest import germ
from reference import gamma_n_closed, gamma_n_recurrence


def test_gamma_n_examples():
    assert gamma_n(2, 3, 1, 2) == 9
    assert gamma_n(3, 1, 3, 4) == 108  # n gamma delta^{n-1} when delta = d
    assert gamma_n(5, 0, 4, 7) == 0


def test_gamma_n_three_routes_agree():
    for delta in range(1, 5):
        for g in range(0, 4):
            for d in range(0, 4):
                for n in range(1, 13):
                    a = gamma_n(delta, g, d, n)
                    assert a == gamma_n_closed(delta, g, d, n)
                    assert a == gamma_n_recurrence(delta, g, d, n)


def test_gamma_n_beyond_machine_words():
    assert gamma_n(2, 3, 1, 100) == 3 * (2**100 - 1)
    assert gamma_n(3, 2, 3, 50) == 50 * 2 * 3**49
    assert gamma_n_closed(2, 3, 1, 100) == 3 * (2**100 - 1)


def test_gamma_n_recursion_invariant():
    for delta, g, d in ((2, 3, 1), (3, 2, 3), (4, 1, 4)):
        for n in range(1, 12):
            assert gamma_n(delta, g, d, n + 1) == \
                delta**n * g + d * gamma_n(delta, g, d, n)


def test_growth_table_recurrence_equals_the_sum():
    """GrowthTable's recurrence against gamma_n's geometric sum and the
    closed forms, including gamma = 0, d = 0 and delta = d."""
    for delta in range(1, 5):
        for g in range(0, 4):
            for d in range(0, 5):
                table = GrowthTable.build(delta, g, d, 12)
                assert table.gamma[0] == 0
                for n in range(1, 13):
                    assert table.gamma[n] == gamma_n(delta, g, d, n) == \
                        gamma_n_closed(delta, g, d, n)
                    assert table.d_pow[n] == d**n
                    assert table.delta_pow[n] == delta**n


def test_dominant_term_examples(germs):
    f1 = germs["g1"]
    pred = predict(f1, classify(f1), 2)
    assert (pred.dominant_coeff, pred.dominant_bidegree) == (1, (3, 1))
    f2 = germs["g2"]
    pred = predict(f2, classify(f2), 2)
    assert (pred.dominant_coeff, pred.dominant_bidegree) == (1, (9, 1))
    # n = 1 collapses to the coefficient of the dominant term of q
    pred = predict(germs["g5"], classify(germs["g5"]), 1)
    assert pred.dominant_coeff == 1 and pred.dominant_bidegree == (2, 0)


def test_dominant_coefficient_with_scaled_germ():
    f = germ("2*z^2", "3*z*w")
    case = classify(f)
    for n in range(1, 5):
        pred = predict(f, case, n)
        fn = iterate_germ(f, n)
        assert fn.q.coeff(*pred.dominant_bidegree) == pred.dominant_coeff


def weight_claim(f, n, l):
    """(w_l(Q^n), exact) as predict claims it at the one weight l."""
    (claim,) = predict(f, classify(f), n, ls=[l]).weight_claims
    return claim.value, claim.exact


def test_predict_weight_examples(germs):
    assert weight_claim(germs["g2"], 2, 2) == (11, True)
    assert weight_claim(germs["g3"], 2, 1) == (4, True)
    assert weight_claim(germs["g5"], 2, 1) == (4, True)
    with pytest.raises(PredictionRangeError):
        weight_claim(germs["g2"], 2, Fraction(7, 2))  # above alpha
    with pytest.raises(PredictionRangeError):
        weight_claim(germs["g5"], 2, Fraction(1, 2))  # interval is {1}


def test_cqn_bounds_g2(germs):
    f = germs["g2"]
    b = predict(f, classify(f), 2).cqn
    assert b == CqnBounds(Fraction(11, 2), Fraction(10),
                          lower_strict=True, upper_strict=True)
    # oracle value sits strictly inside
    assert Fraction(11, 2) < 8 < Fraction(10)


def test_cqn_bounds_exact_cases(germs):
    f4 = germs["g4"]
    b = predict(f4, classify(f4), 2).cqn
    assert b.exact == 4
    f1 = germs["g1"]
    for n in (1, 2, 3):
        b = predict(f1, classify(f1), n).cqn
        assert b.exact == gamma_n(2, 1, 1, n) + 1


def test_cqn_bounds_g5_boundary(germs):
    f = germs["g5"]
    case = classify(f)
    assert case.dominant_may_vanish
    # l1 = 1: the bracket collapses regardless of vanishing
    for n in (1, 2, 3):
        assert predict(f, case, n).cqn.exact == 2**n


def test_cqn_bounds_vanishing_l1_below_one():
    f = germ("z^3", "z^2 - w^3")
    case = classify(f)
    assert case.kind == CASE2 and case.d == 0
    assert case.delta_eq_t_prev and case.l1 == Fraction(2, 3)
    seq = critical_coeff_sequence(f, 3)
    assert seq == [1, 0, 1]  # vanishes at n = 2 and returns at n = 3
    b2 = predict(f, case, 2).cqn
    assert b2.lower == 6 and b2.lower_strict and b2.upper == 9
    b3 = predict(f, case, 3).cqn
    assert b3.exact == 18
    # oracle confirms
    q2 = iterate_germ(f, 2).q
    assert q2.coeff(6, 0) == 0 and q2.orders()[0] == 7
    q3 = iterate_germ(f, 3).q
    assert q3.coeff(18, 0) == 1 and q3.orders()[0] == 18


def test_theorem_bracket_forms(germs):
    f2 = germs["g2"]
    tb = predict(f2, classify(f2), 2).theorem_cqn
    assert tb.lower == Fraction(11, 2) and tb.upper == 10
    f3 = germs["g3"]
    tb = predict(f3, classify(f3), 2).theorem_cqn
    assert tb.lower == 4 and tb.upper == 4
    f5 = germs["g5"]
    tb = predict(f5, classify(f5), 2).theorem_cqn
    assert tb.lower == 4 and tb.upper == 4


def test_adjacent_vertices_examples(germs):
    f2 = germs["g2"]
    pred = predict(f2, classify(f2), 2)
    prev, nxt = pred.prev_vertex, pred.next_vertex
    assert nxt is None
    assert prev.point == (7, 2) and prev.tag == "AB"
    assert prev.intercept_rel == "less"
    assert prev.intercept_identity_holds((9, 1), 4)

    f3 = germs["g3"]
    pred = predict(f3, classify(f3), 2)
    prev, nxt = pred.prev_vertex, pred.next_vertex
    assert prev is None
    assert nxt.point == (2, 2) and nxt.tag == "CD"
    assert nxt.intercept_rel == "greater"
    assert nxt.intercept_identity_holds((0, 4), 9)

    # boundary germ at n = 1 collapses to the neighbour vertex itself
    f8 = germs["g8"]
    for case in case_variants(f8):
        pred = predict(f8, case, 1)
        if pred.prev_vertex is not None:
            assert pred.prev_vertex.point == case.prev_vertex
        if pred.next_vertex is not None:
            assert pred.next_vertex.point == case.next_vertex


def test_adjacent_vertices_in_oracle_polygon(germs):
    from skewprod import newton_polygon

    for name in ("g2", "g3", "g4", "g6"):
        f = germs[name]
        n_top = 2 if f.q.total_degree() >= 5 else 3
        for case in case_variants(f):
            for n in range(1, n_top + 1):
                fn = iterate_germ(f, n)
                verts = newton_polygon(fn.q).vertices
                dom = (gamma_n(case.delta, case.gamma, case.d, n), case.d**n)
                idx = verts.index(dom)
                pred = predict(f, case, n)
                if pred.prev_vertex is not None:
                    assert verts[idx - 1] == pred.prev_vertex.point, \
                        (name, case.k, n)
                if pred.next_vertex is not None:
                    assert verts[idx + 1] == pred.next_vertex.point, \
                        (name, case.k, n)


def test_vanishing_sum_examples(germs):
    """The pure-z coefficient of Q^2 on the critical edge: the first
    iterate's term cancels exactly when it is 0."""
    assert critical_coeff_sequence(germs["g5"], 2)[1] == 0

    f5b = germ("z^2", "2*w^2 + z*w + z^2")
    assert critical_coeff_sequence(f5b, 2)[1] == 4
    assert iterate_germ(f5b, 2).q.coeff(4, 0) == 4

    # two-point edge instance
    assert critical_coeff_sequence(germ("z^3", "z^2 - w^3"), 2)[1] == 0

    # no critical edge: g2's last vertex (3, 1) is not on the x-axis
    assert critical_coeff_sequence(germs["g2"], 2) is None


@pytest.mark.parametrize("n", [0, -1])
def test_predict_rejects_nonpositive_n(germs, n):
    """On a reading that already holds a deeper growth table, too."""
    f = germs["g2"]
    case = classify(f)
    for _ in range(2):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            predict(f, case, n)
        predict(f, case, 5)


@pytest.mark.parametrize("name", ["g1", "g5"])
@pytest.mark.parametrize("n_max", [0, -2])
def test_critical_sequence_rejects_nonpositive_n(germs, name, n_max):
    """Whether or not the germ has a critical sequence (g5 has one)."""
    f = germs[name]
    assert (critical_coeff_sequence(f, 5) is not None) == (name == "g5")
    with pytest.raises(ValueError, match="n must be a positive integer"):
        critical_coeff_sequence(f, n_max)


def test_critical_sequence_matches_oracle(germs):
    f5 = germs["g5"]
    seq = critical_coeff_sequence(f5, 4)
    assert seq == [1, 0, 1, 0]
    for n in (1, 2, 3, 4):
        assert iterate_germ(f5, n).q.coeff(2**n, 0) == seq[n - 1]


def test_predict_cfn_examples(germs):
    f2 = germs["g2"]
    pred = predict(f2, classify(f2), 2)
    assert (pred.cfn_lower, pred.cfn_upper) == (4, 4)
    f1 = germs["g1"]
    pred = predict(f1, classify(f1), 3)
    assert (pred.cfn_lower, pred.cfn_upper) == (8, 8)
    assert iterate_germ(f1, 3).q == germ("z", "z^7*w").q


def test_asymptotic_examples(germs):
    f3 = germs["g3"]
    ar = asymptotic(f3, classify(f3))
    assert ar.c_infinity == 2
    assert ar.d_candidates == (1,)

    f2 = germs["g2"]
    ar = asymptotic(f2, classify(f2))
    assert ar.c_infinity == 2 and ar.d_candidates == (1,)  # alpha = 3 >= 1

    f = germ("z^3", "z*w + z^4*w^2")  # Case 1 with alpha = 1/2 < 1
    case = classify(f)
    ar = asymptotic(f, case)
    assert ar.c_infinity == 3 and ar.d_candidates == (Fraction(1, 2),)

    f5 = germs["g5"]
    ar = asymptotic(f5, classify(f5))  # Case 2 with d = 0
    assert ar.c_infinity == 2
    assert set(ar.d_candidates) == {Fraction(1)}


def test_asymptotic_holds_on_oracle(germs):
    for f in germs.values():
        growth = max(f.delta, f.q.total_degree())
        n_top = 2 if growth >= 5 else 4
        observed = []
        for n in range(1, n_top + 1):
            fn = iterate_germ(f, n)
            observed.append((n, min(fn.q.orders()[0], f.delta**n)))
        for case in case_variants(f):
            assert asymptotic(f, case).holds_for(observed), (f, case.kind)


def test_predict_record_fields(germs):
    f = germs["g2"]
    case = classify(f)
    pred = predict(f, case, 2)
    assert pred.gamma_n == 9 and pred.d_pow_n == 1 and pred.delta_pow_n == 4
    assert pred.ord_w_claim == 1 and pred.ord_z_claim is None
    assert pred.dominant_position == "min_y_vertex"
    assert not pred.may_vanish
    assert {w.l for w in pred.weight_claims} == {
        Fraction(2), Fraction(5, 2), Fraction(3)}
    assert all(w.value == 9 + w.l for w in pred.weight_claims)


def _pinned_prediction_readings():
    """(f, case, n_max) for every reading of g1-g8 to n = 4 and of the
    first 40 criterion-5 germs to the campaign's n_max."""
    from itertools import islice

    from skewprod.fuzz import generate_germs
    from conftest import CRITERION_5, FIXTURES

    for name in sorted(FIXTURES):
        f = germ(*FIXTURES[name])
        for case in case_variants(f):
            yield f, case, 4
    for f in islice(generate_germs(CRITERION_5), 40):
        for case in case_variants(f):
            yield f, case, CRITERION_5.n_max


def test_predictions_pinned():
    """The repr of every RatePrediction verify.predictions returns, over
    the fixtures and a campaign sample, hashed in order: a change to any
    bracket, weight value, bound or its type shows here.  predict at each
    n, on a fresh copy of the reading, gives the same record."""
    import hashlib
    from dataclasses import replace

    from skewprod.verify import predictions, weight_samples

    h = hashlib.sha256()
    count = 0
    for f, case, n_max in _pinned_prediction_readings():
        ls, _ = weight_samples(case)
        preds, _, error = predictions(f, case, n_max, ls)
        assert error is None and len(preds) == n_max
        for n, pred in enumerate(preds, start=1):
            alone = predict(f, replace(case), n, ls=ls)
            assert alone == pred and repr(alone) == repr(pred)
            h.update(repr(pred).encode())
            count += 1
    assert count == 193
    assert h.hexdigest()[:16] == "8efb80e6f141dd65"
