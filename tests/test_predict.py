from fractions import Fraction

import pytest

from skewprod import (
    CASE2,
    CqnBounds,
    asymptotic,
    case_variants,
    classify,
    critical_coeff_sequence,
    dominant_term,
    gamma_n,
    iterate_germ,
    predict,
    predict_adjacent_vertices,
    predict_cfn,
    predict_cqn_bounds,
    predict_weight,
    theorem_bracket,
    vanishing_sum,
)
from skewprod.predict import ConfigurationError, PredictionRangeError
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


def test_dominant_term_examples(germs):
    f1 = germs["g1"]
    coeff, bideg = dominant_term(f1, classify(f1), 2)
    assert (coeff, bideg) == (1, (3, 1))
    f2 = germs["g2"]
    coeff, bideg = dominant_term(f2, classify(f2), 2)
    assert (coeff, bideg) == (1, (9, 1))
    # n = 1 collapses to the coefficient of the dominant term of q
    case5 = classify(germs["g5"])
    coeff, bideg = dominant_term(germs["g5"], case5, 1)
    assert coeff == 1 and bideg == (2, 0)


def test_dominant_coefficient_with_scaled_germ():
    f = germ("2*z^2", "3*z*w")
    case = classify(f)
    for n in range(1, 5):
        coeff, bideg = dominant_term(f, case, n)
        fn = iterate_germ(f, n)
        assert fn.q.coeff(*bideg) == coeff


def test_predict_weight_examples(germs):
    f2 = germs["g2"]
    assert predict_weight(f2, classify(f2), 2, 2) == (11, True)
    f3 = germs["g3"]
    assert predict_weight(f3, classify(f3), 2, 1) == (4, True)
    f5 = germs["g5"]
    assert predict_weight(f5, classify(f5), 2, 1) == (4, True)
    with pytest.raises(PredictionRangeError):
        predict_weight(f2, classify(f2), 2, Fraction(7, 2))  # above alpha
    with pytest.raises(PredictionRangeError):
        predict_weight(f5, classify(f5), 2, Fraction(1, 2))  # interval is {1}


def test_cqn_bounds_g2(germs):
    f = germs["g2"]
    b = predict_cqn_bounds(f, classify(f), 2)
    assert b == CqnBounds(Fraction(11, 2), Fraction(10),
                          lower_strict=True, upper_strict=True)
    # oracle value sits strictly inside
    assert Fraction(11, 2) < 8 < Fraction(10)


def test_cqn_bounds_exact_cases(germs):
    f4 = germs["g4"]
    b = predict_cqn_bounds(f4, classify(f4), 2)
    assert b.exact == 4
    f1 = germs["g1"]
    for n in (1, 2, 3):
        b = predict_cqn_bounds(f1, classify(f1), n)
        assert b.exact == gamma_n(2, 1, 1, n) + 1


def test_cqn_bounds_g5_boundary(germs):
    f = germs["g5"]
    case = classify(f)
    assert case.dominant_may_vanish
    # l1 = 1: the bracket collapses regardless of vanishing
    for n in (1, 2, 3):
        assert predict_cqn_bounds(f, case, n).exact == 2**n


def test_cqn_bounds_vanishing_l1_below_one():
    f = germ("z^3", "z^2 - w^3")
    case = classify(f)
    assert case.kind == CASE2 and case.d == 0
    assert case.delta_eq_t_prev and case.l1 == Fraction(2, 3)
    seq = critical_coeff_sequence(f, 3)
    assert seq == [1, 0, 1]  # vanishes at n = 2 and returns at n = 3
    b2 = predict_cqn_bounds(f, case, 2)
    assert b2.lower == 6 and b2.lower_strict and b2.upper == 9
    b3 = predict_cqn_bounds(f, case, 3)
    assert b3.exact == 18
    # oracle confirms
    q2 = iterate_germ(f, 2).q
    assert q2.coeff(6, 0) == 0 and q2.orders()[0] == 7
    q3 = iterate_germ(f, 3).q
    assert q3.coeff(18, 0) == 1 and q3.orders()[0] == 18


def test_theorem_bracket_forms(germs):
    f2 = germs["g2"]
    tb = theorem_bracket(classify(f2), 2)
    assert tb.lower == Fraction(11, 2) and tb.upper == 10
    f3 = germs["g3"]
    tb = theorem_bracket(classify(f3), 2)
    assert tb.lower == 4 and tb.upper == 4
    f5 = germs["g5"]
    tb = theorem_bracket(classify(f5), 2)
    assert tb.lower == 4 and tb.upper == 4


def test_adjacent_vertices_examples(germs):
    f2 = germs["g2"]
    prev, nxt = predict_adjacent_vertices(f2, classify(f2), 2)
    assert nxt is None
    assert prev.point == (7, 2) and prev.tag == "AB"
    assert prev.intercept_rel == "less"
    assert prev.intercept_identity_holds((9, 1), 4)

    f3 = germs["g3"]
    prev, nxt = predict_adjacent_vertices(f3, classify(f3), 2)
    assert prev is None
    assert nxt.point == (2, 2) and nxt.tag == "CD"
    assert nxt.intercept_rel == "greater"
    assert nxt.intercept_identity_holds((0, 4), 9)

    # boundary germ at n = 1 collapses to the neighbour vertex itself
    f8 = germs["g8"]
    for case in case_variants(f8):
        prev, nxt = predict_adjacent_vertices(f8, case, 1)
        if prev is not None:
            assert prev.point == case.prev_vertex
        if nxt is not None:
            assert nxt.point == case.next_vertex


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
                prev, nxt = predict_adjacent_vertices(f, case, n)
                if prev is not None:
                    assert verts[idx - 1] == prev.point, (name, case.k, n)
                if nxt is not None:
                    assert verts[idx + 1] == nxt.point, (name, case.k, n)


def test_vanishing_sum_examples(germs):
    f5 = germs["g5"]
    total, triggers = vanishing_sum(f5, classify(f5))
    assert total == 0 and triggers

    f5b = germ("z^2", "2*w^2 + z*w + z^2")
    total, triggers = vanishing_sum(f5b, classify(f5b))
    assert total == 4 and not triggers
    assert iterate_germ(f5b, 2).q.coeff(4, 0) == 4

    # two-point edge instance
    f = germ("z^3", "z^2 - w^3")
    total, triggers = vanishing_sum(f, classify(f))
    assert total == 0 and triggers

    with pytest.raises(ConfigurationError):
        vanishing_sum(germs["g2"], classify(germs["g2"]))


def test_critical_sequence_matches_oracle(germs):
    f5 = germs["g5"]
    seq = critical_coeff_sequence(f5, 4)
    assert seq == [1, 0, 1, 0]
    for n in (1, 2, 3, 4):
        assert iterate_germ(f5, n).q.coeff(2**n, 0) == seq[n - 1]


def test_predict_cfn_examples(germs):
    f2 = germs["g2"]
    assert predict_cfn(f2, classify(f2), 2) == (4, 4)
    f1 = germs["g1"]
    assert predict_cfn(f1, classify(f1), 3) == (8, 8)
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
