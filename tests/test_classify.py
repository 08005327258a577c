import itertools
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from skewprod import (
    CASE1,
    CASE2,
    CASE3,
    CASE4,
    INF,
    Interval,
    case_variants,
    classify,
    weight_intervals,
)
from skewprod.classify import r_map_pair
from skewprod.fuzz import generate_germs
from skewprod.germ import SkewGerm
from skewprod.jsonio import case_json
from skewprod.newton import newton_polygon
from skewprod.poly import SparsePoly2
from conftest import CRITERION_5, germ
from reference import (
    case_readings,
    rect_contains,
    second_of,
    system_membership,
    system_membership_case4_ar,
    system_membership_case4_first,
    system_membership_case4_pair,
)


def test_case1(germs):
    case = classify(germs["g1"])
    assert case.kind == CASE1
    assert (case.gamma, case.d) == (1, 1)
    assert case.l1 == 0 and case.l2 is INF
    assert case.applicable == (CASE1,)


def test_case2(germs):
    case = classify(germs["g2"])
    assert case.kind == CASE2
    assert (case.gamma, case.d) == (3, 1)
    assert case.l1 == 2 and case.l2 is INF
    assert case.alpha == 3
    assert case.t_prev == Fraction(5, 2)
    assert not case.delta_eq_t_prev
    iv = weight_intervals(case).i_f
    assert iv == Interval(Fraction(2), Fraction(3))


def test_case3(germs):
    case = classify(germs["g3"])
    assert case.kind == CASE3
    assert (case.gamma, case.d) == (0, 2)
    assert case.l1 == 0 and case.l2 == 1
    assert case.t_next == 2 and not case.delta_eq_t_next
    iv = weight_intervals(case).i_f
    assert iv == Interval(Fraction(0), Fraction(1), lower_closed=False)
    assert not iv.contains(0) and iv.contains(Fraction(1, 7)) and iv.contains(1)


def test_case4(germs):
    case = classify(germs["g4"])
    assert case.kind == CASE4
    assert case.k == 2
    assert (case.gamma, case.d) == (1, 1)
    assert case.l1 == Fraction(1, 2)
    assert case.l1_plus_l2 == 2
    assert case.alpha == 1
    ivs = weight_intervals(case)
    assert ivs.i_f.first == Interval(Fraction(1, 2), Fraction(1))
    assert ivs.i_f_ar == Interval(Fraction(1, 2), Fraction(2))
    rect = ivs.i_f
    assert rect.shape == "interior"
    assert rect.excluded_corner == (Fraction(1), Fraction(1))
    assert rect_contains(rect, Fraction(1, 2), Fraction(3, 2))
    assert not rect_contains(rect, 1, 1)  # the excluded corner
    assert rect_contains(rect, 1, 2)
    assert not rect_contains(rect, Fraction(1, 4), Fraction(3, 2))


def test_boundary_overlap_g5(germs):
    case = classify(germs["g5"])
    assert case.kind == CASE2  # priority at the shared boundary
    assert set(case.applicable) == {CASE2, CASE3}
    assert (case.gamma, case.d) == (2, 0)
    assert case.l1 == 1 and case.alpha == 1
    assert case.delta_eq_t_prev
    assert case.dominant_may_vanish
    iv = weight_intervals(case).i_f
    assert iv == Interval(Fraction(1), Fraction(1))

    variants = case_variants(germs["g5"])
    assert [v.kind for v in variants] == [CASE2, CASE3]
    c3 = variants[1]
    assert (c3.gamma, c3.d) == (0, 2)
    assert c3.l2 == 1 and c3.delta_eq_t_next
    assert c3.next_term_may_vanish


def test_case4_double_reading(germs):
    variants = case_variants(germs["g8"])
    assert [(v.kind, v.k) for v in variants] == [(CASE4, 2), (CASE4, 3)]
    v2, v3 = variants
    assert (v2.gamma, v2.d) == (1, 4) and v2.delta_eq_t_next
    assert (v3.gamma, v3.d) == (3, 2) and v3.delta_eq_t_prev
    assert classify(germs["g8"]).k == 2


def test_case4_shapes():
    # delta equal to an interior intercept: the two readings carry the
    # two degenerate rectangle shapes
    f = germ("z^4", "w^6 + z*w^3 + z^2*w^2 + z^4*w")
    variants = case_variants(f)
    assert [(v.kind, v.k) for v in variants] == [(CASE4, 2), (CASE4, 3)]
    ff = variants[1]  # delta = T_{k-1}
    assert ff.delta_eq_t_prev and ff.alpha == ff.l1
    rect = weight_intervals(ff).i_f
    assert rect.shape == "first_fixed"
    assert rect.first == Interval(ff.l1, ff.l1)
    assert second_of(rect, ff.l1) == Interval(
        Fraction(0), ff.l2, lower_closed=False)
    sf = variants[0]  # delta = T_k
    assert sf.delta_eq_t_next and sf.alpha == sf.l1_plus_l2
    rect2 = weight_intervals(sf).i_f
    assert rect2.shape == "second_fixed"
    assert rect2.first == Interval(sf.l1, sf.l1_plus_l2, upper_closed=False)
    top = sf.l1_plus_l2
    assert second_of(rect2, sf.l1) == Interval(top - sf.l1, top - sf.l1)


def test_g8_degenerate_rectangles_json(germs):
    """g8's two readings are the fixtures' only second_fixed and
    first_fixed rectangles, and no golden holds them."""
    def iv(lower, upper, lower_closed, upper_closed):
        return {"lower": lower, "upper": upper, "lower_closed": lower_closed,
                "upper_closed": upper_closed}

    first_k2 = iv("1/4", "1", True, False)
    first_k3 = iv("1", "1", True, True)
    want = [
        {"interval_first": first_k2,
         "rectangle": {"shape": "second_fixed", "first": first_k2,
                       "excluded_corner": None}},
        {"interval_first": first_k3,
         "rectangle": {"shape": "first_fixed", "first": first_k3,
                       "excluded_corner": ["1", "1"]}},
    ]
    got = [{key: case_json(case)[key] for key in ("interval_first",
                                                   "rectangle")}
           for case in case_variants(germs["g8"])]
    assert got == want


def test_alpha_undefined_when_delta_equals_d():
    f = germ("z^2", "w^4 + z^2*w^2")
    case = classify(f)
    assert case.kind == CASE2
    assert case.d == 2 and case.delta == 2
    assert case.alpha is None
    assert weight_intervals(case).i_f == Interval(
        Fraction(1), INF, upper_closed=False)


def test_exhaustive_primary_kind(germs):
    for f in germs.values():
        case = classify(f)
        assert case.kind in case.applicable
        assert case.applicable


points = st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(
    lambda pt: pt != (0, 0))
supports = st.sets(points, min_size=1, max_size=7)


@st.composite
def chains(draw):
    """Supports around a convex chain whose edges have run 1, so every
    intercept is an int and delta = T_k can select two Case-4 vertices."""
    x, y = draw(st.integers(0, 2)), 0
    rises = sorted(draw(st.sets(st.integers(1, 5), min_size=1, max_size=4)))
    chain = [(x + len(rises), 0)]
    for rise in rises:
        y += rise
        chain.append((x + len(rises) - len(chain), y))
    return set(chain) | draw(st.sets(points, max_size=3))


def _check_readings(q_support, delta):
    q = SparsePoly2(dict.fromkeys(q_support, 1))
    f = SkewGerm(SparsePoly2({(delta, 0): 1}), q)
    expected = case_readings(newton_polygon(q), delta)
    variants = case_variants(f)
    assert [(c.kind, c.k) for c in variants] == expected
    kinds = tuple(kind for kind in (CASE1, CASE2, CASE3, CASE4)
                  if any(kind == seen for seen, _ in expected))
    assert all(c.applicable == kinds for c in variants)
    assert classify(f) == variants[0]


@given(supports, st.integers(1, 9))
@settings(max_examples=300, deadline=None)
def test_case_readings_match_the_definitions(q_support, delta):
    """Every reading case_variants gives, and applicable, against the
    definitions of Cases 1-4, over random supports and orders of p."""
    _check_readings(q_support, delta)


@given(st.one_of(supports, chains()), st.data())
@settings(max_examples=300, deadline=None)
def test_case_readings_at_integer_intercepts(q_support, data):
    """The same with delta pinned to an integer intercept where the
    polygon has one, so the boundaries T_k = delta are hit."""
    pins = sorted(int(t) for t in newton_polygon(
        SparsePoly2(dict.fromkeys(q_support, 1))).intercepts
        if t.denominator == 1 and t >= 1)
    delta = data.draw(st.sampled_from(pins) if pins else st.integers(1, 9))
    _check_readings(q_support, delta)


def test_primary_case_is_first_variant(germs):
    """classify's priority is the order of case_variants' readings."""
    campaign = itertools.islice(generate_germs(CRITERION_5), 200)
    for f in itertools.chain(germs.values(), campaign):
        assert classify(f) == case_variants(f)[0]


def r_n(case, l, n):
    """R^n(l) = (gamma_n + l d^n) / delta^n off the reading's growth
    table, whose n = 0 entries are the identity."""
    growth = case.growth(max(n, 1))
    l = Fraction(l)
    return Fraction(*r_map_pair(growth.gamma[n], growth.d_pow[n],
                                growth.delta_pow[n], l.numerator,
                                l.denominator))


def r_step(case, l):
    """One step R(l) = (gamma + l d) / delta."""
    l = Fraction(l)
    return Fraction(*r_map_pair(case.gamma, case.d, case.delta,
                                l.numerator, l.denominator))


def test_r_map_examples(germs):
    case = classify(germs["g2"])
    assert r_step(case, 2) == Fraction(5, 2)
    assert r_n(case, 2, 1) == Fraction(5, 2)
    assert r_n(case, 2, 2) == Fraction(11, 4)
    assert r_n(case, 2, 0) == 2
    # alpha is the fixed point
    for n in range(8):
        assert r_n(case, case.alpha, n) == case.alpha


def test_r_map_closed_form_vs_iteration(germs):
    rng = random.Random(7)
    for name in ("g2", "g3", "g4"):
        case = classify(germs[name])
        for _ in range(50):
            l = Fraction(rng.randint(1, 40), rng.randint(1, 40))
            value = l
            for n in range(11):
                assert r_n(case, l, n) == value
                value = r_step(case, value)


def test_r_map_semigroup(germs):
    case = classify(germs["g4"])
    for l in (Fraction(1, 2), Fraction(7, 5), Fraction(2)):
        for a in range(4):
            for b in range(4):
                assert r_n(case, l, a + b) == r_n(case, r_n(case, l, b), a)


def _random_ls(rng, count):
    return [Fraction(rng.randint(1, 60), rng.randint(1, 20))
            for _ in range(count)]


def test_interval_closed_form_matches_system(germs):
    rng = random.Random(20260809)
    for name in ("g1", "g2", "g3", "g5"):
        f = germs[name]
        for case in case_variants(f):
            if case.kind == CASE4:
                continue
            iv = weight_intervals(case).i_f
            anchors = [case.l1, case.alpha,
                       None if case.l2 is INF else case.l2]
            probes = _random_ls(rng, 200) + [a for a in anchors if a]
            for l in probes:
                assert iv.contains(l) == system_membership(f, case, l), \
                    (name, case.kind, l)


def test_case4_intervals_match_systems(germs):
    rng = random.Random(97)
    for name in ("g4", "g6", "g7", "g8"):
        f = germs[name]
        for case in case_variants(f):
            ivs = weight_intervals(case)
            anchors = [case.l1, case.alpha, case.l1_plus_l2]
            probes = _random_ls(rng, 200) + anchors
            for l in probes:
                assert ivs.i_f.first.contains(l) == \
                    system_membership_case4_first(case, l), (name, l)
                assert ivs.i_f_ar.contains(l) == \
                    system_membership_case4_ar(case, l), (name, l)
            for _ in range(200):
                x = rng.choice(probes)
                y = rng.choice(probes)
                assert rect_contains(ivs.i_f, x, y) == \
                    system_membership_case4_pair(f, case, x, y), (name, x, y)


def test_interval_extremes(germs):
    # min of the main interval is l1 (Case 2), max is l2 (Case 3), and
    # for Case 4 the first interval starts at l1 while the pair sums
    # reach exactly l1 + l2
    c2 = classify(germs["g2"])
    assert weight_intervals(c2).i_f.lower == c2.l1
    c3 = classify(germs["g3"])
    assert weight_intervals(c3).i_f.upper == c3.l2
    for name in ("g4", "g6", "g7"):
        c4 = classify(germs[name])
        ivs = weight_intervals(c4)
        assert ivs.i_f.first.lower == c4.l1 and ivs.i_f.first.lower_closed
        top = c4.l1_plus_l2
        rect = ivs.i_f
        sums = []
        for x in ivs.i_f.first.sample_points():
            second = second_of(rect, x)
            if second.upper_closed:
                sums.append(x + second.upper)
        assert max(sums) == top
        assert ivs.i_f_ar == Interval(c4.l1, top)
