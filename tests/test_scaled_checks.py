"""The integer-scaled case checks against their Fraction definitions.

Interval membership, the R-map, the raw inequality systems, verify's
R-map, slope and probe checks and predict's weight claims read l = a/b
as the int pair (a, b).  Each test writes out the plain Fraction
expression as a reference and compares results by repr, so an int where
a Fraction belongs (2 against Fraction(2)) is a difference.
"""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewprod import (
    INF,
    Interval,
    SkewGerm,
    SparsePoly2,
    case_variants,
    weight_intervals,
)
from skewprod.classify import (
    CASE1,
    CASE2,
    CASE3,
    CASE4,
    equality_interval,
    r_map_pair,
)
from skewprod.exact import format_exact, is_inf
from skewprod.fuzz import generate_germs
from skewprod.growth import GrowthTable, gamma_n
from skewprod.predict import PredictionRangeError, predict
from skewprod.verify import (
    CheckResult,
    _probe_values,
    _r_map_checks,
    _slope_lemma_check,
    predictions,
    weight_samples,
)
from conftest import CRITERION_5, FIXTURES, germ
from reference import (
    rect_contains,
    second_of,
    system_membership,
    system_membership_case4_ar,
    system_membership_case4_first,
    system_membership_case4_pair,
    system_membership_case4_second,
)

BIG = 10**12
# Rationals of either sign with numerators and denominators up to 10**12,
# and ints, which every function also takes.
rationals = st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))
small_rationals = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
weights = st.one_of(rationals, small_rationals, st.integers(-5, 5))


@st.composite
def germs(draw):
    """A random skew germ p = a z^delta, q with a few small terms."""
    delta = draw(st.integers(1, 4))
    a = draw(st.sampled_from((1, -2, 3)))
    exps = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 4)),
                         min_size=1, max_size=6, unique=True)
                .filter(lambda es: any(e != (0, 0) for e in es)))
    q = {e: draw(st.sampled_from((1, -1, 2, -3))) for e in exps if e != (0, 0)}
    return SkewGerm(SparsePoly2({(delta, 0): a}), SparsePoly2(q))


FIXTURE_GERMS = [germ(p, q) for p, q in FIXTURES.values()]
fixture_or_random = st.one_of(st.sampled_from(FIXTURE_GERMS), germs())


def outcome(fn, *args):
    """repr of the result, or the type and text of the exception."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return f"{type(exc).__name__}: {exc}"


# -- the Fraction references ----------------------------------------------


def ref_contains(iv, l):
    l = Fraction(l)
    if iv.lower_closed:
        if l < iv.lower:
            return False
    elif l <= iv.lower:
        return False
    if is_inf(iv.upper):
        return True
    if iv.upper_closed:
        return l <= iv.upper
    return l < iv.upper


def ref_r_step(case, l):
    return Fraction(Fraction(case.gamma) + Fraction(l) * case.d, case.delta)


def ref_r_map(case, l, n):
    if n < 0:
        raise ValueError("n must be non-negative")
    l = Fraction(l)
    if n == 0:
        return l
    g_n = gamma_n(case.delta, case.gamma, case.d, n)
    return Fraction(g_n + l * case.d**n, case.delta**n)


def ref_system(f, case, l):
    l = Fraction(l)
    if l <= 0:
        return False
    gamma, d, delta = case.gamma, case.d, case.delta
    level = gamma + l * d
    if case.kind == CASE1:
        return True
    if case.kind == CASE2:
        if l * delta > level:
            return False
        return all(level <= i + l * j for i, j in f.q.support())
    if case.kind == CASE3:
        if level > l * delta:
            return False
        return all(level <= i + l * j for i, j in f.q.support())
    raise ValueError("Case 4 uses the staged systems")


def ref_first(case, l):
    l = Fraction(l)
    if l <= 0:
        return False
    level = case.gamma + l * case.d
    for idx, (n, m) in enumerate(case.polygon.vertices, start=1):
        if idx <= case.k - 1 and level > n + l * m:
            return False
        if idx >= case.k + 1 and level >= n + l * m:
            return False
    return l * case.delta <= level


def ref_second(f, case, l_first, l_second):
    l_first, l_second = Fraction(l_first), Fraction(l_second)
    if l_second <= 0:
        return False
    gamma, d, delta = case.gamma, case.d, case.delta
    level = gamma + l_first * d - l_first * delta + l_second * d
    if level > l_second * delta:
        return False
    for i, j in f.q.support():
        if level > i + l_first * j - l_first * delta + l_second * j:
            return False
    return True


def ref_ar(case, l):
    l = Fraction(l)
    if l <= 0:
        return False
    level = case.gamma + l * case.d
    return all(level <= n + l * m
               for idx, (n, m) in enumerate(case.polygon.vertices, start=1)
               if idx != case.k)


def ref_pair(f, case, l_first, l_sum):
    if not ref_first(case, l_first):
        return False
    return ref_second(f, case, l_first, Fraction(l_sum) - Fraction(l_first))


def ref_weight(case, n, l):
    l = Fraction(l)
    if not ref_contains(equality_interval(case), l):
        raise PredictionRangeError(
            f"l = {l} is outside the equality range for {case.kind}")
    return gamma_n(case.delta, case.gamma, case.d, n) + l * case.d**n


# -- membership -------------------------------------------------------------


ends = st.one_of(rationals, small_rationals)


@given(ends, st.one_of(ends, st.just(INF)), st.booleans(), st.booleans(),
       weights)
@settings(max_examples=400, deadline=None)
def test_interval_contains(lower, upper, lower_closed, upper_closed, l):
    iv = Interval(lower, upper, lower_closed=lower_closed,
                  upper_closed=upper_closed)
    assert repr(iv.contains(l)) == repr(ref_contains(iv, l))
    # Ends on the probe itself: the open or closed side decides.
    at = Interval(Fraction(l), upper, lower_closed, upper_closed)
    assert repr(at.contains(l)) == repr(ref_contains(at, l))


def test_interval_contains_ends():
    for lower_closed in (False, True):
        for upper_closed in (False, True):
            iv = Interval(Fraction(1, 3), Fraction(5, 2), lower_closed,
                          upper_closed)
            assert iv.contains(Fraction(1, 3)) is lower_closed
            assert iv.contains(Fraction(5, 2)) is upper_closed
            assert iv.contains(1) and iv.contains("2")
            assert not iv.contains(0) and not iv.contains(3)
    unbounded = Interval(Fraction(0), INF, lower_closed=False,
                         upper_closed=False)
    assert unbounded.contains(BIG**2) and not unbounded.contains(0)


# -- the R-map --------------------------------------------------------------


@given(st.sampled_from(FIXTURE_GERMS), st.integers(0, 6), st.integers(0, 6),
       st.integers(1, 6), weights, st.integers(-1, 12))
@settings(max_examples=300, deadline=None)
def test_r_step_and_r_map(f, gamma, d, delta, l, n):
    """r_map_pair at (gamma, d, delta) and off the growth table, whose
    n = 0 entries are the identity; a table for n = -1 raises, as the
    reference does."""
    case = replace(case_variants(f)[0], gamma=gamma, d=d, delta=delta)
    a, b = Fraction(l).numerator, Fraction(l).denominator
    step = Fraction(*r_map_pair(gamma, d, delta, a, b))
    assert repr(step) == outcome(ref_r_step, case, l)
    if n < 0:
        with pytest.raises(ValueError):
            ref_r_map(case, l, n)
        with pytest.raises(ValueError):
            GrowthTable.build(delta, gamma, d, n)
        return
    growth = case.growth(max(n, 1))
    r_n = Fraction(*r_map_pair(growth.gamma[n], growth.d_pow[n],
                               growth.delta_pow[n], a, b))
    assert repr(r_n) == outcome(ref_r_map, case, l, n)


# -- the raw systems --------------------------------------------------------


@given(fixture_or_random, weights, weights)
@settings(max_examples=300, deadline=None)
def test_systems(f, x, y):
    for case in case_variants(f):
        assert (outcome(system_membership, f, case, x)
                == outcome(ref_system, f, case, x))
        assert (outcome(system_membership_case4_first, case, x)
                == outcome(ref_first, case, x))
        assert (outcome(system_membership_case4_ar, case, x)
                == outcome(ref_ar, case, x))
        assert (outcome(system_membership_case4_second, f, case, x, y)
                == outcome(ref_second, f, case, x, y))
        assert (outcome(system_membership_case4_pair, f, case, x, y)
                == outcome(ref_pair, f, case, x, y))


@given(fixture_or_random, st.data())
@settings(max_examples=150, deadline=None)
def test_systems_near_the_interval_ends(f, data):
    """Probes at and next to each end, where the inequalities are tight."""
    for case in case_variants(f):
        iv = equality_interval(case)
        anchors = [iv.lower] + ([] if is_inf(iv.upper) else [iv.upper])
        if case.alpha is not None:
            anchors.append(case.alpha)
        for a in anchors:
            eps = Fraction(1, data.draw(st.integers(1, BIG)))
            for x in (a - eps, a, a + eps):
                assert (outcome(system_membership, f, case, x)
                        == outcome(ref_system, f, case, x))
                assert (outcome(system_membership_case4_pair, f, case, x, a)
                        == outcome(ref_pair, f, case, x, a))


# -- the Case-4 rectangle -----------------------------------------------------


def ref_rect_contains(rect, x, y):
    """Membership of (l_(1), l_(1) + l_(2)) through second_of."""
    x, y = Fraction(x), Fraction(y)
    if not ref_contains(rect.first, x):
        return False
    return ref_contains(second_of(rect, x), y - x)


# g4, g6 and g7 give the interior shape, g8 the other two.
RECTANGLES = [weight_intervals(case).i_f for f in FIXTURE_GERMS
              for case in case_variants(f) if case.kind == CASE4]


def rect_points(rect):
    """The rectangle's ends and alpha, and points next to each."""
    ends = {rect.l1, rect.alpha, rect.l1 + rect.l2,
            rect.l1 + rect.l2 - rect.alpha}
    return sorted({a + e for a in ends
                   for e in (Fraction(-1, 7), Fraction(0), Fraction(1, 7))})


def assert_rect_agrees(rect, x, y, k):
    want = outcome(ref_rect_contains, rect, x, y)
    assert outcome(rect_contains, rect, x, y) == want
    x, y = Fraction(x), Fraction(y)
    # The pair form takes fractions not in lowest terms.
    assert outcome(rect.contains_pair, x.numerator * k, x.denominator * k,
                   y.numerator * k, y.denominator * k) == want


@given(st.sampled_from(RECTANGLES), weights, weights, st.integers(1, 6))
@settings(max_examples=300, deadline=None)
def test_rectangle_contains_pair(rect, x, y, k):
    assert_rect_agrees(rect, x, y, k)


def test_rectangle_contains_pair_at_its_ends():
    assert {rect.shape for rect in RECTANGLES} == {
        "interior", "first_fixed", "second_fixed"}
    for rect in RECTANGLES:
        points = rect_points(rect)
        for x in points:
            for y in points:
                assert_rect_agrees(rect, x, y, 3)


# -- predict's weight claims ------------------------------------------------


@given(fixture_or_random, st.integers(1, 4), st.lists(weights, max_size=4))
@settings(max_examples=150, deadline=None)
def test_predict_weight_claims(f, n, extra):
    for case in case_variants(f):
        iv = equality_interval(case)
        inside = [l for l in extra if ref_contains(iv, l)]
        ls = iv.sample_points() + inside
        pred = predict(f, case, n, ls=ls)
        assert len(pred.weight_claims) == len(ls)
        for claim, l in zip(pred.weight_claims, ls):
            want = ref_weight(case, n, l)
            assert repr(claim.l) == repr(Fraction(l))
            assert repr(claim.value) == repr(want)
            assert claim.exact is True
        for l in extra:
            if l in inside:
                continue
            expected = outcome(ref_weight, case, n, l)
            assert expected.startswith("PredictionRangeError")
            with pytest.raises(PredictionRangeError) as err:
                predict(f, case, n, ls=[l])
            assert f"PredictionRangeError: {err.value}" == expected


# -- verify's R-map, slope and probe checks ----------------------------------


def ref_r_map_checks(case, ls, n_top):
    """The R-map checks written out on Fractions."""
    out = []
    if case.kind == CASE1:
        return out
    interval = equality_interval(case)
    alpha = case.alpha
    for l in ls[:3]:
        label = f"l = {format_exact(l)}"
        seq = [l]
        for _ in range(n_top):
            seq.append(ref_r_step(case, seq[-1]))
        out.append(CheckResult(
            "r-map-closed-form",
            all(ref_r_map(case, l, n) == seq[n] for n in range(n_top + 1)),
            None, label))
        out.append(CheckResult("r-map-stays-in-interval",
                               all(ref_contains(interval, v) for v in seq),
                               None, label))
        steps = list(zip(seq, seq[1:]))
        if case.kind == CASE2:
            mono = all(x <= y for x, y in steps)
        elif case.kind == CASE3:
            mono = all(x >= y for x, y in steps)
        elif alpha is None or l == alpha:
            mono = all(v == l for v in seq)
        elif l < alpha:
            mono = all(x <= y <= alpha for x, y in steps)
        else:
            mono = all(x >= y >= alpha for x, y in steps)
        out.append(CheckResult("r-map-monotone", mono, None, label))
        out.append(CheckResult("r-map-semigroup", all(
            ref_r_map(case, l, a + b) == ref_r_map(case, ref_r_map(case, l, b), a)
            for a, b in ((1, 1), (1, 2), (2, 3))), None, label))
    return out


def ref_slope_check(case, n_top):
    if case.gamma <= 0:
        return []
    slopes = {Fraction(case.d**n - case.delta**n,
                       gamma_n(case.delta, case.gamma, case.d, n))
              for n in range(1, n_top + 1)}
    return [CheckResult("iterate-anchor-slope-constant", len(slopes) == 1,
                        None, f"slopes {sorted(map(format_exact, slopes))}")]


def ref_probes(*anchors):
    vals = {Fraction(1, 3), Fraction(1), Fraction(3)}
    for a in anchors:
        if not isinstance(a, (int, Fraction)):
            continue
        for offset in (Fraction(0), Fraction(1, 7), Fraction(1, 2),
                       Fraction(1)):
            for v in (Fraction(a) - offset, Fraction(a) + offset):
                if v > 0:
                    vals.add(v)
    return sorted(vals)


def checks_of(fn, *args, **kwargs):
    out = []
    fn(*args, out.append, **kwargs)
    return repr(out)


@given(fixture_or_random, st.lists(rationals | small_rationals, min_size=1,
                                   max_size=3),
       st.integers(1, 12))
@settings(max_examples=300, deadline=None)
def test_r_map_checks(f, ls, n_top):
    """Weights up to 10**12, inside the interval or not, and n up to 12,
    for every kind's monotonicity rule."""
    for case in case_variants(f):
        growth = GrowthTable.build(case.delta, case.gamma, case.d,
                                   max(n_top, 5))
        assert (checks_of(_r_map_checks, case, ls, growth, n_top=n_top)
                == repr(ref_r_map_checks(case, ls, n_top)))


def test_r_map_checks_on_fixtures():
    """The checks verify runs, on each reading's own sampled weights."""
    for f in FIXTURE_GERMS:
        for case in case_variants(f):
            ls, _ = weight_samples(case)
            growth = GrowthTable.build(case.delta, case.gamma, case.d, 10)
            assert (checks_of(_r_map_checks, case, ls, growth)
                    == repr(ref_r_map_checks(case, ls, 10)))
            assert (checks_of(_slope_lemma_check, case, growth)
                    == repr(ref_slope_check(case, 6)))


@given(st.integers(0, BIG), st.integers(0, 6), st.integers(1, 6),
       st.integers(1, 12))
@settings(max_examples=300, deadline=None)
def test_slope_check(gamma, d, delta, n_top):
    """A constant slope, and one that is not (delta = d, gamma > 0)."""
    case = replace(case_variants(FIXTURE_GERMS[1])[0], gamma=gamma, d=d,
                   delta=delta)
    growth = GrowthTable.build(delta, gamma, d, n_top)
    assert (checks_of(_slope_lemma_check, case, growth, n_top=n_top)
            == repr(ref_slope_check(case, n_top)))


anchors = st.one_of(rationals, small_rationals, st.integers(-5, 5),
                    st.just(INF), st.none())


@given(st.lists(anchors, max_size=3))
@settings(max_examples=400, deadline=None)
def test_probe_values(xs):
    want = ref_probes(*xs)
    got = _probe_values(*xs)
    assert repr(got) == repr([(v.numerator, v.denominator) for v in want])


# -- predictions against predict ---------------------------------------------


def assert_predictions_match(f, n_max):
    for case in case_variants(f):
        ls, _ = weight_samples(case)
        preds, _, error = predictions(f, case, n_max, ls)
        assert error is None
        # Each reference reads a fresh copy of the reading, so it builds
        # its own growth table up to its n.
        want = [predict(f, replace(case), n, ls=ls)
                for n in range(1, n_max + 1)]
        assert preds == want
        assert repr(preds) == repr(want)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_predictions_equal_predict_fixtures(name):
    assert_predictions_match(germ(*FIXTURES[name]), 4)


def test_predictions_equal_predict_campaign():
    """The first 200 germs of the criterion-5 campaign: Case 3, Case 4,
    boundary and vanishing readings the fixtures lack."""
    for i, f in enumerate(generate_germs(CRITERION_5)):
        if i == 200:
            break
        assert_predictions_match(f, CRITERION_5.n_max)
