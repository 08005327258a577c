"""The integer-scaled case checks against their Fraction definitions.

Interval membership, the R-map, the raw inequality systems and
predict's weight claims read l = a/b as the int pair (a, b).  Each test
writes out the plain Fraction expression as a reference and compares
results by repr, so an int where a Fraction belongs (2 against
Fraction(2)) is a difference.
"""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewprod import INF, Interval, SkewGerm, SparsePoly2, case_variants
from skewprod.classify import (
    CASE1,
    CASE2,
    CASE3,
    equality_interval,
    r_map,
    r_step,
    system_membership,
    system_membership_case4_ar,
    system_membership_case4_first,
    system_membership_case4_pair,
    system_membership_case4_second,
)
from skewprod.exact import is_inf
from skewprod.growth import gamma_n
from skewprod.predict import PredictionRangeError, predict, predict_weight
from conftest import FIXTURES, germ

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
    """n = -1 must raise as the reference does."""
    case = replace(case_variants(f)[0], gamma=gamma, d=d, delta=delta)
    assert outcome(r_step, case, l) == outcome(ref_r_step, case, l)
    assert outcome(r_map, case, l, n) == outcome(ref_r_map, case, l, n)


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
            assert repr(predict_weight(f, case, n, l)) == repr((want, True))
        for l in extra:
            if l in inside:
                continue
            expected = outcome(ref_weight, case, n, l)
            assert expected.startswith("PredictionRangeError")
            assert outcome(predict_weight, f, case, n, l) == expected
            with pytest.raises(PredictionRangeError) as err:
                predict(f, case, n, ls=[l])
            assert f"PredictionRangeError: {err.value}" == expected
