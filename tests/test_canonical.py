"""Every polynomial the package computes holds canonical coefficients:
an int when the value is integral, a Fraction with denominator > 1
otherwise (exact.as_coeff).  The operands of products, substitute and
vertex_step here are built with SparsePoly2._raw, so they may hold
integral Fractions, which no computed polynomial may.  Sums take
canonical operands (SparsePoly2._raw's contract), so theirs are built
with SparsePoly2(...)."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from skewprod import SkewGerm, SparsePoly2
from skewprod import germ as germ_module
from skewprod._kernels import mul_dict, mul_kronecker, mul_terms
from skewprod.germ import vertex_step
from skewprod.poly import poly_pow, poly_sum

from reference import on_numerators


def assert_canonical(terms):
    for key, c in terms.items():
        assert type(c) is int or (
            type(c) is Fraction and c.denominator > 1), (key, c)


# ints, integral Fractions and Fractions over 2, so sums and products
# of Fractions come out integral often.
ints = st.sampled_from((-2, -1, 1, 2))
coeffs = st.one_of(ints, ints.map(Fraction),
                   st.builds(Fraction, st.sampled_from((-3, -1, 1, 3)),
                             st.just(2)))
terms = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                        coeffs, min_size=1, max_size=10)


def raw(t):
    return SparsePoly2._raw(dict(t))


@given(terms, terms, coeffs)
@settings(max_examples=300, deadline=None)
def test_arithmetic_is_canonical(a, b, c):
    for out in (mul_terms(a, b), mul_terms(a, a)):
        assert_canonical(out)
    for path in (mul_dict, mul_kronecker):
        assert_canonical(on_numerators(path, a, b))
        assert_canonical(on_numerators(path, a, a))
    x, y = raw(a), raw(b)
    for out in (x * c, c * x, x * y, -x):
        assert_canonical(out._terms)
    s, t = SparsePoly2(a), SparsePoly2(b)
    for out in (s + t, s - t, poly_sum([s, t, s]), poly_sum([s])):
        assert_canonical(out._terms)
    # poly_pow(x, 1) is x itself, no arithmetic result.
    for k in (0, 2, 3):
        assert_canonical(poly_pow(x, k)._terms)


# P = a z^m w^k, one term, so both schedules run.
monomials = st.builds(lambda c, m, k: {(m, k): c}, coeffs,
                      st.integers(1, 2), st.integers(0, 1))


@given(terms, monomials, st.one_of(st.just({}), terms))
@settings(max_examples=200, deadline=None)
def test_both_substitute_schedules_are_canonical(q, P, W):
    by_j = germ_module._layers(raw(q))
    P, W = raw(P), raw(W)
    for schedule in (germ_module._substitute_power_table,
                     germ_module._substitute_horner):
        assert_canonical(schedule(by_j, P, W, None)._terms)


# Germs: p depends on z only and both fix the origin.
p_terms = st.dictionaries(st.tuples(st.integers(1, 3), st.just(0)),
                          coeffs, min_size=1, max_size=3)
q_terms = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any),
    coeffs, min_size=1, max_size=10)


@given(p_terms, q_terms, p_terms, q_terms)
@settings(max_examples=300, deadline=None)
def test_vertex_step_is_canonical(fp, fq, gp, gq):
    f = SkewGerm(raw(fp), raw(fq))
    fn = SkewGerm(raw(gp), raw(gq))
    step = vertex_step(f, fn, ())
    if step is not None:
        assert_canonical(step.p._terms)
        assert_canonical(step.q._terms)
