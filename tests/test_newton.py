from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewprod import (
    NewtonPolygon,
    SparsePoly2,
    a1_transform,
    a2_transform,
    newton_polygon,
    parse_poly,
    transform_lattice,
    weight,
)
from skewprod.newton import support_on_edge


def P(src):
    return parse_poly(src)


def test_polygon_two_vertices():
    np_ = newton_polygon(P("z^3*w + z*w^2"))
    assert np_.vertices == ((1, 2), (3, 1))
    assert np_.intercepts == (Fraction(5, 2),)


def test_polygon_single_point():
    np_ = newton_polygon(P("z*w^2"))
    assert np_.vertices == ((1, 2),)
    assert np_.intercepts == ()


def test_polygon_three_vertices():
    np_ = newton_polygon(P("w^3 + z*w + z^3"))
    assert np_.vertices == ((0, 3), (1, 1), (3, 0))
    assert np_.intercepts == (Fraction(3), Fraction(3, 2))


def test_collinear_points_are_not_vertices():
    np_ = newton_polygon(P("w^2 + z*w + z^2"))
    assert np_.vertices == ((0, 2), (2, 0))
    assert np_.intercepts == (Fraction(2),)


def test_dominated_points_are_interior():
    np_ = newton_polygon(P("z*w + z^3*w^2 + z*w^4"))
    assert np_.vertices == ((1, 1),)


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        newton_polygon(SparsePoly2.zero())


def test_weight_examples():
    q = P("z^3*w + z*w^2")
    assert weight(q, 2) == 5
    assert weight(q, 1) == 3
    assert weight(P("z^4"), Fraction(7, 3)) == 4
    with pytest.raises(ValueError):
        weight(q, 0)
    with pytest.raises(ValueError):
        weight(q, Fraction(-3, 2))
    with pytest.raises(ValueError):
        weight(SparsePoly2.zero(), 1)


def test_a1_transform():
    assert a1_transform((3, 1), 2, 2) == (1, 1)
    # first coordinate of the dominant image vanishes at l = alpha
    assert a1_transform((3, 1), 3, 2) == (0, 1)
    assert transform_lattice((3, 1), "A1", l1=2, delta=2) == (1, 1)


def test_a2_transform():
    assert a2_transform((1, 1), 1) == (1, 2)
    assert transform_lattice((1, 1), "A2", l2_inv=1) == (1, 2)
    assert a2_transform((3, 0), Fraction(2, 3)) == (3, 2)


def test_transform_rational_output():
    got = a1_transform((1, 1), Fraction(1, 2), 3)
    assert got == (Fraction(0), 1)


def test_polygon_from_rational_points():
    pts = [(Fraction(1, 2), 2), (Fraction(3, 2), 1), (Fraction(5, 2), 1)]
    np_ = NewtonPolygon.from_points(pts)
    assert np_.vertices == ((Fraction(1, 2), 2), (Fraction(3, 2), 1))


polys = st.dictionaries(
    st.tuples(st.integers(0, 8), st.integers(0, 8)),
    st.integers(-5, 5).filter(bool),
    min_size=1,
    max_size=8,
).map(SparsePoly2)

positive_ls = st.builds(Fraction, st.integers(1, 12), st.integers(1, 12))


@given(polys, positive_ls)
@settings(max_examples=150, deadline=None)
def test_weight_equals_vertex_minimum(p, l):
    if p.is_zero:
        return
    assert weight(p, l) == newton_polygon(p).min_weight(l)


def _weight_reference(poly, l):
    l = Fraction(l)
    return min(i + l * j for i, j in poly.support())


def _edge_reference(poly, vertex, l):
    l = Fraction(l)
    level = vertex[0] + l * vertex[1]
    return sorted(p for p in poly.support() if p[0] + l * p[1] == level)


big_exponent = st.integers(0, 10**6)
big_polys = st.dictionaries(
    st.tuples(big_exponent, big_exponent),
    st.integers(-5, 5).filter(bool),
    min_size=1,
    max_size=8,
).map(SparsePoly2)
big_positive_ls = st.builds(Fraction, st.integers(1, 10**12),
                            st.integers(1, 10**12))


@st.composite
def edge_polys(draw):
    """A polynomial with several support points on one line of slope -1/l.

    Steps of (a, -b) keep i + (a/b)*j fixed, so the chain lies on that
    line; extra points land anywhere.
    """
    a = draw(st.integers(1, 10**6))
    b = draw(st.integers(1, 10**6))
    k = draw(st.integers(1, 4))
    i0 = draw(big_exponent)
    j0 = b * k + draw(big_exponent)
    chain = {(i0 + a * t, j0 - b * t): 1 for t in range(k + 1)}
    extra = draw(st.dictionaries(st.tuples(big_exponent, big_exponent),
                                 st.integers(-5, 5).filter(bool), max_size=4))
    return SparsePoly2({**extra, **chain}), (i0, j0), Fraction(a, b)


@given(st.one_of(polys, big_polys), st.one_of(positive_ls, big_positive_ls))
@settings(max_examples=200, deadline=None)
def test_weight_matches_fraction_reference(p, l):
    assert repr(weight(p, l)) == repr(_weight_reference(p, l))
    assert repr(weight(p, str(l))) == repr(_weight_reference(p, l))


@given(st.one_of(polys, big_polys), st.one_of(positive_ls, big_positive_ls),
       st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_support_on_edge_matches_fraction_reference(p, l, negate, data):
    if negate:
        l = -l
    vertex = data.draw(st.sampled_from(sorted(p.support())))
    assert repr(support_on_edge(p, vertex, l)) == repr(
        _edge_reference(p, vertex, l))


@given(edge_polys())
@settings(max_examples=100, deadline=None)
def test_support_on_edge_finds_collinear_chain(case):
    p, vertex, l = case
    got = support_on_edge(p, vertex, l)
    assert repr(got) == repr(_edge_reference(p, vertex, l))
    assert len(got) >= 2
    assert repr(weight(p, l)) == repr(_weight_reference(p, l))


@given(polys)
@settings(max_examples=150, deadline=None)
def test_polygon_invariants(p):
    if p.is_zero:
        return
    np_ = newton_polygon(p)
    xs = [v[0] for v in np_.vertices]
    ys = [v[1] for v in np_.vertices]
    assert xs == sorted(xs) and len(set(xs)) == len(xs)
    assert ys == sorted(ys, reverse=True) and len(set(ys)) == len(ys)
    slopes = [np_.edge_slope(k) for k in range(1, np_.s)]
    assert all(s < 0 for s in slopes)
    assert all(a < b for a, b in zip(slopes, slopes[1:]))
    assert list(np_.intercepts) == sorted(np_.intercepts, reverse=True)
    assert len(set(np_.intercepts)) == len(np_.intercepts)
    # every vertex comes from the support, and every support point lies
    # on or above each edge line
    assert all(v in p.support() for v in np_.vertices)
    for k in range(1, np_.s):
        n_k, m_k = np_.vertex(k)
        slope = np_.edge_slope(k)
        for i, j in p.support():
            assert j - m_k >= slope * (i - n_k)
