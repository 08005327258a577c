from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewprod import (
    NewtonPolygon,
    SkewGerm,
    SparsePoly2,
    newton_polygon,
    parse_poly,
    substitute,
    weight,
)
from skewprod.germ import vertex_step
from skewprod.newton import (
    composed_polygon,
    hull_vertices,
    support_on_edge,
)
from reference import edge_slope, min_weight


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
    assert weight(p, l) == min_weight(newton_polygon(p), l)


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
    slopes = [edge_slope(np_, k) for k in range(1, np_.s)]
    assert all(s < 0 for s in slopes)
    assert all(a < b for a, b in zip(slopes, slopes[1:]))
    assert list(np_.intercepts) == sorted(np_.intercepts, reverse=True)
    assert len(set(np_.intercepts)) == len(np_.intercepts)
    # every vertex comes from the support, and every support point lies
    # on or above each edge line
    assert all(v in p.support() for v in np_.vertices)
    for k in range(1, np_.s):
        n_k, m_k = np_.vertex(k)
        slope = edge_slope(np_, k)
        for i, j in p.support():
            assert j - m_k >= slope * (i - n_k)


# The staircase: orders, polygon and weight read column_minima(), and must
# equal the same reads over the full support.

def _orders_reference(poly):
    support = poly.support()
    return (min(i + j for i, j in support), min(i for i, _ in support),
            min(j for _, j in support))


def _staircase_reference(poly):
    columns = {}
    for i, j in sorted(poly.support(), reverse=True):
        columns[i] = j
    return columns


line_exponent = st.integers(0, 40)
single_row = st.builds(
    lambda j, cs: SparsePoly2({(i, j): c for i, c in cs.items()}),
    line_exponent, st.dictionaries(line_exponent, st.integers(-5, 5).filter(bool),
                                   min_size=1, max_size=8))
single_column = st.builds(
    lambda i, cs: SparsePoly2({(i, j): c for j, c in cs.items()}),
    line_exponent, st.dictionaries(line_exponent, st.integers(-5, 5).filter(bool),
                                   min_size=1, max_size=8))
dense_polys = st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(0, 6)),
    st.integers(-5, 5).filter(bool), min_size=1, max_size=30).map(SparsePoly2)


@given(st.one_of(polys, big_polys, single_row, single_column, dense_polys),
       st.one_of(positive_ls, big_positive_ls))
@settings(max_examples=300, deadline=None)
def test_staircase_reads_equal_full_support_reads(p, l):
    if p.is_zero:
        return
    assert repr(sorted(p.column_minima().items())) == repr(
        sorted(_staircase_reference(p).items()))
    assert repr(p.orders()) == repr(_orders_reference(p))
    assert repr(newton_polygon(p)) == repr(NewtonPolygon.from_points(p.support()))
    assert repr(weight(p, l)) == repr(_weight_reference(p, l))


def test_staircase_of_a_line():
    row = P("z^2*w^3 + z^5*w^3 + 7*z^9*w^3")
    assert row.column_minima() == {2: 3, 5: 3, 9: 3}
    assert row.orders() == (5, 2, 3)
    assert newton_polygon(row).vertices == ((2, 3),)
    column = P("z^4*w + z^4*w^6 - z^4*w^2")
    assert column.column_minima() == {4: 1}
    assert column.orders() == (5, 4, 1)
    assert newton_polygon(column).vertices == ((4, 1),)
    assert weight(column, Fraction(1, 3)) == Fraction(13, 3)


def test_staircase_is_cached():
    p = P("z^3*w + z*w^2 + z^3*w^5")
    first = p.column_minima()
    assert first == {1: 2, 3: 1}
    assert p.column_minima() is first
    assert (p * p).column_minima() == {2: 4, 4: 3, 6: 2}


@given(st.one_of(polys, dense_polys))
@settings(max_examples=150, deadline=None)
def test_polygon_is_cached(p):
    """newton_polygon builds once per polynomial, and the cached polygon
    equals a fresh build; products and sums start with no polygon."""
    if p.is_zero:
        with pytest.raises(ValueError):
            newton_polygon(p)
        return
    first = newton_polygon(p)
    assert newton_polygon(p) is first
    assert repr(first) == repr(NewtonPolygon.of_poly(p))
    square = p * p
    assert repr(newton_polygon(square)) == repr(NewtonPolygon.of_poly(square))


coeffs = st.integers(-3, 3).filter(bool) | st.sampled_from(
    (Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)))
z_only = st.dictionaries(st.integers(1, 3), coeffs,
                         min_size=1, max_size=2).map(
    lambda t: SparsePoly2({(i, 0): c for i, c in t.items()}))
# No constant term, so q and W make germs with any z_only p.
small_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any),
    coeffs, min_size=1, max_size=4,
).map(SparsePoly2)


def _exact(terms) -> str:
    """Terms with their coefficient types: 2 and Fraction(2) differ."""
    return repr(sorted(terms))


@given(small_polys, z_only, small_polys)
@settings(max_examples=300, deadline=None)
def test_composed_polygon_holds_the_composite(q, P, W):
    """N(q(P, W)) lies in the predicted polygon.  Where vertex_step
    returns a germ, the two polygons are equal and its terms are those
    of q(P, W) at the vertices, types included, whether W holds all its
    terms or only those at its vertices."""
    predicted = composed_polygon(q, min(P.column_minima()), newton_polygon(W))
    full = substitute(q, P, W)
    if full:
        got = newton_polygon(full).vertices
        assert hull_vertices(got + predicted.vertices) == predicted.vertices
    f = SkewGerm(P, q)
    step = vertex_step(f, SkewGerm(P, W), ())
    if step is None:
        return
    assert newton_polygon(step.q) == newton_polygon(full)
    assert _exact(step.q.items()) == _exact(
        (v, full.coeff(*v)) for v in predicted.vertices)
    corners = SparsePoly2._raw(
        {v: W.coeff(*v) for v in newton_polygon(W).vertices})
    cut = vertex_step(f, SkewGerm(P, corners), ())
    assert _exact(cut.q.items()) == _exact(step.q.items())
