from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewprod import (
    GermFileError,
    InvalidGermError,
    ResourceCapError,
    ResourceLimits,
    SkewGerm,
    compose_germ,
    format_germ_file,
    iterate_germ,
    parse_germ_file,
    parse_poly,
    substitute,
)
from skewprod.germ import truncated_step
from skewprod.poly import SparsePoly2, Staircase
from conftest import germ


def test_validation():
    with pytest.raises(InvalidGermError):
        germ("z^2", "1 + w")  # constant term in q
    with pytest.raises(InvalidGermError):
        germ("1 + z", "w")  # p does not fix the origin
    with pytest.raises(InvalidGermError):
        SkewGerm(parse_poly("z + w"), parse_poly("w"))  # p depends on w
    with pytest.raises(InvalidGermError):
        SkewGerm(parse_poly("0"), parse_poly("w"))


def test_delta_and_lead_coeff():
    f = germ("3*z^4 + z^5", "w")
    assert f.delta == 4
    assert f.a_delta == 3


def test_iterate_monomial():
    f = germ("z^2", "z*w")
    f2 = iterate_germ(f, 2)
    assert format_germ_file(f2) == "p = z^4\nq = z^3*w\n"
    f3 = iterate_germ(f, 3)
    assert f3.q == parse_poly("z^7*w")


def test_iterate_example_expansion():
    f = germ("z^2", "z^3*w + z*w^2")
    f2 = iterate_germ(f, 2)
    assert f2.q == parse_poly("z^9*w + z^8*w^2 + z^7*w^2 + 2*z^6*w^3 + z^4*w^4")
    assert f2.q.orders() == (8, 4, 1)
    assert f2.p == parse_poly("z^4")


def test_iterate_identity_at_one():
    f = germ("z^2", "w^3 + z*w + z^3")
    assert iterate_germ(f, 1) == f


@pytest.mark.parametrize("name", ["g1", "g2", "g3", "g4", "g5"])
def test_iteration_semigroup(name, germs):
    f = germs[name]
    f1, f2, f3 = (iterate_germ(f, n) for n in (1, 2, 3))
    assert compose_germ(f1, f2) == f3
    assert compose_germ(f2, f1) == f3
    assert compose_germ(f2, f2) == iterate_germ(f, 4)


def test_p_iterate_order(germs):
    for f in germs.values():
        for n in (1, 2, 3):
            pn = iterate_germ(f, n).p
            assert min(i for i, _ in pn.support()) == f.delta**n


def test_iterate_respects_limits():
    f = germ("z^2", "z*w")
    with pytest.raises(ResourceCapError):
        iterate_germ(f, 25, ResourceLimits(max_total_degree=10**6))


def test_term_cap_bounds_horners_sum():
    # Every product has at most 3 terms; only the final sum W^2 + P,
    # with W = w + z*w^5 and P = z^4, has 4.
    f = germ("z^2", "w^2 + z")
    fn = germ("z^4", "w + z*w^5")
    with pytest.raises(ResourceCapError, match="term count 4 exceeds cap 3"):
        compose_germ(f, fn, ResourceLimits(max_terms=3))
    got = compose_germ(f, fn, ResourceLimits(max_terms=4))
    assert got.q == parse_poly("w^2 + z^4 + 2*z*w^6 + z^2*w^10")


def test_germ_file_round_trip():
    text = "# comment\nq = z^3*w + z*w^2\np = z^2\n"
    f = parse_germ_file(text)
    assert f == germ("z^2", "z^3*w + z*w^2")
    assert parse_germ_file(format_germ_file(f)) == f


def test_germ_file_errors():
    with pytest.raises(GermFileError):
        parse_germ_file("p = z^2\n")  # missing q
    with pytest.raises(GermFileError):
        parse_germ_file("p = z^2\np = z^3\nq = w")  # duplicate
    with pytest.raises(GermFileError):
        parse_germ_file("p = z^2\nq = v + w")  # bad variable
    with pytest.raises(GermFileError):
        parse_germ_file("p = w\nq = w")  # w not allowed in p
    with pytest.raises(GermFileError):
        parse_germ_file("r = z\nq = w")


def _outcome(step, *args):
    """(germ, None) of a step that returns, (None, message) of one that
    trips a cap."""
    try:
        return step(*args), None
    except ResourceCapError as exc:
        return None, str(exc)


@pytest.mark.parametrize("limits", (
    [ResourceLimits(max_total_degree=d) for d in range(1, 15)]
    + [ResourceLimits(max_terms=t) for t in range(1, 8)]))
def test_truncated_step_trips_caps_where_the_full_step_does(limits):
    # W's term z*w^5 lies inside the predicted polygon of q(P, W), so
    # the truncated products are smaller and of lower degree than the
    # full ones; the caps must trip, or not, as in the full step.
    f = germ("z^2", "w^2 + z")
    fn = germ("z^4", "w + z*w^5")
    full, full_error = _outcome(compose_germ, f, fn, limits)
    cut, cut_error = _outcome(truncated_step, f, fn, (), limits)
    assert cut_error == full_error
    if full is not None:
        assert cut.p == full.p
        assert set(cut.q.exponents()) <= set(full.q.exponents())


def test_truncated_step_drops_only_interior_terms():
    f = germ("z^2", "w^2 + z")
    fn = germ("z^4", "w + z*w^5")
    full = compose_germ(f, fn)
    cut = truncated_step(f, fn, ())
    # Q = w^2 + 2 z w^6 + z^2 w^10 + z^4, whose polygon is the edge
    # from (0, 2) to (4, 0); only z w^6 and z^2 w^10 lie inside it.
    assert full.q == parse_poly("w^2 + 2*z*w^6 + z^2*w^10 + z^4")
    assert cut.q == parse_poly("w^2 + z^4")
    # A read point inside the polygon sends the step to the full one.
    assert truncated_step(f, fn, [(1, 6)]).q == full.q


small_coeffs = st.sampled_from((1, -1, 2, -3, Fraction(1, 2)))
small_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), small_coeffs,
    min_size=1, max_size=5).map(SparsePoly2)
# One term takes the power table (where every coefficient is an int),
# more than one Horner.
z_polys = st.dictionaries(st.integers(1, 3), small_coeffs,
                          min_size=1, max_size=2).map(
    lambda t: SparsePoly2({(i, 0): c for i, c in t.items()}))
staircases = st.lists(st.integers(-1, 14), max_size=14).map(
    lambda caps: Staircase(tuple(sorted(caps, reverse=True))))


@given(small_polys, z_polys, small_polys | st.just(SparsePoly2.zero()),
       staircases)
@settings(max_examples=200, deadline=None)
def test_substitute_in_a_region_is_the_restricted_substitute(q, P, W, region):
    cut = substitute(q, P, W, region=region)
    want = substitute(q, P, W).restrict(region)
    assert repr(sorted(cut.items())) == repr(sorted(want.items()))


@pytest.mark.parametrize("P", ["z^2", "z^2 + z^3"])
def test_substitute_restricts_the_layer_without_w(P):
    # q(P, 0) = P^3 has degree 6 or more on row 0, past row 0's cap 5.
    q = parse_poly("w^3 + z*w + z^3")
    P, W = parse_poly(P), parse_poly("w + z")
    region = Staircase((5, 3, 1, 0))
    cut = substitute(q, P, W, region=region)
    assert all(key in region for key in cut.exponents())
    assert cut == substitute(q, P, W).restrict(region)
