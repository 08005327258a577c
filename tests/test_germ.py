import pytest

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
)
from skewprod.germ import iterates, vertex_step
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


def _reach(f, n, limits, reads=None):
    """(the germs iterates yields, the message of a cap that trips or
    None)."""
    out = []
    try:
        for _, fn in iterates(f, n, limits, reads):
            out.append(fn)
    except ResourceCapError as exc:
        return out, str(exc)
    return out, None


@pytest.mark.parametrize("limits", (
    [ResourceLimits(max_total_degree=d) for d in range(1, 15)]
    + [ResourceLimits(max_terms=t) for t in range(1, 8)]))
def test_truncated_step_trips_caps_where_the_full_step_does(limits):
    # Q^2 = w^4 + 2 z w^2 + 2 z^2 has a term on its polygon's edge, so
    # Q^2 and Q^3 hold fewer terms of lower degree as vertex steps than
    # in full; the caps must trip, or not, as in the full steps.
    f = germ("z^2", "w^2 + z")
    full, full_error = _reach(f, 3, limits)
    cut, cut_error = _reach(f, 3, limits, lambda n: ())
    assert cut_error == full_error
    assert len(cut) == len(full)
    for a, b in zip(cut, full):
        assert a.p == b.p
        assert a.q.items() <= b.q.items()


def test_truncated_step_drops_only_interior_terms():
    f = germ("z^2", "w^2 + z")
    fn = germ("z^4", "w + z*w^5")
    full = compose_germ(f, fn)
    cut = vertex_step(f, fn, ())
    # Q = w^2 + 2 z w^6 + z^2 w^10 + z^4, whose polygon is the edge
    # from (0, 2) to (4, 0); only z w^6 and z^2 w^10 lie inside it.
    assert full.q == parse_poly("w^2 + 2*z*w^6 + z^2*w^10 + z^4")
    assert cut.q == parse_poly("w^2 + z^4")
    assert cut.p == full.p
    # The sums read only the vertex terms of fn.q.
    assert vertex_step(f, germ("z^4", "w"), ()) == cut
    # A read point inside the polygon leaves the step to the full one.
    assert vertex_step(f, fn, [(1, 6)]) is None
    assert vertex_step(f, fn, [(0, 2), (4, 0), (2, 0), (0, 1)]) == cut


def test_vertex_step_leaves_mixed_types_to_the_full_step():
    # At z^2 the terms of q give 1/2 (from w^2), -1/2 (from z*w) and the
    # int 1 (from z^2).  Horner cancels the first two before it adds
    # z^2, so the full step's coefficient is the int 1, where the sum
    # would be Fraction(1).
    f = germ("z", "1/2*w^2 - 1/2*z*w + z^2")
    fn = germ("z", "w + z")
    full = compose_germ(f, fn)
    assert repr(full.q.coeff(2, 0)) == "1"
    assert vertex_step(f, fn, ()) is None
