from itertools import islice

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
from skewprod.fuzz import campaign_limits, generate_germs
from skewprod.germ import iterates, vertex_step
from skewprod.verify import verify_germ
from conftest import CRITERION_5, FIXTURES, germ


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


def test_vertex_step_takes_mixed_sums():
    # At z^2 the terms of q give 1/2 (from w^2), -1/2 (from z*w) and the
    # int 1 (from z^2).  Horner cancels the first two before it adds
    # z^2, and the vertex sum adds all three; both hold the value 1 as
    # the int 1.
    f = germ("z", "1/2*w^2 - 1/2*z*w + z^2")
    fn = germ("z", "w + z")
    full = compose_germ(f, fn)
    cut = vertex_step(f, fn, ())
    assert full.q == parse_poly("1/2*w^2 + 1/2*z*w + z^2")
    assert cut.q == parse_poly("1/2*w^2 + z^2")
    assert repr(full.q.coeff(2, 0)) == repr(cut.q.coeff(2, 0)) == "1"
    assert cut.p == full.p


def _vertex_record_germs():
    """(f, n_max, limits) for g1-g8, oracle_rational's germ, the
    mixed-type germ above and the binomial-p germs among the first 40
    criterion-5 draws."""
    for name in sorted(FIXTURES):
        yield germ(*FIXTURES[name]), 3, None
    yield germ("z^2 + 1/3*z^3", "2/3*w^3 - 5/7*z*w + 3/4*z^3"), 4, None
    yield germ("z", "1/2*w^2 - 1/2*z*w + z^2"), 3, None
    for f in islice(generate_germs(CRITERION_5), 40):
        if len(f.p) > 1:
            yield f, CRITERION_5.n_max, campaign_limits(CRITERION_5)


def test_vertex_records_hold_the_lowest_term_of_p(monkeypatch):
    """Every vertex step's p^n is one term: the order of the full p^n
    and its lowest coefficient, with the type the full route gives it."""
    made = []

    def logged(*args):
        step = vertex_step(*args)
        if step is not None:
            made.append(step)
        return step

    monkeypatch.setattr("skewprod.germ.vertex_step", logged)
    checked = binomial = 0
    for f, n_max, limits in _vertex_record_germs():
        made.clear()
        report = verify_germ(f, n_max, limits=limits, full_iterates=False)
        # p^n does not depend on q, so a germ with q = w iterates it by
        # the same full route, at a fraction of the cost.
        p_only = SkewGerm(f.p, parse_poly("w"))
        for rec in report.oracle:
            if not any(rec.germ is step for step in made):
                continue
            full = iterate_germ(p_only, rec.n).p
            order = min(full.column_minima())
            low = full.coeff(order, 0)
            (exponent, c), = rec.germ.p.items()
            assert exponent == (order, 0), (f, rec.n)
            assert (c, type(c)) == (low, type(low)), (f, rec.n)
            checked += 1
            binomial += len(full) > 1
    assert checked == 34 and binomial == 17


@pytest.mark.parametrize("limits", (
    [ResourceLimits(max_total_degree=d) for d in range(1, 41)]
    + [ResourceLimits(max_terms=t) for t in range(1, 13)]))
def test_vertex_records_trip_caps_where_the_full_steps_do(limits):
    # deg p^n = 3^n, while a vertex record holds only the term z^(2^n)
    # of p^n.  With q = w^2 + z the full step's p(P), of degree 3^n,
    # trips the degree cap first; with q = w^2 + z^4 its z^4(P), of
    # degree 4 * 3^(n-1), does.  The cap rule must read neither degree
    # off the held term.
    for q in ("w^2 + z", "w^2 + z^4"):
        f = germ("z^2 + z^3", q)
        full, full_error = _reach(f, 5, limits)
        cut, cut_error = _reach(f, 5, limits, lambda n: ())
        assert cut_error == full_error, q
        assert len(cut) == len(full), q


def test_vertex_records_trip_the_term_cap_where_the_full_steps_do():
    # p^2 = p(p) for p = z^2 + z^3 + z^4 + z^5 has the 22 terms z^4 ..
    # z^25, while the full step's q(P, W) for q = w^2 + z stays within
    # 21 terms.  At max_terms = 21 only p(P) trips the term cap, so the
    # cap rule must bound the terms of p(P) as well.
    f = germ("z^2 + z^3 + z^4 + z^5", "w^2 + z")
    for max_terms in range(1, 41):
        limits = ResourceLimits(max_terms=max_terms)
        full, full_error = _reach(f, 3, limits)
        cut, cut_error = _reach(f, 3, limits, lambda n: ())
        assert cut_error == full_error, max_terms
        assert len(cut) == len(full), max_terms
