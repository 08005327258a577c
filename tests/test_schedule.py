"""substitute's two schedules, the power table and Horner, must give the
same polynomial with the same coefficient types, and trip the resource
caps at the same iterate with Horner's message.  On rational operands
substitute runs either schedule on integer numerators, and must still
give what Horner gives on the operands as they are."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewprod import ResourceCapError, ResourceLimits, SparsePoly2, parse_poly
from skewprod import _kernels
from skewprod import germ as germ_module
from skewprod import poly as poly_module
from skewprod.germ import iterates, substitute
from conftest import FIXTURES, germ


def exact(poly):
    """The terms with their coefficient types: 2 and Fraction(2, 1) differ."""
    return repr(sorted(poly.items()))


def both_schedules(poly, P, W, limits=None):
    by_j = germ_module._layers(poly)
    return (germ_module._substitute_power_table(by_j, P, W, limits),
            germ_module._substitute_horner(by_j, P, W, limits))


small = st.integers(1, 3).flatmap(lambda c: st.sampled_from((c, -c)))
# ints and Fractions over 2 or 3, so products and sums of Fractions
# come out integral.
coeffs = st.one_of(small, st.builds(Fraction, small, st.sampled_from((2, 3))))
# Exponents up to 6, so the w-exponents of q leave gaps.
q_terms = st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                          coeffs, min_size=1, max_size=7)
monomials = st.tuples(coeffs, st.integers(1, 3), st.integers(0, 1))


@st.composite
def substitutions(draw):
    q = SparsePoly2(draw(q_terms))
    a, m, k = draw(monomials)
    P = SparsePoly2.monomial(a, m, k)
    shape = draw(st.sampled_from(("zero", "poly", "power of P")))
    if shape == "zero":
        W = SparsePoly2.zero()
    elif shape == "poly":
        W = SparsePoly2(draw(st.dictionaries(
            st.tuples(st.integers(0, 4), st.integers(0, 3)), coeffs,
            min_size=1, max_size=6)))
    else:  # W = c P^e, so different layers land on the same terms
        c, e = draw(coeffs), draw(st.integers(1, 3))
        W = SparsePoly2.monomial(c * a**e, m * e, k * e)
    return q, P, W


@given(substitutions())
@settings(max_examples=300, deadline=None)
def test_power_table_equals_horner(args):
    table, horner = both_schedules(*args)
    assert exact(table) == exact(horner)
    assert exact(substitute(*args)) == exact(horner)


def test_cancelling_layers():
    # w - z^2 at (z, z^2) is 0; w^2 - z^4 + w at (z, z^2) is z^2; the
    # layers cancel term by term.
    for q_src, P_src, W_src, want in (
            ("w - z^2", "z", "z^2", "0"),
            ("w^2 - z^4 + w", "z", "z^2", "z^2"),
            ("w^3 + 3*z*w^2 - 2*z^3", "-z", "2*z", "-2*z^3"),
            ("w^3 - 2*z^3*w + z^2*w^2", "z^2", "z^2 + w", None)):
        q, P, W = (parse_poly(s) for s in (q_src, P_src, W_src))
        table, horner = both_schedules(q, P, W)
        assert exact(table) == exact(horner)
        if want is not None:
            assert table == parse_poly(want)
    # W = 0: only the pure-z layer is left, and nothing at all without one.
    q = parse_poly("z*w + 2*z^2 - w^3")
    for P in (parse_poly("3*z^2"), parse_poly("-z")):
        table, horner = both_schedules(q, P, SparsePoly2.zero())
        assert exact(table) == exact(horner) == exact(2 * P * P)
    table, horner = both_schedules(parse_poly("w + z*w^2"), parse_poly("z"),
                                   SparsePoly2.zero())
    assert table.is_zero and horner.is_zero


# ints, Fractions over 2, 3 and 7, and integral Fractions, which only
# SparsePoly2._raw can store.
any_coeffs = st.one_of(
    small, st.builds(Fraction, small, st.sampled_from((2, 3, 7))),
    st.builds(Fraction, small))


@st.composite
def rational_substitutions(draw):
    """(q, P, W): P one term (the power table) or several (Horner); W
    zero, a polynomial, or a multiple of a power of P, so that layers
    cancel; every coefficient an int in the all-int case."""
    coeff = small if draw(st.booleans()) else any_coeffs
    q = SparsePoly2._raw(draw(st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)), coeff,
        min_size=1, max_size=6)))
    P = SparsePoly2._raw(draw(st.dictionaries(
        st.tuples(st.integers(1, 3), st.integers(0, 1)), coeff,
        min_size=1, max_size=draw(st.sampled_from((1, 3))))))
    shape = draw(st.sampled_from(("zero", "poly", "power of P")))
    if shape == "zero":
        W = SparsePoly2.zero()
    elif shape == "poly":
        W = SparsePoly2._raw(draw(st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 2)), coeff,
            min_size=1, max_size=4)))
    else:
        W = draw(coeff) * P ** draw(st.integers(1, 2))
    return q, P, W


def canonical(poly):
    return all(type(c) is int or c.denominator > 1 for _, c in poly.items())


@given(rational_substitutions())
@settings(max_examples=300, deadline=None)
def test_cleared_substitute_equals_horner_on_the_operands(args):
    q, P, W = args
    out = substitute(q, P, W)
    horner = germ_module._substitute_horner(germ_module._layers(q), P, W,
                                            None)
    assert out == horner
    assert exact(out) == exact(horner)
    assert canonical(out)


@pytest.mark.parametrize("p_src, q_src, n", [
    ("z^2 + 1/3*z^3", "2/3*w^3 - 5/7*z*w + 3/4*z^3", 3),  # Horner
    ("z^2", "w^4 + 1/2*z*w^2 + z^3*w + 3/7*z^7", 2),  # the power table
])
def test_rational_substitute_multiplies_ints(monkeypatch, p_src, q_src, n):
    f = germ(p_src, q_src)
    fn = germ_module.iterate_germ(f, n)
    expected = exact(germ_module._substitute_horner(
        germ_module._layers(f.q), fn.p, fn.q, None))
    operands = []
    inner = _kernels.mul_terms

    def recording(a, b):
        operands.extend((a, b))
        return inner(a, b)

    monkeypatch.setattr(_kernels, "mul_terms", recording)
    assert exact(substitute(f.q, fn.p, fn.q)) == expected
    assert operands
    assert all(type(c) is int for a in operands for c in a.values())


def refuse(name):
    def stub(*args):
        raise AssertionError(f"{name} must not run here")
    return stub


@pytest.mark.parametrize("q_src, P_src, W_src", [
    ("w^2 + z*w", "z^2 + z^3", "z*w"),  # P has two terms
    ("w^2 + 1/2*z*w", "z^2 - 1/2*z^3", "z*w"),  # and Fractions
])
def test_other_calls_take_horner(monkeypatch, q_src, P_src, W_src):
    q, P, W = (parse_poly(s) for s in (q_src, P_src, W_src))
    expected = exact(germ_module._substitute_horner(
        germ_module._layers(q), P, W, None))
    monkeypatch.setattr(germ_module, "_substitute_power_table",
                        refuse("the power table"))
    assert exact(substitute(q, P, W)) == expected


@pytest.mark.parametrize("q_src, P_src, W_src", [
    ("w^2 + 1/2*z*w", "z^2", "z*w"),  # a Fraction in poly
    ("w^2 + z*w", "1/2*z^2", "z*w"),  # a Fraction in P
    ("w^2 + z*w", "z^2", "z*w + 3/2*w^2"),  # a Fraction in W
])
def test_fraction_monomials_take_the_power_table(monkeypatch, q_src, P_src,
                                                 W_src):
    q, P, W = (parse_poly(s) for s in (q_src, P_src, W_src))
    expected = exact(germ_module._substitute_horner(
        germ_module._layers(q), P, W, None))
    monkeypatch.setattr(germ_module, "_substitute_horner", refuse("Horner"))
    assert exact(substitute(q, P, W)) == expected


def test_integral_fractions_take_the_power_table(monkeypatch):
    # Fraction(2, 1) prints like 2 but is another type.  Whatever types
    # the operands hold, the power table runs on a one-term P, and its
    # result holds each coefficient as exact.as_coeff gives it.
    q = SparsePoly2._raw({(0, 2): Fraction(2), (1, 1): Fraction(-1)})
    P = SparsePoly2._raw({(2, 0): Fraction(3)})
    W = SparsePoly2._raw({(1, 1): Fraction(1)})
    expected = exact(germ_module._substitute_horner(
        germ_module._layers(q), P, W, None))
    monkeypatch.setattr(germ_module, "_substitute_horner", refuse("Horner"))
    out = substitute(q, P, W)
    assert exact(out) == expected
    assert {type(c) for _, c in out.items()} == {int}


def test_int_monomial_takes_the_power_table(monkeypatch):
    q = parse_poly("w^8 + z*w^4 + z^3*w^2 + z^9*w")
    P = SparsePoly2({(5, 0): 1})
    W = SparsePoly2({(1, 1): 2, (0, 2): -1})
    expected = exact(germ_module._substitute_horner(
        germ_module._layers(q), P, W, None))
    monkeypatch.setattr(germ_module, "_substitute_horner",
                        refuse("Horner"))
    assert exact(substitute(q, P, W)) == expected


def reach(f, n_max, limits):
    """(deepest n computed, the cap's message or None)."""
    reached = 0
    try:
        for n, _ in iterates(f, n_max, limits):
            reached = n
    except ResourceCapError as exc:
        return reached, str(exc)
    return reached, None


def horner_only(m):
    # substitute hands a power table that trips a cap to Horner.
    def trip(*args):
        raise ResourceCapError("the power table is off")

    m.setattr(germ_module, "_substitute_power_table", trip)


@pytest.mark.parametrize("name, n_max", [("g2", 7), ("g7", 4), ("g8", 3)])
def test_term_cap_trips_at_the_same_iterate(monkeypatch, name, n_max):
    f = germ(*FIXTURES[name])
    terms = len(list(iterates(f, n_max))[-1][1].q)
    for cap, want in ((terms - 1, n_max - 1), (terms, n_max)):
        limits = ResourceLimits(max_terms=cap)
        table = reach(f, n_max, limits)
        with monkeypatch.context() as m:
            horner_only(m)
            horner = reach(f, n_max, limits)
        assert table == horner
        assert table[0] == want


@pytest.mark.parametrize("name, n_max", [("g2", 6), ("g7", 3), ("g8", 2)])
def test_every_cap_trips_with_horners_message(monkeypatch, name, n_max):
    # Every degree cap up to past the iterate's degree, and the term caps
    # around its size, where the table's products and Horner's differ.
    f = germ(*FIXTURES[name])
    q = list(iterates(f, n_max))[-1][1].q
    caps = [ResourceLimits(max_total_degree=d)
            for d in range(1, q.total_degree() + 2)]
    caps += [ResourceLimits(max_terms=t)
             for t in range(max(1, len(q) - 30), len(q) + 2)]
    table = [reach(f, n_max, limits) for limits in caps]
    with monkeypatch.context() as m:
        horner_only(m)
        horner = [reach(f, n_max, limits) for limits in caps]
    assert table == horner
    assert any(message for _, message in table)


@given(substitutions())
@settings(max_examples=200, deadline=None)
def test_degree_bound_covers_every_checked_product(args):
    # No product either schedule checks passes the bound, so under any
    # degree cap at or above it neither trips.
    q, P, W = args
    by_j = germ_module._layers(q)
    checked = []
    precheck = poly_module._precheck_mul

    def recording(a, b, limits):
        if a and b:
            checked.append(max(i + j for i, j in a) + max(i + j for i, j in b))
        precheck(a, b, limits)

    poly_module._precheck_mul = recording
    try:
        both_schedules(q, P, W)
    finally:
        poly_module._precheck_mul = precheck
    deg_w = None if W.is_zero else W.total_degree()
    assert max(checked, default=0) <= germ_module._horner_degree_bound(
        by_j, P.total_degree(), deg_w)


def test_degree_cap_on_g8():
    # The power table would first form W^4 * W^4 (degree 80); Horner's
    # first product past 42 is acc * W^2.
    f = germ(*FIXTURES["g8"])
    assert reach(f, 2, ResourceLimits(max_total_degree=42)) == (
        1, "product degree 60 exceeds cap 42")


# (p, q, n_max, cap, runs): under the cap at each value from a run's
# first to the next run's first minus one, iterates reaches the run's n,
# and trips on the product degree or term count it names (None: no
# trip).  These are the trips of the same schedules run with every
# product on the rational coefficients themselves, so clearing once per
# substitute must leave every one where it was.
RATIONAL_CAP_RUNS = [
    ("z^2 + 1/3*z^3", "2/3*w^3 - 5/7*z*w + 3/4*z^3", 4, "max_total_degree",
     [(1, 1, 3), (3, 1, 6), (6, 1, 9), (9, 2, 18), (18, 2, 27), (27, 3, 54),
      (54, 3, 81), (81, 4, None)]),
    ("z^2 + 1/3*z^3", "2/3*w^3 - 5/7*z*w + 3/4*z^3", 4, "max_terms",
     [(1, 1, 2), (2, 1, 3), (3, 1, 6), (6, 1, 15), (15, 1, 17), (17, 2, 20),
      (20, 2, 81), (81, 2, 228), (228, 3, 1017), (1017, 3, 2496),
      (2496, 4, None)]),
    ("z^2", "w^4 + 1/2*z*w^2 + z^3*w + 3/7*z^7", 3, "max_total_degree",
     [(1, 1, 4), (4, 1, 14), (14, 1, 21), (21, 1, 28), (28, 2, 56),
      (56, 2, 84), (84, 2, 112), (112, 3, None)]),
    ("z^2", "w^4 + 1/2*z*w^2 + z^3*w + 3/7*z^7", 3, "max_terms",
     [(1, 1, 10), (10, 1, 24), (24, 1, 49), (49, 1, 50), (50, 2, 338),
      (338, 2, 1076), (1076, 2, 2301), (2301, 3, None)]),
]


@pytest.mark.parametrize("p_src, q_src, n_max, cap, runs", RATIONAL_CAP_RUNS)
def test_rational_caps_trip_where_they_did(p_src, q_src, n_max, cap, runs):
    f = germ(p_src, q_src)
    what = "product degree" if cap == "max_total_degree" else "term count"
    ends = [first - 1 for first, _, _ in runs[1:]] + [runs[-1][0] + 1]
    for (first, n, value), last in zip(runs, ends):
        for limit in sorted({first, last}):
            message = (None if value is None
                       else f"{what} {value} exceeds cap {limit}")
            assert reach(f, n_max, ResourceLimits(**{cap: limit})) == (
                n, message)
