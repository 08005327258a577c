import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewprod import (
    PolyParseError,
    ResourceCapError,
    ResourceLimits,
    SparsePoly2,
    format_poly,
    parse_poly,
)
from skewprod.poly import poly_mul, poly_pow


def P(src):
    return parse_poly(src)


def test_parse_two_monomials():
    p = P("z^3*w + z*w^2")
    assert dict(p.items()) == {(3, 1): 1, (1, 2): 1}


def test_parse_cancellation_to_zero():
    assert P("w^2 - w^2").is_zero
    assert P("0").is_zero


def test_parse_signs_and_implicit_star():
    p = P("-2*w^2 + z*w + z^2")
    assert dict(p.items()) == {(0, 2): -2, (1, 1): 1, (2, 0): 1}
    assert P("-2w^2 + zw + z^2") == p
    assert P("  - 2 * w ^ 2 + z w + z^2 ") == p


def test_parse_rational_coefficients():
    p = P("5/2*z*w - 1/3")
    assert p.coeff(1, 1) == Fraction(5, 2)
    assert p.coeff(0, 0) == Fraction(-1, 3)


def test_parse_duplicate_monomials_sum():
    assert P("z + z + w - w") == P("2z")
    assert P("z*z*w") == P("z^2*w")


def test_parse_errors_carry_position():
    """Every parse error, its message and the position it names."""
    cases = [
        ("", "empty expression", 0),
        ("  \t", "empty expression", 3),
        ("z 2", "expected '+' or '-', got '2'", 2),
        ("z*w)", "expected '+' or '-', got ')'", 3),
        ("z + ", "expected a term", 4),
        ("-", "expected a term", 1),
        ("z^", "expected a number", 2),
        ("3 / z", "expected a number", 4),
        ("1/0", "zero denominator", 2),
        ("1 /  00*z", "zero denominator", 5),
        ("2*", "expected a variable after '*'", 2),
        ("2 * 3", "expected a variable after '*'", 4),
        ("x + 1", "unknown variable 'x'", 0),
        ("z + 2*Z", "unknown variable 'Z'", 6),
        ("z^-1", "negative exponent", 2),
        ("w ^ - 1", "negative exponent", 4),
        ("z + + w", "expected a term, got '+'", 4),
        ("*3", "expected a variable after '*'", 1),
        ("^2", "expected a term, got '^'", 0),
        # A superscript digit is no number: int() rejects it.
        ("z^\u00b2", "expected a number", 2),
        ("\u00b2 + z", "expected a term, got '\u00b2'", 0),
    ]
    for text, message, pos in cases:
        with pytest.raises(PolyParseError) as exc:
            parse_poly(text)
        assert (str(exc.value), exc.value.pos) == (
            f"{message} (at position {pos})", pos), text
    with pytest.raises(PolyParseError) as exc:
        parse_poly("z + z*w", allowed_vars=("z",))
    assert str(exc.value) == "variable 'w' not allowed here (at position 6)"
    assert exc.value.pos == 6


def test_monomial_power():
    assert P("z*w") ** 3 == P("z^3*w^3")


def test_square_with_cancellation_pattern():
    sq = P("-2*w^2 + z*w + z^2") ** 2
    assert sq == P("4*w^4 - 4*z*w^3 - 3*z^2*w^2 + 2*z^3*w + z^4")


def test_additive_identity():
    p = P("z^3*w + z*w^2")
    assert p + SparsePoly2.zero() == p
    assert p - p == SparsePoly2.zero()


def test_orders():
    assert P("z^3*w + z*w^2").orders() == (3, 1, 1)
    assert P("z^4*w^2").orders() == (6, 4, 2)
    with pytest.raises(ValueError):
        SparsePoly2.zero().orders()


def test_format_parse_round_trip_examples():
    for src in ("0", "z", "-z", "3*w^2", "5/2*z*w", "z^3*w + z*w^2",
                "-2*w^2 + z*w + z^2", "1 - z"):
        p = P(src)
        assert parse_poly(format_poly(p)) == p


def test_format_term_order_graded_lex():
    p = P("z^9*w + z^4*w^4 + z^8*w^2 + 2*z^6*w^3 + z^7*w^2")
    assert format_poly(p) == "z^4*w^4 + 2*z^6*w^3 + z^7*w^2 + z^8*w^2 + z^9*w"


def test_resource_guard_terms():
    limits = ResourceLimits(max_terms=3, max_total_degree=10**6)
    a = P("1 + z + w")
    with pytest.raises(ResourceCapError):
        poly_mul(a, P("1 + z^2 + w^2"), limits)


def test_resource_guard_degree_prechecks():
    limits = ResourceLimits(max_terms=10**6, max_total_degree=10)
    with pytest.raises(ResourceCapError):
        poly_mul(P("z^6"), P("z^6"), limits)
    with pytest.raises(ResourceCapError):
        poly_pow(P("z^2"), 6, limits)


def test_coefficients_normalize_to_int():
    p = SparsePoly2({(1, 0): Fraction(4, 2)})
    assert p.coeff(1, 0) == 2
    assert isinstance(p.coeff(1, 0), int)


coeffs = st.one_of(
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
)
polys = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), coeffs, max_size=5
).map(SparsePoly2)


@given(polys, polys, polys)
@settings(max_examples=100, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a


@given(polys)
@settings(max_examples=100, deadline=None)
def test_round_trip_property(p):
    assert parse_poly(format_poly(p)) == p


@given(polys, st.data())
@settings(max_examples=100, deadline=None)
def test_round_trip_with_whitespace_between_tokens(p, data):
    """Whitespace between the tokens of format_poly's output, a digit
    run or any other character, changes nothing."""
    tokens = re.findall(r"\d+|\S", format_poly(p))
    gaps = data.draw(st.lists(st.sampled_from(["", " ", "\t", " \n  "]),
                              min_size=len(tokens) + 1,
                              max_size=len(tokens) + 1))
    text = "".join(gap + tok for gap, tok in zip(gaps, tokens + [""]))
    assert parse_poly(text) == p


@given(polys, st.integers(0, 4))
@settings(max_examples=50, deadline=None)
def test_pow_matches_repeated_mul(p, k):
    expected = SparsePoly2.constant(1)
    for _ in range(k):
        expected = expected * p
    assert p**k == expected
