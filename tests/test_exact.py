import sys
from fractions import Fraction

import pytest

import skewprod.exact
import skewprod.poly
from skewprod import INF, ResourceCapError, format_exact

FINITE = [0, 1, -3, 10**30, Fraction(7, 2), Fraction(-1, 3)]


@pytest.mark.parametrize("x", FINITE)
def test_inf_against_finite(x):
    """INF is above every int and Fraction, from either side."""
    assert INF > x and INF >= x and INF != x
    assert not (INF < x or INF <= x or INF == x)
    assert x < INF and x <= INF and x != INF
    assert not (x > INF or x >= INF or x == INF)


def test_inf_against_itself():
    assert INF == INF and INF <= INF and INF >= INF
    assert not (INF != INF or INF < INF or INF > INF)


def test_inf_orders_and_hashes():
    assert sorted([INF, 3, Fraction(1, 2)]) == [Fraction(1, 2), 3, INF]
    assert max(FINITE + [INF]) is INF and min([INF] + FINITE) == -3
    assert hash(INF) == hash("skewprod-inf")
    assert {INF: 1}[INF] == 1 and len({INF, INF, 1}) == 2


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the interpreter has no int-to-str digit limit")
def test_format_exact_past_the_digit_limit():
    """An int or a Fraction part with more digits than str() converts
    raises the package's ResourceCapError, which names the limit."""
    assert ResourceCapError is skewprod.poly.ResourceCapError \
        is skewprod.exact.ResourceCapError
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert skewprod.exact.int_max_str_digits() == 640
        assert format_exact(10**639) == "1" + "0" * 639
        for x in (10**640, -10**640, Fraction(1, 10**640),
                  Fraction(10**640, 3)):
            with pytest.raises(ResourceCapError, match="more than 640 digits"):
                format_exact(x)
    finally:
        sys.set_int_max_str_digits(saved)
