from fractions import Fraction

import pytest

from skewprod import INF

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
