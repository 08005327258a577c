"""Reference forms the tests compare the library against.

Nothing in the package calls these.  The polygon reads, the case
readings and the gamma_n routes are independent of the library's own;
the raw systems are the
Fraction entry points to classify's `*_pair` systems, and
system_membership_case4_pair composes its two stages as verify's
rectangle probes do.
"""

from fractions import Fraction

from skewprod.classify import (
    system_membership_case4_ar_pair,
    system_membership_case4_first_pair,
    system_membership_case4_second_pair,
    system_membership_pair,
)
from skewprod.exact import as_fraction


# -- Newton polygon reads ---------------------------------------------------


def edge_slope(polygon, k: int) -> Fraction:
    """Slope of the edge L_k through vertices k and k+1 (1-based)."""
    (n1, m1), (n2, m2) = polygon.vertices[k - 1], polygon.vertices[k]
    return Fraction(m2 - m1, n2 - n1)


def min_weight(polygon, l) -> Fraction:
    """min(n + l*m) over the vertices; equals the support minimum."""
    return min(n + Fraction(l) * m for n, m in polygon.vertices)


# -- case readings ------------------------------------------------------------


def case_readings(polygon, delta) -> list:
    """(kind, k) of every case reading of a germ with this polygon and
    delta, from the definitions in classify's docstring, in its
    priority order (Case1, Case2, Case3, then Case 4 by k).

    T_k is the y-intercept of the edge through vertices k and k+1:
    Case 1 is s = 1 (k = 1), Case 2 delta <= T_{s-1} (k = s), Case 3
    T_1 <= delta (k = 1) and Case 4 T_k <= delta <= T_{k-1} for
    2 <= k <= s-1.
    """
    verts = polygon.vertices
    s = len(verts)
    T = {}
    for k, ((n1, m1), (n2, m2)) in enumerate(zip(verts, verts[1:]), 1):
        T[k] = m1 + Fraction((m1 - m2) * n1, n2 - n1)
    readings = [("Case1", 1, s == 1),
                ("Case2", s, s > 1 and delta <= T[s - 1]),
                ("Case3", 1, s > 1 and T[1] <= delta)]
    readings += [("Case4", k, T[k] <= delta <= T[k - 1])
                 for k in range(2, s)]
    return [(kind, k) for kind, k, holds in readings if holds]


# -- gamma_n by its closed form and its recurrence --------------------------


def gamma_n_closed(delta: int, gamma: int, d: int, n: int) -> int:
    if n < 1:
        raise ValueError("n must be a positive integer")
    if delta == d:
        return n * gamma * delta ** (n - 1)
    value = Fraction(gamma, delta - d) * (delta**n - d**n)
    assert value.denominator == 1
    return int(value)


def gamma_n_recurrence(delta: int, gamma: int, d: int, n: int) -> int:
    if n < 1:
        raise ValueError("n must be a positive integer")
    value = gamma
    for k in range(1, n):
        value = delta**k * gamma + d * value
    return value


# -- the raw inequality systems on Fractions --------------------------------


def system_membership(f, case, l) -> bool:
    l = as_fraction(l)
    return system_membership_pair(f, case, l.numerator, l.denominator)


def system_membership_case4_first(case, l) -> bool:
    l = as_fraction(l)
    return system_membership_case4_first_pair(case, l.numerator,
                                              l.denominator)


def system_membership_case4_second(f, case, l_first, l_second) -> bool:
    l_first, l_second = as_fraction(l_first), as_fraction(l_second)
    return system_membership_case4_second_pair(
        f, case, l_first.numerator, l_first.denominator,
        l_second.numerator, l_second.denominator)


def system_membership_case4_ar(case, l) -> bool:
    l = as_fraction(l)
    return system_membership_case4_ar_pair(case, l.numerator, l.denominator)


def system_membership_case4_pair(f, case, l_first, l_sum) -> bool:
    """Pair membership for the Case-4 rectangle via the staged systems."""
    l_first = as_fraction(l_first)
    a1, b1 = l_first.numerator, l_first.denominator
    if not system_membership_case4_first_pair(case, a1, b1):
        return False
    l_sum = as_fraction(l_sum)
    # l_(2) = l_sum - l_(1) = (a_s b1 - a1 b_s) / (b_s b1).
    a_s, b_s = l_sum.numerator, l_sum.denominator
    return system_membership_case4_second_pair(
        f, case, a1, b1, a_s * b1 - a1 * b_s, b_s * b1)
