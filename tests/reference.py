"""Reference forms the tests compare the library against.

Nothing in the package calls these.  The polygon reads, the case
readings and the gamma_n routes are independent of the library's own;
the raw systems are the Fraction entry points to classify's `*_pair`
systems, and system_membership_case4_pair composes its two stages as
verify's rectangle probes do.  second_of is the Case-4 rectangle's
second stage as the paper states it per shape, an interval of l_(2)
for a given l_(1), and rect_contains the rectangle's membership on
Fractions through contains_pair.  on_numerators runs one int product
path on rational operands the way mul_terms does.
"""

from fractions import Fraction

from skewprod import _kernels
from skewprod.classify import (
    Interval,
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


# -- the Case-4 rectangle on Fractions --------------------------------------


def second_of(rect, l_first) -> Interval:
    """The interval of admissible l_(2) for a given l_(1)."""
    l_first = as_fraction(l_first)
    if not rect.first.contains(l_first):
        raise ValueError(f"l_(1) = {l_first} outside the first interval")
    top = rect.l1 + rect.l2
    if rect.shape == "first_fixed":
        return Interval(Fraction(0), rect.l2, lower_closed=False)
    if rect.shape == "second_fixed":
        return Interval(top - l_first, top - l_first)
    if l_first < rect.alpha:
        return Interval(rect.alpha - l_first, top - l_first)
    return Interval(Fraction(0), top - rect.alpha, lower_closed=False)


def rect_contains(rect, l_first, l_sum) -> bool:
    """Membership of the pair (l_(1), l_(1) + l_(2))."""
    l_first, l_sum = as_fraction(l_first), as_fraction(l_sum)
    return rect.contains_pair(l_first.numerator, l_first.denominator,
                              l_sum.numerator, l_sum.denominator)


# -- one product path on rational operands ------------------------------------


def on_numerators(path, a, b):
    """path (_kernels.mul_dict or _kernels.mul_kronecker), which takes
    int term dicts only, run as mul_terms runs it: on the operands'
    integer numerators, a squared operand cleared once, and the product
    divided once by _kernels.divided.  None where the path returns
    None."""
    den_a, num_a = _kernels._clear_denominators(a)
    den_b, num_b = ((den_a, num_a) if b is a
                    else _kernels._clear_denominators(b))
    out = path(num_a, num_b)
    return None if out is None else _kernels.divided(out, den_a * den_b)
