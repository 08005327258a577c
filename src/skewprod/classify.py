"""Case classification of a skew germ by delta against the polygon intercepts.

With vertices (n_1, m_1) .. (n_s, m_s) and intercepts T_1 > ... > T_{s-1}:

  Case 1: s = 1; the unique vertex is the dominant bidegree (gamma, d).
  Case 2: s > 1 and delta <= T_{s-1}; (gamma, d) = (n_s, m_s).
  Case 3: s > 1 and T_1 <= delta; (gamma, d) = (n_1, m_1).
  Case 4: s > 2 and T_k <= delta <= T_{k-1} for some 2 <= k <= s-1;
          (gamma, d) = (n_k, m_k).

All four are one object, the vertex (gamma, d) that delta selects, and
Case 4 (an interior vertex with both neighbours) is the general reading.
Its weights are read off the neighbours: l1 = (gamma - n_{k-1}) /
(m_{k-1} - d) from the previous vertex and l1 + l2 = (n_{k+1} - gamma) /
(d - m_{k+1}) from the next one.  With no previous vertex (Cases 1 and 3)
l1 = 0, and with no next vertex (Cases 1 and 2) l1 + l2 = INF, so the
Case-4 formulas cover every case; a test of the kind is left only where
the paper's statement for a case differs from them.

Boundary equalities delta = T_k can make several cases applicable at
once; the primary kind follows the fixed priority Case2, Case3, Case4,
and `case_variants` exposes every applicable reading so downstream
predictions can be checked against each of them.

The module also builds the weight intervals attached to each case, the
raw inequality systems that define them (kept separate so closed forms
can be property-tested against the definitions), and the induced affine
action R(l) = (gamma + l d) / delta on weights.

Interval membership, the raw systems and the R-map read a weight
l = a/b as the int pair (a, b) with b > 0.  Each inequality is scaled
by its positive denominators, so a level gamma + l*d is compared as the
int b*gamma + a*d against b*i + a*j over the support, and a rational
result is built once as Fraction(numerator, denominator).  Each has an
entry point on such pairs (`Interval.contains_pair`,
`CaseFourRectangle.contains_pair`, `r_map_pair`, the `*_pair` systems),
which need not be in lowest terms; `Interval.contains` and
`CaseFourRectangle.contains` take Fractions and call them.  A pair
(l_(1), l_(1) + l_(2)) is in the rectangle's staged systems when l_(1)
passes `system_membership_case4_first_pair` and l_(2) the second.
`r_map_pair` takes gamma_n, d^n and delta^n, which its callers read off
the reading's growth table (`CaseData.growth`); at (gamma, d, delta) it
is one step R.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exact import INF, as_fraction, is_inf
from .germ import SkewGerm
from .growth import GrowthTable
from .newton import NewtonPolygon, newton_polygon

CASE1 = "Case1"
CASE2 = "Case2"
CASE3 = "Case3"
CASE4 = "Case4"


@dataclass(frozen=True)
class Interval:
    """Exact interval with individually open/closed ends; upper may be INF."""

    lower: Fraction
    upper: object  # Fraction | INF
    lower_closed: bool = True
    upper_closed: bool = True

    def contains(self, l) -> bool:
        l = as_fraction(l)
        return self.contains_pair(l.numerator, l.denominator)

    def contains_pair(self, a: int, b: int) -> bool:
        """Membership of l = a/b, for any b > 0."""
        # Against an end p/q, all with positive denominators: l < p/q
        # exactly when a*q < p*b.
        lo_p, lo_q, hi_p, hi_q = self._ends
        lo_b, a_lo = lo_p * b, a * lo_q
        if a_lo < lo_b if self.lower_closed else a_lo <= lo_b:
            return False
        if hi_p is None:
            return True
        a_hi, hi_b = a * hi_q, hi_p * b
        return a_hi <= hi_b if self.upper_closed else a_hi < hi_b

    @cached_property
    def _ends(self) -> tuple:
        """(p, q) of the lower end and of the upper one, (None, None)
        for INF."""
        lo, hi = as_fraction(self.lower), self.upper
        if is_inf(hi):
            return lo.numerator, lo.denominator, None, None
        hi = as_fraction(hi)
        return lo.numerator, lo.denominator, hi.numerator, hi.denominator

    def sample_points(self):
        """Deterministic exact probes: closed endpoints plus a midpoint."""
        pts = []
        if self.lower_closed:
            pts.append(self.lower)
        if is_inf(self.upper):
            base = self.lower if self.lower_closed else self.lower + 1
            if base <= 0:
                base = Fraction(1)
            pts.extend([base, base + 1])
            for probe in (Fraction(1, 2), Fraction(1), Fraction(2)):
                if self.contains(probe):
                    pts.append(probe)
        else:
            if self.upper_closed:
                pts.append(self.upper)
            if self.lower < self.upper:
                pts.append((self.lower + self.upper) / 2)
        return sorted(set(map(as_fraction, pts)))


@dataclass(frozen=True)
class CaseData:
    """Classification payload for one applicable case reading of a germ."""

    kind: str
    polygon: NewtonPolygon
    delta: int
    a_delta: object
    k: int  # 1-based index of the dominant vertex in the chain
    gamma: int
    d: int
    l1: Fraction
    l2: object  # Fraction | INF
    alpha: Fraction | None
    prev_vertex: tuple | None
    next_vertex: tuple | None
    t_prev: Fraction | None
    t_next: Fraction | None
    delta_eq_t_prev: bool
    delta_eq_t_next: bool
    applicable: tuple

    @property
    def s(self) -> int:
        return self.polygon.s

    @cached_property
    def l1_plus_l2(self):
        # Read by every per-n bracket and claim; computed once per reading.
        if is_inf(self.l2):
            return INF
        return self.l1 + self.l2

    @cached_property
    def _weight_intervals(self):
        return _build_weight_intervals(self)

    def growth(self, n_top: int) -> GrowthTable:
        """gamma_n, d^n and delta^n of this reading for n = 0 .. n_top at
        least.  Built once per reading and kept on it, and built again
        only when a deeper n is asked for."""
        table = self.__dict__.get("_growth")
        if table is None or table.n_top < n_top:
            table = GrowthTable.build(self.delta, self.gamma, self.d, n_top)
            # A derived value, like l1_plus_l2: the fields stay frozen.
            self.__dict__["_growth"] = table
        return table

    @property
    def dominant_may_vanish(self) -> bool:
        """The dominant term z^{gamma_n} can cancel: d = 0 (so the last
        vertex, Case 2) at the delta = T boundary is the only such
        configuration."""
        return self.d == 0 and self.delta_eq_t_prev

    @property
    def next_term_may_vanish(self) -> bool:
        """The starred next-vertex term is a pure power of z and can cancel."""
        return self.delta_eq_t_next and self.next_vertex[1] == 0

    @property
    def may_vanish(self) -> bool:
        return self.dominant_may_vanish or self.next_term_may_vanish


def _readings(f: SkewGerm) -> tuple:
    """(polygon, readings, applicable): q's Newton polygon, (kind, k)
    for every reading that applies, in priority order (Case1, Case2,
    Case3, then Case 4 by k), and its kinds without repeats."""
    polygon = newton_polygon(f.q)
    delta, s, T = f.delta, polygon.s, polygon.intercept
    if s == 1:
        return polygon, [(CASE1, 1)], (CASE1,)
    readings = []
    if delta <= T(s - 1):
        readings.append((CASE2, s))
    if T(1) <= delta:
        readings.append((CASE3, 1))
    readings += [(CASE4, k) for k in range(2, s)
                 if T(k) <= delta <= T(k - 1)]
    return polygon, readings, tuple(dict.fromkeys(
        kind for kind, _ in readings))


def _build(f: SkewGerm, polygon: NewtonPolygon, kind: str, k: int,
           applicable: tuple) -> CaseData:
    s = polygon.s
    gamma, d = polygon.vertex(k)
    prev_v = polygon.vertex(k - 1) if k >= 2 else None
    next_v = polygon.vertex(k + 1) if k <= s - 1 else None
    t_prev = polygon.intercept(k - 1) if k >= 2 else None
    t_next = polygon.intercept(k) if k <= s - 1 else None
    l1 = Fraction(gamma - prev_v[0], prev_v[1] - d) if prev_v else Fraction(0)
    l2 = Fraction(next_v[0] - gamma, d - next_v[1]) - l1 if next_v else INF
    alpha = Fraction(gamma, f.delta - d) if f.delta != d else None
    return CaseData(
        kind=kind,
        polygon=polygon,
        delta=f.delta,
        a_delta=f.a_delta,
        k=k,
        gamma=gamma,
        d=d,
        l1=l1,
        l2=l2,
        alpha=alpha,
        prev_vertex=prev_v,
        next_vertex=next_v,
        t_prev=t_prev,
        t_next=t_next,
        delta_eq_t_prev=(t_prev is not None and t_prev == f.delta),
        delta_eq_t_next=(t_next is not None and t_next == f.delta),
        applicable=applicable,
    )


def classify(f: SkewGerm) -> CaseData:
    """Primary case of the germ (priority Case1, Case2, Case3, Case4)."""
    polygon, readings, applicable = _readings(f)
    kind, k = readings[0]
    return _build(f, polygon, kind, k, applicable)


def case_variants(f: SkewGerm) -> tuple:
    """One CaseData per applicable reading, primary first.

    At a boundary delta = T_k two kinds (or two Case-4 vertex indices)
    can apply simultaneously; the attached claims all hold at once and
    are verified per variant.
    """
    polygon, readings, applicable = _readings(f)
    return tuple(_build(f, polygon, kind, k, applicable)
                 for kind, k in readings)


# -- weight intervals ----------------------------------------------------


@dataclass(frozen=True)
class CaseFourRectangle:
    """The set of admissible pairs (l_(1), l_(1) + l_(2)) for Case 4.

    Exactly one of three closed forms, keyed by which boundary holds:
      first_fixed   (T_k < delta = T_{k-1}):  {l1} x (l1, l1+l2]
      interior      (T_k < delta < T_{k-1}):  [l1, alpha] x [alpha, l1+l2]
                                              minus the corner (alpha, alpha)
      second_fixed  (T_k = delta < T_{k-1}):  [l1, l1+l2) x {l1+l2}
    """

    shape: str
    first: Interval
    l1: Fraction
    l2: Fraction
    alpha: Fraction
    excluded_corner: tuple | None

    def second_of(self, l_first) -> Interval:
        """The interval of admissible l_(2) for a given l_(1)."""
        l_first = as_fraction(l_first)
        if not self.first.contains(l_first):
            raise ValueError(f"l_(1) = {l_first} outside the first interval")
        top = self.l1 + self.l2
        if self.shape == "first_fixed":
            return Interval(Fraction(0), self.l2, lower_closed=False)
        if self.shape == "second_fixed":
            return Interval(top - l_first, top - l_first)
        if l_first < self.alpha:
            return Interval(self.alpha - l_first, top - l_first)
        return Interval(Fraction(0), top - self.alpha, lower_closed=False)

    def contains(self, l_first, l_sum) -> bool:
        """Membership of the pair (l_(1), l_(1) + l_(2))."""
        l_first, l_sum = as_fraction(l_first), as_fraction(l_sum)
        return self.contains_pair(l_first.numerator, l_first.denominator,
                                  l_sum.numerator, l_sum.denominator)

    def contains_pair(self, a1: int, b1: int, a_s: int, b_s: int) -> bool:
        """Membership of the pair (a1/b1, a_s/b_s), for any b1, b_s > 0."""
        if not self.first.contains_pair(a1, b1):
            return False
        below, above = self._second_forms
        alpha = self.alpha
        on_sum, interval = (
            below if self.shape == "interior"
            and a1 * alpha.denominator < alpha.numerator * b1 else above)
        if on_sum:
            return interval.contains_pair(a_s, b_s)
        # l_(2) = a_s/b_s - a1/b1 over the denominator b1*b_s.
        return interval.contains_pair(a_s * b1 - a1 * b_s, b_s * b1)

    @cached_property
    def _second_forms(self) -> tuple:
        """second_of's interval for an l_(1) below alpha and for one at
        or above it, each as (on_sum, interval).  Where second_of's ends
        are fixed values less l_(1), interval holds the fixed values and
        bounds l_(1) + l_(2) (on_sum); where its ends are fixed, it
        bounds l_(2).  Only the interior shape tells the two l_(1)
        apart."""
        top = self.l1 + self.l2
        if self.shape == "first_fixed":
            form = (False, Interval(Fraction(0), self.l2, lower_closed=False))
            return form, form
        if self.shape == "second_fixed":
            form = (True, Interval(top, top))
            return form, form
        return ((True, Interval(self.alpha, top)),
                (False, Interval(Fraction(0), top - self.alpha,
                                 lower_closed=False)))


@dataclass(frozen=True)
class WeightIntervals:
    """All weight sets attached to a case: the main set, and for Case 4
    also the staged first interval and the attraction-rate interval."""

    i_f: object  # Interval | CaseFourRectangle
    i_f1: Interval | None = None
    i_f_ar: Interval | None = None


def weight_intervals(case: CaseData) -> WeightIntervals:
    """The weight sets of a case reading, built once per reading: every
    prediction and check of the reading reads them."""
    return case._weight_intervals


def _build_weight_intervals(case: CaseData) -> WeightIntervals:
    # The paper states each case's weight set in its own shape (a
    # Case-4 rectangle degenerates differently per missing neighbour).
    if case.kind == CASE1:
        return WeightIntervals(
            Interval(Fraction(0), INF, lower_closed=False, upper_closed=False))
    if case.kind == CASE2:
        if case.delta > case.d:
            return WeightIntervals(Interval(case.l1, case.alpha))
        return WeightIntervals(Interval(case.l1, INF, upper_closed=False))
    if case.kind == CASE3:
        if case.gamma > 0:
            return WeightIntervals(Interval(case.alpha, case.l2))
        return WeightIntervals(
            Interval(Fraction(0), case.l2, lower_closed=False))
    # Case 4
    l1, l2, alpha = case.l1, case.l2, case.alpha
    top = l1 + l2
    if case.delta_eq_t_prev:
        shape = "first_fixed"
        first = Interval(l1, l1)
        corner = (l1, l1)
    elif case.delta_eq_t_next:
        shape = "second_fixed"
        first = Interval(l1, top, upper_closed=False)
        corner = None
    else:
        shape = "interior"
        first = Interval(l1, alpha)
        corner = (alpha, alpha)
    rect = CaseFourRectangle(shape=shape, first=first, l1=l1, l2=l2,
                             alpha=alpha, excluded_corner=corner)
    return WeightIntervals(rect, i_f1=first, i_f_ar=Interval(l1, top))


def equality_interval(case: CaseData) -> Interval:
    """The weights l at which w_l(Q^n) = gamma_n + l d^n is asserted."""
    iv = weight_intervals(case)
    return iv.i_f if iv.i_f_ar is None else iv.i_f_ar


# -- raw inequality systems (independent of the closed forms) ------------


def system_membership_pair(f: SkewGerm, case: CaseData, a: int,
                           b: int) -> bool:
    """Direct evaluation at l = a/b, for any b > 0, of the defining
    inequalities of the main weight set over the whole support,
    bypassing the closed forms."""
    if a <= 0:
        return False
    # Each case's system bounds l by delta from its own side.
    if case.kind == CASE1:
        return True
    level = b * case.gamma + a * case.d
    if case.kind == CASE2:
        if a * case.delta > level:
            return False
    elif case.kind == CASE3:
        if level > a * case.delta:
            return False
    else:
        raise ValueError("Case 4 uses the staged systems")
    return all(level <= b * i + a * j for i, j in f.q.exponents())


def system_membership_case4_first_pair(case: CaseData, a: int,
                                       b: int) -> bool:
    if a <= 0:
        return False
    k = case.k
    level = b * case.gamma + a * case.d
    for idx, (n, m) in enumerate(case.polygon.vertices, start=1):
        if idx <= k - 1 and level > b * n + a * m:
            return False
        if idx >= k + 1 and level >= b * n + a * m:
            return False
    return a * case.delta <= level


def system_membership_case4_second_pair(f: SkewGerm, case: CaseData,
                                        a1: int, b1: int, a2: int,
                                        b2: int) -> bool:
    # The first stage maps (i, j) to (i + l_(1) (j - delta), j).  Scaled
    # by B = b1*b2, with A1 = a1*b2, A2 = a2*b1 and s = A1 + A2, the
    # level (gamma + l_(1) (d - delta)) + l_(2) d is
    # B*gamma + s*d - A1*delta, and the shared -A1*delta drops out of
    # every comparison against a transformed support point.
    if a2 <= 0:
        return False
    gamma, d, delta = case.gamma, case.d, case.delta
    big_b, a1_s, a2_s = b1 * b2, a1 * b2, a2 * b1
    s = a1_s + a2_s
    if big_b * gamma + a1_s * (d - delta) + a2_s * d > a2_s * delta:
        return False
    level = big_b * gamma + s * d
    return all(level <= big_b * i + s * j for i, j in f.q.exponents())


def system_membership_case4_ar_pair(case: CaseData, a: int, b: int) -> bool:
    if a <= 0:
        return False
    k = case.k
    level = b * case.gamma + a * case.d
    for idx, (n, m) in enumerate(case.polygon.vertices, start=1):
        if idx != k and level > b * n + a * m:
            return False
    return True


# -- the induced action on weights ---------------------------------------


def r_map_pair(g_n: int, d_n: int, delta_n: int, a: int, b: int) -> tuple:
    """R^n(a/b) = (gamma_n + (a/b) d^n) / delta^n as the pair
    (g_n b + a d_n, b delta_n), not reduced; with (g_n, d_n, delta_n) =
    (gamma, d, delta) it is one step R."""
    return g_n * b + a * d_n, b * delta_n
