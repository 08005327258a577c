"""Predicted attraction-rate data for every iterate of a classified germ.

For f^n = (p^n, Q^n) the dominant bidegree is (gamma_n, d^n) with
gamma_n = gamma (delta^{n-1} + ... + d^{n-1}).  This module computes,
per case and without iterating the germ:

  * the dominant term's bidegree and (conjectural) coefficient,
  * exact weight values w_l(Q^n) on the case's equality interval,
  * the tightest c(Q^n) bracket the case analysis gives, with
    strictness encoded as data so "<" and "<=" are tested distinctly,
  * the Newton-polygon vertices adjacent to (gamma_n, d^n),
  * the induced c(f^n) bracket and the asymptotic rate c_infinity.

Boundary configurations whose critical pure-z term can cancel are
routed through an exact coefficient recursion along the bottom edge, so
per-n claims switch between the "term present" and "term vanished"
variants of the refined estimates.

`predict(f, case, n)` returns all of these as one `RatePrediction`
record; verify's `predictions` calls it once for each n.  It reads
gamma_n, d^n and delta^n off the reading's growth table
(`CaseData.growth`), and l1 and l1 + l2 as (numerator, denominator),
compared with 1 as ints; it checks each weight sample against the
equality interval.  Every bracket, weight value and c(f^n) bound is
computed on ints, with one Fraction per reported value.  The records
are NamedTuples, which are cheap to build and compare and hash as the
tuples of their fields.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .classify import CASE1, CASE2, CASE3, CaseData, equality_interval
from .exact import as_coeff, as_fraction, int_max_str_digits, is_inf
from .germ import SkewGerm
from .growth import GrowthTable, check_depth, geometric_sum, iterate_lead_coeff
from .newton import newton_polygon, support_on_edge
from .poly import ResourceCapError


_ONE = Fraction(1)


class PredictionRangeError(ValueError):
    """A weight was requested outside the claimed equality range."""


# -- elementary quantities ------------------------------------------------


def _dominant_coeff(f: SkewGerm, case: CaseData, growth: GrowthTable,
                    n: int):
    """a_delta^(gamma_1 + ... + gamma_{n-1}) b^(1 + d + ... + d^{n-1}),
    b the coefficient of z^gamma w^d in q: the coefficient of
    z^{gamma_n} w^{d^n} in Q^n, proven only where that term cannot
    cancel.  Raises ResourceCapError where it has more digits than str()
    converts (exact.int_max_str_digits()), before any power is taken
    where the bit lengths of a_delta and b show it."""
    a_exp = sum(growth.gamma[:n])  # gamma_0 = 0
    b_exp = sum(growth.d_pow[:n])
    a, b = f.a_delta, f.q.coeff(case.gamma, case.d)
    limit = int_max_str_digits()
    if limit:
        # Reducing a^a_exp b^b_exp divides both its parts by
        # gcd(a_num^a_exp, b_den^b_exp) gcd(b_num^b_exp, a_den^a_exp),
        # whose factors are 1 for coprime bases (always for ints) and at
        # most the smaller power.  So each part has at least `low` bits,
        # and one of limit * log2(10) bits has more than `limit` digits.
        shared = sum(min(a_exp * x.bit_length(), b_exp * y.bit_length())
                     for x, y in ((abs(a.numerator), b.denominator),
                                  (a.denominator, abs(b.numerator)))
                     if gcd(x, y) > 1)
        for x, y in ((a.numerator, b.numerator),
                     (a.denominator, b.denominator)):
            low = (a_exp * (abs(x).bit_length() - 1)
                   + b_exp * (abs(y).bit_length() - 1) - shared)
            if low * 10**9 >= limit * 3321928095:
                raise _too_long(n, limit)
    coeff = as_coeff(a**a_exp * b**b_exp)
    # Exactly, where the bit length leaves it open.
    if limit and any(part.bit_length() * 10**9 > limit * 3321928094
                     and abs(part) >= 10**limit
                     for part in (coeff.numerator, coeff.denominator)):
        raise _too_long(n, limit)
    return coeff


def _too_long(n: int, limit: int) -> ResourceCapError:
    return ResourceCapError(f"the dominant coefficient of Q^{n} has more "
                            f"than {limit} digits")


# -- critical pure-z coefficient recursion --------------------------------


def critical_coeff_sequence(f: SkewGerm, n_max: int):
    """Exact coefficients c_n of z^{G delta^{n-1}} in Q^n, n = 1..n_max,
    in the bottom-edge configuration where this pure power of z can
    cancel: last vertex (G, 0) on the x-axis and last intercept delta.
    None elsewhere.

    Only the critical edge feeds this bidegree: every other term has
    strictly larger weight, so c_{n+1} = sum over edge points (I, J) of
    a_n^I b_IJ c_n^J with a_n the lowest coefficient of p^n.
    """
    check_depth(n_max)
    polygon = newton_polygon(f.q)
    s = polygon.s
    if (s < 2 or polygon.vertex(s)[1] != 0
            or polygon.intercept(s - 1) != f.delta):
        return None
    G, prev = polygon.vertex(s)[0], polygon.vertex(s - 1)
    edge = support_on_edge(f.q, (G, 0), Fraction(G - prev[0], prev[1]))
    coeffs = {pt: f.q.coeff(*pt) for pt in edge}
    seq = [coeffs[(G, 0)]]
    for n in range(1, n_max):
        a_n = iterate_lead_coeff(f.a_delta, f.delta, n)
        c_n = seq[-1]
        seq.append(as_coeff(sum(a_n**I * coeffs[(I, J)] * c_n**J
                                for (I, J) in edge)))
    return seq


# -- c(Q^n) brackets -------------------------------------------------------


class CqnBounds(NamedTuple):
    lower: Fraction
    upper: Fraction
    lower_strict: bool = False
    upper_strict: bool = False
    exact: Fraction | None = None

    @staticmethod
    def exactly(value) -> "CqnBounds":
        value = as_fraction(value)
        return CqnBounds(value, value, exact=value)


def _theorem_bracket(case: CaseData, g_n: int, d_n: int) -> CqnBounds:
    """The unrefined bracket that holds in every configuration:
    g_n / max(l1, 1) + min(l1 + l2, 1) d^n <= c(Q^n) <= g_n + d^n."""
    # Case 1's single vertex fixes c(Q^n) exactly.
    if case.kind == CASE1:
        return CqnBounds.exactly(g_n + d_n)
    # p/q with q > 0 compares with 1 as p with q; INF is above 1.
    p, q = case.l1.numerator, case.l1.denominator
    lsum = case.l1_plus_l2
    max_p, max_q = (p, q) if p > q else (1, 1)
    lsum_below_one = not is_inf(lsum) and lsum.numerator < lsum.denominator
    r, s = (lsum.numerator, lsum.denominator) if lsum_below_one else (1, 1)
    lower = Fraction(g_n * max_q * s + r * d_n * max_p, max_p * s)
    # With d = 0 (Case 2) the theorem allows z^{gamma_n} to cancel, so
    # its upper end is the previous edge's w-intercept g_n / min(l1, 1).
    if case.d == 0:
        return CqnBounds(lower, Fraction(g_n * q, p) if p < q
                         else Fraction(g_n))
    return CqnBounds(lower, Fraction(g_n + d_n))


def _cqn_bounds(case: CaseData, n: int, g_n: int, d_n: int,
                critical_present: bool | None) -> CqnBounds:
    """Tightest refined bracket for c(Q^n), with strictness flags.
    critical_present (whether the critical pure-z term survives in
    Q^n) is read only in the three may-vanish configurations."""
    # l1 = p/q and l1 + l2 compare with 1 as _theorem_bracket compares them.
    p, q = case.l1.numerator, case.l1.denominator

    # Case 2's d = 0 upper bound: where z^{gamma_n} may cancel, c(Q^n)
    # can rise along the previous edge up to its w-intercept g_n / l1.
    if case.dominant_may_vanish and p < q:
        low = Fraction(g_n)
        if critical_present:
            return CqnBounds(low, Fraction(g_n * q, p), exact=low)
        return CqnBounds(low, Fraction(g_n * q, p), lower_strict=True)
    lsum = case.l1_plus_l2
    lsum_below_one = not is_inf(lsum) and lsum.numerator < lsum.denominator
    if p <= q and not lsum_below_one:
        return CqnBounds.exactly(g_n + d_n)  # l1 <= 1 <= l1 + l2
    full = Fraction(g_n + d_n)
    if p > q:
        low = Fraction(g_n * q + d_n * p, p)  # g_n / l1 + d^n
        if case.kind != CASE2:
            return CqnBounds(low, full, lower_strict=case.prev_vertex[0] > 0,
                             upper_strict=True)
        # Case 2 states its own strictness: at n = 1 and at delta = T,
        # with d = 0, and with the previous vertex on the w-axis.
        reached = n == 1 or case.delta_eq_t_prev
        if case.d == 0:
            return CqnBounds(low, full, lower_strict=not reached,
                             upper_strict=reached)
        if case.prev_vertex[0] == 0 and reached:
            return CqnBounds.exactly(low)
        return CqnBounds(low, full, lower_strict=True, upper_strict=True)
    p, q = lsum.numerator, lsum.denominator  # finite: l1 + l2 < 1 here
    low = Fraction(g_n * q + p * d_n, q)  # g_n + (l1 + l2) d^n
    if case.next_vertex[1] > 0:
        return CqnBounds(low, full, lower_strict=True, upper_strict=True)
    if not case.delta_eq_t_next:
        return CqnBounds.exactly(low)
    if critical_present:
        return CqnBounds(low, full, exact=low)
    return CqnBounds(low, full, lower_strict=True)


# -- adjacent polygon vertices ---------------------------------------------


class VertexClaim(NamedTuple):
    """A predicted Newton-polygon vertex adjacent to (gamma_n, d^n).

    The edge toward the dominant vertex has slope -1/edge_l, and
    delta^n compares to that line's y-intercept as recorded in
    intercept_rel ('less', 'equal' or 'greater').
    """

    side: str  # "prev" | "next"
    point: tuple
    tag: str  # "AB" | "ABstar" | "CD" | "CDstar"
    edge_l: Fraction
    intercept_rel: str

    def intercept_identity_holds(self, dominant: tuple, delta_pow: int) -> bool:
        # The intercept d_n + g_n / edge_l, scaled by the numerator
        # p > 0 of edge_l = p/q.
        g_n, d_n = dominant
        p, q = self.edge_l.numerator, self.edge_l.denominator
        scaled, intercept = delta_pow * p, d_n * p + g_n * q
        if self.intercept_rel == "less":
            return scaled < intercept
        if self.intercept_rel == "equal":
            return scaled == intercept
        return scaled > intercept


def _shifted(g_n: int, gamma: int, d: int, base: tuple, n: int) -> tuple:
    x, y = base
    return (g_n - (gamma - x) * d ** (n - 1), y * d ** (n - 1))


def _starred(delta: int, base: tuple, n: int) -> tuple:
    x, y = base
    return (x * geometric_sum(delta, y, n), y**n)


def _adjacent_vertices(case: CaseData, n: int, g_n: int):
    """(prev, next) VertexClaims where the case analysis asserts them:
    a side where the dominant vertex has that neighbour (the previous
    one only when d > 0), but not the starred next vertex where its
    term can cancel.  Absent sides are None."""
    delta, gamma, d = case.delta, case.gamma, case.d
    prev_claim = next_claim = None

    if case.prev_vertex is not None and d > 0:
        A = case.prev_vertex
        if case.delta_eq_t_prev:
            prev_claim = VertexClaim("prev", _starred(delta, A, n), "ABstar",
                                     case.l1, "equal")
        else:
            prev_claim = VertexClaim("prev", _shifted(g_n, gamma, d, A, n),
                                     "AB", case.l1, "less")

    if case.next_vertex is not None:
        C = case.next_vertex
        edge_l = case.l1_plus_l2
        if not case.delta_eq_t_next:
            next_claim = VertexClaim("next", _shifted(g_n, gamma, d, C, n),
                                     "CD", edge_l, "greater")
        elif C[1] > 0:
            next_claim = VertexClaim("next", _starred(delta, C, n), "CDstar",
                                     edge_l, "equal")

    return prev_claim, next_claim


def m_n_claim(case: CaseData, n: int) -> str | None:
    """Slope claim for the edge at the dominant vertex, where asserted.

    equals_M is carried by the VertexClaims themselves; this reports the
    inequality-only claims: the previous-edge slope strictly exceeds
    1/l1 for Case 2 with d = 0 away from the boundary (n >= 2), and the
    next-edge slope is at most 1/l2 for Case 3.
    """
    # The paper states each slope claim for its case only.
    if (case.kind == CASE2 and case.d == 0
            and not case.delta_eq_t_prev and n >= 2):
        return "greater_than_M"
    if case.kind == CASE3:
        return "at_most_M"
    return None


# -- asymptotics -----------------------------------------------------------


class AsymptoticRate(NamedTuple):
    c_infinity: int
    d_candidates: tuple

    def holds_for(self, observed):
        """Whether some candidate D satisfies D c_inf^n <= c(f^n) <= c_inf^n
        for every (n, c(f^n)) pair in observed."""
        ok_upper = all(c <= self.c_infinity**n for n, c in observed)
        if not ok_upper:
            return False
        return any(
            all(D * self.c_infinity**n <= c for n, c in observed)
            for D in self.d_candidates)


def asymptotic(f: SkewGerm, case: CaseData) -> AsymptoticRate:
    """c_infinity and the candidate lower constants D with
    D c_inf^n <= c(f^n) <= c_inf^n."""
    gamma, d, delta = case.gamma, case.d, case.delta
    c_inf = delta if gamma > 0 else min(delta, d)
    one = _ONE
    # The paper gives the lower constants case by case.
    if case.kind == CASE1:
        if gamma == 0:
            cands = (one,)
        elif d == 0:
            cands = (min(one, Fraction(gamma, delta)),)
        elif delta > d:
            cands = (min(case.alpha, one),)
        else:
            cands = (one,)
    elif case.kind == CASE2 and d == 0:
        cands = tuple(sorted(set(
            (one, Fraction(gamma, delta), Fraction(gamma, delta) / case.l1))))
    elif case.kind == CASE3 and gamma == 0:
        cands = tuple(sorted(set((one, case.l2))))
    else:
        if delta > d and case.alpha < one:
            cands = (case.alpha,)
        else:
            cands = (one,)
    return AsymptoticRate(c_inf, cands)


# -- assembled per-n record --------------------------------------------------


class WeightClaim(NamedTuple):
    l: Fraction
    value: Fraction
    exact: bool = True


class RatePrediction(NamedTuple):
    """Everything asserted about f^n for one case reading."""

    n: int
    gamma_n: int
    d_pow_n: int
    delta_pow_n: int
    dominant_coeff: object
    may_vanish: bool
    critical_present: bool | None
    weight_claims: tuple
    cqn: CqnBounds
    theorem_cqn: CqnBounds
    cfn_lower: Fraction
    cfn_upper: Fraction
    prev_vertex: VertexClaim | None
    next_vertex: VertexClaim | None
    m_n_claim: str | None
    ord_w_claim: int | None
    ord_z_claim: int | None
    dominant_position: str

    @property
    def dominant_bidegree(self):
        return (self.gamma_n, self.d_pow_n)

    @property
    def cfn_exact(self):
        return self.cfn_lower if self.cfn_lower == self.cfn_upper else None


def _dominant_position(case: CaseData) -> str:
    # One position string per kind; verify reads the vertex there.
    if case.kind == CASE1:
        return "only_vertex"
    if case.kind == CASE2:
        return "min_y_vertex_if_present" if case.dominant_may_vanish \
            else "min_y_vertex"
    if case.kind == CASE3:
        return "min_x_vertex"
    return "vertex"


def _at_most(bound: int, x: Fraction) -> Fraction:
    """min(bound, x), x itself where it is the smaller."""
    return x if x.numerator < bound * x.denominator else Fraction(bound)


def predict(f: SkewGerm, case: CaseData, n: int, ls=None,
            critical_present: bool | None = None) -> RatePrediction:
    """Assemble the full per-n prediction record for one case reading."""
    check_depth(n)
    growth = case.growth(n)
    g_n, d_n = growth.gamma[n], growth.d_pow[n]
    if case.may_vanish and critical_present is None:
        seq = critical_coeff_sequence(f, n)
        critical_present = bool(seq[n - 1]) if seq else None
    interval = equality_interval(case)
    claims = []
    for l in interval.sample_points() if ls is None else ls:
        l = as_fraction(l)
        a, b = l.numerator, l.denominator
        if not interval.contains_pair(a, b):
            raise PredictionRangeError(
                f"l = {l} is outside the equality range for {case.kind}")
        claims.append(WeightClaim(l, Fraction(g_n * b + a * d_n, b)))
    cqn = _cqn_bounds(case, n, g_n, d_n, critical_present)
    # c(f^n) = min(delta^n, c(Q^n))
    delta_n = growth.delta_pow[n]
    prev_claim, next_claim = _adjacent_vertices(case, n, g_n)
    # No vertex left of the dominant one fixes ord_z; none below it fixes
    # ord_w, which the paper claims for Case 2 only when d > 0.
    ord_z = g_n if case.prev_vertex is None else None
    ord_w = d_n if case.next_vertex is None and (
        case.d > 0 or case.prev_vertex is None) else None
    return RatePrediction(
        n=n,
        gamma_n=g_n,
        d_pow_n=d_n,
        delta_pow_n=delta_n,
        dominant_coeff=_dominant_coeff(f, case, growth, n),
        may_vanish=case.dominant_may_vanish,
        critical_present=critical_present,
        weight_claims=tuple(claims),
        cqn=cqn,
        theorem_cqn=_theorem_bracket(case, g_n, d_n),
        cfn_lower=_at_most(delta_n, cqn.lower),
        cfn_upper=_at_most(delta_n, cqn.upper),
        prev_vertex=prev_claim,
        next_vertex=next_claim,
        m_n_claim=m_n_claim(case, n),
        ord_w_claim=ord_w,
        ord_z_claim=ord_z,
        dominant_position=_dominant_position(case),
    )
