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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .classify import (
    CASE1,
    CASE2,
    CASE3,
    CaseData,
    equality_interval,
)
from .exact import as_coeff, as_fraction
from .germ import SkewGerm
from .growth import gamma_n, geometric_sum, iterate_lead_coeff
from .newton import newton_polygon, support_on_edge


class PredictionRangeError(ValueError):
    """A weight was requested outside the claimed equality range."""


class ConfigurationError(ValueError):
    """An operation was called outside its applicable configuration."""


# -- elementary quantities ------------------------------------------------


def dominant_term(f: SkewGerm, case: CaseData, n: int):
    """(coefficient, bidegree) of z^{gamma_n} w^{d^n} in Q^n.

    The coefficient a_delta^(gamma_{n-1}+...+gamma_1) *
    b^(d^{n-1}+...+1) is proven only where the term cannot cancel; for
    may-vanish configurations it is advisory and must be confirmed
    against the oracle.
    """
    delta, g, d = case.delta, case.gamma, case.d
    bidegree = (gamma_n(delta, g, d, n), d**n)
    a_exp = sum(gamma_n(delta, g, d, k) for k in range(1, n))
    b_exp = sum(d**k for k in range(n))
    b = f.q.coeff(g, d)
    coeff = as_coeff(Fraction(f.a_delta) ** a_exp * Fraction(b) ** b_exp)
    return coeff, bidegree


def predict_weight(f: SkewGerm, case: CaseData, n: int, l):
    """(w_l(Q^n), exact=True) for l in the case's equality interval."""
    l = as_fraction(l)
    _check_in_range(equality_interval(case), case, l)
    return _weight_value(gamma_n(case.delta, case.gamma, case.d, n),
                         case.d**n, l), True


def _check_in_range(interval, case: CaseData, l: Fraction) -> None:
    if not interval.contains(l):
        raise PredictionRangeError(
            f"l = {l} is outside the equality range for {case.kind}")


def _weight_value(g_n: int, d_n: int, l: Fraction) -> Fraction:
    """gamma_n + l d^n, built once from ints."""
    b = l.denominator
    return Fraction(g_n * b + l.numerator * d_n, b)


# -- critical pure-z coefficient recursion --------------------------------


def critical_edge_config(f: SkewGerm):
    """The bottom-edge configuration in which a pure power of z on the
    critical line can cancel: last vertex (G, 0) on the x-axis with the
    last intercept equal to delta.  Returns (G, edge support, edge l)
    or None."""
    polygon = newton_polygon(f.q)
    s = polygon.s
    if s < 2:
        return None
    G, m_s = polygon.vertex(s)
    if m_s != 0:
        return None
    if polygon.intercept(s - 1) != f.delta:
        return None
    prev = polygon.vertex(s - 1)
    l_edge = Fraction(G - prev[0], prev[1])
    return G, support_on_edge(f.q, (G, 0), l_edge), l_edge


def critical_coeff_sequence(f: SkewGerm, n_max: int):
    """Exact coefficients c_n of z^{G delta^{n-1}} in Q^n, n = 1..n_max.

    Only the critical edge feeds this bidegree: every other term has
    strictly larger weight, so c_{n+1} = sum over edge points (I, J) of
    a_n^I b_IJ c_n^J with a_n the lowest coefficient of p^n.  Returns
    None outside the critical configuration.
    """
    cfg = critical_edge_config(f)
    if cfg is None:
        return None
    G, edge, _ = cfg
    coeffs = {pt: f.q.coeff(*pt) for pt in edge}
    seq = [as_coeff(Fraction(coeffs[(G, 0)]))]
    for n in range(1, n_max):
        a_n = Fraction(iterate_lead_coeff(f.a_delta, f.delta, n))
        c_n = Fraction(seq[-1])
        c_next = sum(
            (a_n**I * coeffs[(I, J)] * c_n**J for (I, J) in edge),
            start=Fraction(0),
        )
        seq.append(as_coeff(c_next))
    return seq


def vanishing_sum(f: SkewGerm, case: CaseData):
    """The cancellation criterion for the first iterate's pure-z term.

    Applicable only to Case 2 with d = 0 at the delta = T boundary:
    z^{gamma_2} cancels in Q^2 exactly when the edge sum
    sum a_delta^I b_IJ b_{gamma,0}^J over support points with
    I + l1 J = gamma is zero.
    """
    if not case.dominant_may_vanish:
        raise ConfigurationError(
            "vanishing_sum applies to Case 2 with d = 0 and delta = T only")
    edge = support_on_edge(f.q, (case.gamma, 0), case.l1)
    b0 = Fraction(f.q.coeff(case.gamma, 0))
    total = sum(
        (Fraction(f.a_delta) ** I * f.q.coeff(I, J) * b0**J for I, J in edge),
        start=Fraction(0),
    )
    total = as_coeff(total)
    return total, total == 0


# -- c(Q^n) brackets -------------------------------------------------------


@dataclass(frozen=True)
class CqnBounds:
    lower: Fraction
    upper: Fraction
    lower_strict: bool = False
    upper_strict: bool = False
    exact: Fraction | None = None

    @staticmethod
    def exactly(value) -> "CqnBounds":
        value = Fraction(value)
        return CqnBounds(value, value, exact=value)


def theorem_bracket(case: CaseData, n: int) -> CqnBounds:
    """The unrefined bracket that holds in every configuration:
    g_n / max(l1, 1) + min(l1 + l2, 1) d^n <= c(Q^n) <= g_n + d^n."""
    g_n = gamma_n(case.delta, case.gamma, case.d, n)
    d_n = case.d**n
    one = Fraction(1)
    # Case 1's single vertex fixes c(Q^n) exactly.
    if case.kind == CASE1:
        return CqnBounds.exactly(g_n + d_n)
    lower = g_n / max(case.l1, one) + min(case.l1_plus_l2, one) * d_n
    # With d = 0 (Case 2) the theorem allows z^{gamma_n} to cancel, so
    # its upper end is the previous edge's w-intercept.
    if case.d == 0:
        return CqnBounds(lower, g_n / min(case.l1, one))
    return CqnBounds(lower, Fraction(g_n + d_n))


def predict_cqn_bounds(f: SkewGerm, case: CaseData, n: int,
                       critical_present: bool | None = None) -> CqnBounds:
    """Tightest refined bracket for c(Q^n), with strictness flags.

    critical_present reports whether the critical pure-z term survives
    in Q^n (computed via critical_coeff_sequence when omitted); it is
    consulted only in the three may-vanish configurations.
    """
    if case.may_vanish and critical_present is None:
        seq = critical_coeff_sequence(f, n)
        critical_present = bool(seq[n - 1]) if seq else None
    g_n = Fraction(gamma_n(case.delta, case.gamma, case.d, n))
    d_n = case.d**n
    full = g_n + d_n
    one = Fraction(1)
    l1, lsum = case.l1, case.l1_plus_l2

    # Case 2's d = 0 upper bound: where z^{gamma_n} may cancel, c(Q^n)
    # can rise along the previous edge up to its w-intercept g_n / l1.
    if case.dominant_may_vanish and l1 < one:
        if critical_present:
            return CqnBounds(g_n, g_n / l1, exact=g_n)
        return CqnBounds(g_n, g_n / l1, lower_strict=True)
    if l1 <= one <= lsum:
        return CqnBounds.exactly(full)
    if l1 > one:
        low = g_n / l1 + d_n
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
    low = g_n + lsum * d_n
    if case.next_vertex[1] > 0:
        return CqnBounds(low, full, lower_strict=True, upper_strict=True)
    if not case.delta_eq_t_next:
        return CqnBounds.exactly(low)
    if critical_present:
        return CqnBounds(low, full, exact=low)
    return CqnBounds(low, full, lower_strict=True)


def predict_cfn(f: SkewGerm, case: CaseData, n: int,
                cqn: CqnBounds | None = None):
    """Bracket for c(f^n) = min(delta^n, c(Q^n))."""
    if cqn is None:
        cqn = predict_cqn_bounds(f, case, n)
    dp = Fraction(case.delta**n)
    return min(dp, cqn.lower), min(dp, cqn.upper)


# -- adjacent polygon vertices ---------------------------------------------


@dataclass(frozen=True)
class VertexClaim:
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
        g_n, d_n = dominant
        intercept = d_n + Fraction(g_n) / self.edge_l
        if self.intercept_rel == "less":
            return delta_pow < intercept
        if self.intercept_rel == "equal":
            return delta_pow == intercept
        return delta_pow > intercept


def _shifted(g_n: int, gamma: int, d: int, base: tuple, n: int) -> tuple:
    x, y = base
    return (g_n - (gamma - x) * d ** (n - 1), y * d ** (n - 1))


def _starred(delta: int, base: tuple, n: int) -> tuple:
    x, y = base
    return (x * geometric_sum(delta, y, n), y**n)


def predict_adjacent_vertices(f: SkewGerm, case: CaseData, n: int):
    """(prev, next) VertexClaims where the case analysis asserts them.

    A side is claimed where the dominant vertex has that neighbour
    (the previous one only when d > 0); the starred next vertex is not
    claimed when its term can cancel.  Absent sides return None.
    """
    delta, gamma, d = case.delta, case.gamma, case.d
    g_n = gamma_n(delta, gamma, d, n)
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


@dataclass(frozen=True)
class AsymptoticRate:
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
    one = Fraction(1)
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


@dataclass(frozen=True)
class WeightClaim:
    l: Fraction
    value: Fraction
    exact: bool = True


@dataclass(frozen=True)
class RatePrediction:
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


def predict(f: SkewGerm, case: CaseData, n: int, ls=None,
            critical_present: bool | None = None) -> RatePrediction:
    """Assemble the full per-n prediction record for one case reading."""
    delta, gamma, d = case.delta, case.gamma, case.d
    g_n = gamma_n(delta, gamma, d, n)
    d_n = d**n
    if case.may_vanish and critical_present is None:
        seq = critical_coeff_sequence(f, n)
        critical_present = bool(seq[n - 1]) if seq else None
    interval = equality_interval(case)
    if ls is None:
        ls = interval.sample_points()
    claims = []
    for l in ls:
        l = as_fraction(l)
        _check_in_range(interval, case, l)
        claims.append(WeightClaim(l, _weight_value(g_n, d_n, l)))
    cqn = predict_cqn_bounds(f, case, n, critical_present)
    cfn_lower, cfn_upper = predict_cfn(f, case, n, cqn)
    coeff, _ = dominant_term(f, case, n)
    prev_claim, next_claim = predict_adjacent_vertices(f, case, n)
    # No vertex left of the dominant one fixes ord_z; none below it fixes
    # ord_w, which the paper claims for Case 2 only when d > 0.
    ord_z = g_n if case.prev_vertex is None else None
    ord_w = d_n if case.next_vertex is None and (
        d > 0 or case.prev_vertex is None) else None
    return RatePrediction(
        n=n,
        gamma_n=g_n,
        d_pow_n=d_n,
        delta_pow_n=delta**n,
        dominant_coeff=coeff,
        may_vanish=case.dominant_may_vanish,
        critical_present=critical_present,
        weight_claims=tuple(claims),
        cqn=cqn,
        theorem_cqn=theorem_bracket(case, n),
        cfn_lower=cfn_lower,
        cfn_upper=cfn_upper,
        prev_vertex=prev_claim,
        next_vertex=next_claim,
        m_n_claim=m_n_claim(case, n),
        ord_w_claim=ord_w,
        ord_z_claim=ord_z,
        dominant_position=_dominant_position(case),
    )
