"""Run the brute-force iteration oracle against every prediction.

For each n up to n_max the oracle computes f^n exactly, reads off
c(Q^n), the orders, the Newton polygon and the sampled weights, and
compares them against the case analysis: weight equalities, rate
brackets with their exact strictness, adjacent-vertex identities, order
claims, vanishing events and the asymptotic-rate constants.  Boundary
germs admit several case readings at once; every applicable reading is
verified independently.

Every comparison is exact.  A failed check names the violated claim and
carries the oracle value; unproven statements (the dominant-coefficient
closed form) are reported as findings instead of failures.  A check's
outcome, and every value it compared, is computed when the check is
made; only its detail text waits: CheckResult.detail formats it from
those values on first read.  fuzz reads claims and outcomes only, so it
formats no detail.

predictions calls predict once for each n: the predictions that fit
under predict's digit guard, and the guard's error, if any.
verify_germ keeps the n that fit in every reading; the predict command
raises the error.

The checks that need no iterate (the R-map, the slope lemma and the
weight-interval systems, Case 4's rectangle probes included) read
gamma_n, d^n and delta^n off the reading's growth table and run on int
pairs (num, den) with den > 0, compared by cross-multiplication.  So do
the rate-bracket checks of each n, against predict's Fractions.

The checks read an iterate only through its Newton polygon (which fixes
the orders and the weights) and the coefficients of each reading's
dominant bidegree and critical pure-z term.  So verify_germ(...,
full_iterates=False), which fuzz uses, computes each Q^n from n = 2 on
with germ.vertex_step: only its terms at the vertices of its polygon,
summed from the vertex terms of Q^(n-1), and only where a certificate
shows the polygon and every point read are those of the full Q^n, with
the full step as the fallback.  The checks read p^n only through its
order, so such a step keeps of p^n only its lowest term, and builds no
polynomial product.  Its oracle records may then hold only the lowest
term of p^n and the vertex terms of Q^n (OracleRecord), and the report
is the one the default gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import gcd, lcm
from operator import attrgetter
from typing import NamedTuple

from .classify import (
    CASE1,
    CASE2,
    CASE3,
    CASE4,
    CaseData,
    case_variants,
    classify,
    equality_interval,
    r_map_pair,
    system_membership_case4_ar_pair,
    system_membership_case4_first_pair,
    system_membership_case4_second_pair,
    system_membership_pair,
    weight_intervals,
)
from .exact import INF, as_fraction, format_exact
from .germ import SkewGerm, iterates
from .growth import GrowthTable, check_depth
from .newton import newton_polygon, weight
from .poly import ResourceCapError, ResourceLimits
from .predict import asymptotic, critical_coeff_sequence, predict

# The deepest n the R-map checks read; the slope check reads n <= 6.
R_MAP_N_TOP = 10

# The exact scalars _format_detail renders by format_exact.
_EXACT = (int, Fraction, type(INF))


def _format_detail(template, values) -> str:
    """The text of a check's detail or of a finding: template(*values)
    for a function, else template.format(*values) with each exact scalar
    rendered by format_exact."""
    if type(template) is not str:
        return template(*values)
    return template.format(*[format_exact(v) if type(v) in _EXACT else v
                             for v in values])


class CheckResult:
    """Outcome of one exact comparison; passed=None is informational.

    An immutable record, equal, hashed and shown as a frozen dataclass
    of (claim, passed, n, detail) would be.  detail is a str, or a tuple
    (template, *values) of values bound when the check is made, which
    _format_detail turns into the str on first read; a caller that reads
    only claim and passed, as fuzz does, formats nothing.
    """

    __slots__ = ("_claim", "_passed", "_n", "_detail")

    def __init__(self, claim: str, passed: bool | None, n: int | None = None,
                 detail: str | tuple = "") -> None:
        self._claim = claim
        self._passed = passed
        self._n = n
        self._detail = detail

    claim = property(attrgetter("_claim"))
    passed = property(attrgetter("_passed"))
    n = property(attrgetter("_n"))

    @property
    def detail(self) -> str:
        detail = self._detail
        if type(detail) is not str:
            detail = self._detail = _format_detail(detail[0], detail[1:])
        return detail

    def _fields(self) -> tuple:
        return self._claim, self._passed, self._n, self.detail

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return (f"{type(self).__qualname__}(claim={self._claim!r}, "
                f"passed={self._passed!r}, n={self._n!r}, "
                f"detail={self.detail!r})")


class OracleRecord(NamedTuple):
    """Exact data read off the n-th iterate, compared as a tuple.

    germ is f^n in full, except under verify_germ(...,
    full_iterates=False): there, from n = 2 on, germ.p may hold only the
    lowest term of p^n and germ.q only the terms of Q^n at the vertices
    of its Newton polygon (germ.vertex_step).  Every other field is the
    full iterate's.
    """

    n: int
    germ: SkewGerm
    polygon: object
    c_qn: int
    ord_z: int
    ord_w: int
    c_pn: int
    c_fn: int
    delta_pow: int


@dataclass
class VariantReport:
    case: CaseData
    predictions: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    findings: list = field(default_factory=list)
    vanishing_first_n: int | None = None

    @property
    def failures(self) -> int:
        return sum(1 for c in self.checks if c.passed is False)


@dataclass
class VerificationReport:
    germ: SkewGerm
    n_max: int
    reached_n: int
    resource_error: str | None
    oracle: list
    variants: list

    @property
    def failures(self) -> int:
        return sum(v.failures for v in self.variants)

    @property
    def findings(self) -> list:
        out = []
        for v in self.variants:
            out.extend(f"{v.case.kind}[k={v.case.k}]: {msg}" for msg in v.findings)
        return out


def oracle_record(f: SkewGerm, n: int, fn: SkewGerm) -> OracleRecord:
    """The data the checks read off fn = f^n."""
    c_qn, ord_z, ord_w = fn.q.orders()
    c_pn = fn.delta  # the order of p^n
    return OracleRecord(
        n=n,
        germ=fn,
        polygon=newton_polygon(fn.q),
        c_qn=c_qn,
        ord_z=ord_z,
        ord_w=ord_w,
        c_pn=c_pn,
        c_fn=min(c_pn, c_qn),
        delta_pow=f.delta**n,
    )


def oracle_records(f: SkewGerm, n_max: int,
                   limits: ResourceLimits | None = None, cases=None):
    """Iterate the germ, keeping every n that fits in the resource caps.

    With cases, the readings whose checks will read the records, each
    f^n from n = 2 on may be germ.vertex_step's: only the lowest term of
    p^n and the terms of Q^n at the vertices of its Newton polygon.
    """
    reads = None if cases is None else partial(_read_points, cases)
    records = []
    error = None
    try:
        for n, fn in iterates(f, n_max, limits, reads):
            records.append(oracle_record(f, n, fn))
    except ResourceCapError as exc:
        error = str(exc)
    return records, error


def _critical_degree(case: CaseData, n: int) -> int:
    """The z-exponent of the critical pure-z term of Q^n of a reading
    that may vanish."""
    return case.polygon.vertex(case.s)[0] * case.delta ** (n - 1)


def _read_points(cases, n: int) -> list:
    """The exponents whose coefficients the checks read off Q^n: each
    reading's predicted dominant bidegree and, where it may vanish, its
    critical pure-z term.  None of them needs the iterate."""
    points = []
    for case in cases:
        # The table _verify_variant reads, built here once.
        growth = case.growth(max(n, R_MAP_N_TOP))
        points.append((growth.gamma[n], growth.d_pow[n]))
        if case.may_vanish:
            points.append((_critical_degree(case, n), 0))
    return points


def weight_samples(case: CaseData, extra_ls=()):
    """The sampled weights of a case reading, as (claimed, outside).

    `claimed` holds the equality interval's sample points and every
    extra l inside the interval, sorted; w_l(Q^n) is claimed at these
    only.  `outside` holds the other extras in their given order, each
    value once.
    """
    interval = equality_interval(case)
    ls = interval.sample_points()
    outside = []
    for l in extra_ls:
        if interval.contains(l):
            if l not in ls:
                ls.append(l)
        elif l not in outside:
            outside.append(l)
    ls.sort()
    return ls, outside


def predictions(f: SkewGerm, case: CaseData, n_max: int, ls):
    """(preds, crit_seq, error): predict(f, case, n) for n = 1 .. n_max,
    and the critical sequence.

    The critical pure-z coefficients come from their recursion when the
    reading may vanish (None otherwise); each prediction reads whether
    its own coefficient is nonzero.  Where predict's digit guard trips
    at some n, preds stops before it and error is the ResourceCapError
    (None otherwise).
    """
    check_depth(n_max)
    crit_seq = critical_coeff_sequence(f, n_max) if case.may_vanish else None
    preds = []
    try:
        for n in range(1, n_max + 1):
            preds.append(predict(
                f, case, n, ls=ls,
                critical_present=bool(crit_seq[n - 1]) if crit_seq else None))
    except ResourceCapError as exc:
        return preds, crit_seq, exc
    return preds, crit_seq, None


def verify_germ(f: SkewGerm, n_max: int, extra_ls=(),
                limits: ResourceLimits | None = None,
                full_iterates: bool = True) -> VerificationReport:
    """Full exact verification of every applicable case reading.

    Where a resource cap trips, in the oracle or in predict's digit
    guard, the report keeps every n up to the deepest one whose iterate
    and predictions fit, and resource_error says which cap tripped.

    With full_iterates=False the iterates come from germ.vertex_step
    where it is certified, so each record's germ.p may be only the
    lowest term of p^n and its germ.q only the terms of Q^n at the
    vertices of its Newton polygon; every check reads the same values.
    """
    cases = case_variants(f)
    records, error = oracle_records(f, n_max, limits,
                                    None if full_iterates else cases)
    extra_ls = tuple(map(as_fraction, extra_ls))
    readings = []
    for case in cases:
        ls, outside = weight_samples(case, extra_ls)
        # One growth table serves every prediction and the R-map checks.
        case.growth(max(records[-1].n, R_MAP_N_TOP))
        preds, crit_seq, cap = predictions(f, case, records[-1].n, ls)
        if cap is not None:
            # Every reading reads the same records: keep the n whose
            # predictions fit in each.
            if not preds:
                raise cap
            records, error = records[:len(preds)], str(cap)
        readings.append((ls, outside, preds, crit_seq))
    variants = [_verify_variant(f, case, records, reading)
                for case, reading in zip(cases, readings)]
    return VerificationReport(
        germ=f,
        n_max=n_max,
        reached_n=records[-1].n,
        resource_error=error,
        oracle=records,
        variants=variants,
    )


def _verify_variant(f: SkewGerm, case: CaseData, records, reading):
    """The checks of one case reading against the oracle records.

    reading is (ls, outside, preds, crit_seq): the reading's weight
    samples and its predictions for n = 1 .. records[-1].n at least, as
    verify_germ computes them before it runs any checks.
    """
    # One growth table serves every prediction and the R-map checks.
    growth = case.growth(max(records[-1].n, R_MAP_N_TOP))
    ls, outside, preds, crit_seq = reading
    rep = VariantReport(case=case, predictions=preds[:len(records)])
    _per_n_checks(case, records, rep, outside, crit_seq)
    out = rep.checks.append

    # Variant-level claims over all computed n.
    ar = asymptotic(f, case)
    observed = [(rec.n, rec.c_fn) for rec in records]
    out(CheckResult("asymptotic-rate-bracket", ar.holds_for(observed), None,
                    (_asymptotic_detail, ar)))

    # Only Case 2 with d > 0 claims its interval for the iterates.
    if case.kind == CASE2 and case.d > 0:
        base = weight_intervals(case).i_f
        for rec in records:
            if rec.n > 3:
                break
            sub = classify(rec.germ)
            same = (sub.kind == CASE2
                    and weight_intervals(sub).i_f == base)
            out(CheckResult("interval-stability", same, rec.n,
                            ("iterate classified {}", sub.kind)))

    _r_map_checks(case, ls, growth, out)
    _slope_lemma_check(case, growth, out)
    _interval_system_checks(f, case, out)
    return rep


def _per_n_checks(case: CaseData, records, rep: VariantReport, outside,
                  crit_seq) -> None:
    """The checks of each record against the prediction for its n, onto
    rep.checks; the findings and the first vanishing n go on rep too."""
    out = rep.checks.append
    for rec, pred in zip(records, rep.predictions):
        n = rec.n
        Q = rec.germ.q
        dom = pred.dominant_bidegree
        dom_obs = Q.coeff(*dom)

        out(CheckResult("p-iterate-order", rec.c_pn == rec.delta_pow, n,
                        ("order(p^n) = {}, delta^n = {}", rec.c_pn,
                         rec.delta_pow)))

        # Dominant term: presence is asserted whenever it cannot cancel.
        dom_detail = ("coefficient of z^{} w^{} is {}", dom[0], dom[1],
                      dom_obs)
        if case.dominant_may_vanish:
            out(CheckResult("dominant-presence-conditional", None, n,
                            dom_detail))
        else:
            out(CheckResult("dominant-term-presence", bool(dom_obs), n,
                            dom_detail))
            if dom_obs:
                out(CheckResult(
                    "dominant-coefficient-closed-form", None, n,
                    ("observed {}, closed form {}", dom_obs,
                     pred.dominant_coeff)))
                if dom_obs != pred.dominant_coeff:
                    rep.findings.append(_format_detail(
                        "n={}: dominant coefficient {} differs from closed "
                        "form {}", (n, dom_obs, pred.dominant_coeff)))

        # Critical pure-z coefficient: recursion must match the oracle.
        if crit_seq is not None:
            crit_deg = _critical_degree(case, n)
            obs = Q.coeff(crit_deg, 0)
            out(CheckResult(
                "critical-coefficient-recursion", obs == crit_seq[n - 1], n,
                ("z^{}: oracle {}, recursion {}", crit_deg, obs,
                 crit_seq[n - 1])))
            if not obs:
                if rep.vanishing_first_n is None:
                    rep.vanishing_first_n = n
                rep.findings.append(_format_detail(
                    "vanishing event at n={} (z^{})", (n, crit_deg)))

        # Dominant vertex position; idx is its place in the chain.
        verts = rec.polygon.vertices
        idx = verts.index(dom) if dom in verts else None
        pos = pred.dominant_position
        if pos == "only_vertex":
            out(CheckResult("dominant-only-vertex", verts == (dom,), n,
                            ("vertices {}", verts)))
        elif pos == "min_x_vertex":
            out(CheckResult("dominant-min-x-vertex", verts[0] == dom, n,
                            ("vertices {}, dominant {}", verts, dom)))
        elif pos == "vertex":
            out(CheckResult("dominant-vertex", idx is not None, n,
                            ("vertices {}, dominant {}", verts, dom)))
        elif pos == "min_y_vertex" or dom_obs:
            # min_y_vertex_if_present claims it only where the term is.
            out(CheckResult("dominant-min-y-vertex", verts[-1] == dom, n,
                            ("vertices {}, dominant {}", verts, dom)))

        # Weight equalities on the sampled l values.
        for claim in pred.weight_claims:
            obs_w = weight(Q, claim.l)
            out(CheckResult(
                "weight-equality", obs_w == claim.value, n,
                ("w_{}(Q^n) = {}, claimed {}", claim.l, obs_w, claim.value)))
        for l in outside:
            out(CheckResult(
                "weight-sample-outside-range", None, n,
                ("w_{}(Q^n) = {} (no claim)", l, weight(Q, l))))

        # Rate brackets.
        c = rec.c_qn
        cq = pred.cqn
        if cq.exact is not None:
            out(CheckResult("cqn-exact", c == cq.exact, n,
                            ("c(Q^n) = {}, claimed {}", c, cq.exact)))
        else:
            ok_lo = _above(c, cq.lower, cq.lower_strict)
            ok_up = _below(c, cq.upper, cq.upper_strict)
            rel_lo = ">" if cq.lower_strict else ">="
            rel_up = "<" if cq.upper_strict else "<="
            out(CheckResult("cqn-refined-lower", ok_lo, n,
                            ("c(Q^n) = {} {} {}", c, rel_lo, cq.lower)))
            out(CheckResult("cqn-refined-upper", ok_up, n,
                            ("c(Q^n) = {} {} {}", c, rel_up, cq.upper)))
        tb = pred.theorem_cqn
        out(CheckResult(
            "cqn-base-bracket", _above(c, tb.lower) and _below(c, tb.upper),
            n, ("{} <= {} <= {}", tb.lower, c, tb.upper)))

        c_fn = rec.c_fn
        out(CheckResult("cfn-identity", c_fn == min(rec.delta_pow, c), n,
                        ("c(f^n) = {}", c_fn)))
        out(CheckResult(
            "cfn-bracket",
            _above(c_fn, pred.cfn_lower) and _below(c_fn, pred.cfn_upper), n,
            ("{} <= {} <= {}", pred.cfn_lower, c_fn, pred.cfn_upper)))

        # Order claims.
        if pred.ord_w_claim is not None:
            out(CheckResult("order-in-w", rec.ord_w == pred.ord_w_claim, n,
                            ("ord_w = {}, claimed {}", rec.ord_w,
                             pred.ord_w_claim)))
        if pred.ord_z_claim is not None:
            out(CheckResult("order-in-z", rec.ord_z == pred.ord_z_claim, n,
                            ("ord_z = {}, claimed {}", rec.ord_z,
                             pred.ord_z_claim)))

        # Adjacent vertices.
        for vc in (pred.prev_vertex, pred.next_vertex):
            if vc is None:
                continue
            name = f"{vc.side}-vertex"
            if idx is None:
                out(CheckResult(name, False, n,
                                ("dominant {} is not a vertex", dom)))
                continue
            adj_idx = idx - 1 if vc.side == "prev" else idx + 1
            ok_pos = 0 <= adj_idx < len(verts) and verts[adj_idx] == vc.point
            out(CheckResult(name, ok_pos, n,
                            ("claimed {} = {}, chain {}", vc.tag, vc.point,
                             verts)))
            if ok_pos:
                # The slope rise/run of the edge between two distinct
                # vertices (so run != 0) against -1/edge_l, edge_l > 0.
                rise, run = vc.point[1] - dom[1], vc.point[0] - dom[0]
                l = vc.edge_l
                out(CheckResult(
                    f"{vc.side}-vertex-slope",
                    rise * l.numerator == -run * l.denominator, n,
                    (_slope_detail, rise, run, l)))
            out(CheckResult(
                f"{vc.side}-vertex-intercept-side",
                vc.intercept_identity_holds(dom, rec.delta_pow), n,
                ("delta^n = {} vs intercept of the {} edge", rec.delta_pow,
                 vc.tag)))

        # Slope inequalities at the dominant vertex.
        if pred.m_n_claim == "greater_than_M" and idx is not None:
            if idx == 0:
                out(CheckResult("prev-slope-exceeds-base", True, n,
                                "no previous vertex (slope infinite)"))
            else:
                pv = verts[idx - 1]
                m_n = Fraction(pv[1] - dom[1], dom[0] - pv[0])
                base = 1 / case.l1
                out(CheckResult("prev-slope-exceeds-base", m_n > base, n,
                                ("M_n = {} vs 1/l1 = {}", m_n, base)))
        elif pred.m_n_claim == "at_most_M" and idx is not None:
            if idx == len(verts) - 1:
                out(CheckResult("next-slope-at-most-base", None, n,
                                "no next vertex (vacuous)"))
            else:
                nv = verts[idx + 1]
                m_n = Fraction(dom[1] - nv[1], nv[0] - dom[0])
                base = 1 / case.l2
                out(CheckResult("next-slope-at-most-base", m_n <= base, n,
                                ("M_n = {} vs 1/l2 = {}", m_n, base)))


def _above(c: int, x, strict: bool = False) -> bool:
    """c > x if strict, else c >= x, for an int c and an exact x = p/q
    (q > 0), compared as c*q against p."""
    c_q, p = c * x.denominator, x.numerator
    return c_q > p if strict else c_q >= p


def _below(c: int, x, strict: bool = False) -> bool:
    """c < x if strict, else c <= x, as _above compares them."""
    c_q, p = c * x.denominator, x.numerator
    return c_q < p if strict else c_q <= p


def _slope_detail(rise: int, run: int, edge_l: Fraction) -> str:
    return f"slope {Fraction(rise, run)}, claimed -1/{format_exact(edge_l)}"


def _asymptotic_detail(ar) -> str:
    return (f"c_inf = {ar.c_infinity}, candidates "
            f"{[format_exact(x) for x in ar.d_candidates]}")


def _pair_le(x: tuple, y: tuple) -> bool:
    return x[0] * y[1] <= y[0] * x[1]


def _pair_eq(x: tuple, y: tuple) -> bool:
    return x[0] * y[1] == y[0] * x[1]


def _r_map_checks(case: CaseData, ls, growth: GrowthTable, out,
                  n_top: int = R_MAP_N_TOP):
    # Case 1 claims no R-map, and each other case moves l its own way.
    if case.kind == CASE1:
        return
    interval = equality_interval(case)
    gamma, d, delta = case.gamma, case.d, case.delta
    g, d_pow, delta_pow = growth.gamma, growth.d_pow, growth.delta_pow

    def r_n(n, v):
        return r_map_pair(g[n], d_pow[n], delta_pow[n], *v)

    alpha = case.alpha
    alpha_pair = None if alpha is None else (alpha.numerator,
                                             alpha.denominator)
    for l in ls[:3]:
        label = ("l = {}", l)
        start = (l.numerator, l.denominator)
        # R iterated one step at a time against the closed form, which
        # reads gamma_n off the table (gamma_0 = 0, so n = 0 is l).
        seq = [start]
        for _ in range(n_top):
            seq.append(r_map_pair(gamma, d, delta, *seq[-1]))
        closed_ok = all(
            _pair_eq(r_map_pair(g[n], d_pow[n], delta_pow[n], *start), v)
            for n, v in enumerate(seq))
        out(CheckResult("r-map-closed-form", closed_ok, None, label))
        out(CheckResult(
            "r-map-stays-in-interval",
            all(interval.contains_pair(*v) for v in seq), None, label))
        steps = list(zip(seq, seq[1:]))
        if case.kind == CASE2:
            mono = all(_pair_le(x, y) for x, y in steps)
        elif case.kind == CASE3:
            mono = all(_pair_le(y, x) for x, y in steps)
        else:
            if alpha is None or l == alpha:
                mono = all(_pair_eq(v, start) for v in seq)
            elif l < alpha:
                mono = all(_pair_le(x, y) and _pair_le(y, alpha_pair)
                           for x, y in steps)
            else:
                mono = all(_pair_le(y, x) and _pair_le(alpha_pair, y)
                           for x, y in steps)
        out(CheckResult("r-map-monotone", mono, None, label))
        semi = all(_pair_eq(r_n(a + b, start), r_n(a, r_n(b, start)))
                   for a, b in ((1, 1), (1, 2), (2, 3)))
        out(CheckResult("r-map-semigroup", semi, None, label))


def _slope_lemma_check(case: CaseData, growth: GrowthTable, out,
                       n_top: int = 6):
    if case.gamma <= 0:
        return
    # The slope (d^n - delta^n) / gamma_n of each n against n = 1.
    g, d_pow, delta_pow = growth.gamma, growth.d_pow, growth.delta_pow
    rise, run = d_pow[1] - delta_pow[1], g[1]
    same = all((d_pow[n] - delta_pow[n]) * run == rise * g[n]
               for n in range(2, n_top + 1))
    if same:
        slopes = ((rise, run),)
    else:
        slopes = tuple((d_pow[n] - delta_pow[n], g[n])
                       for n in range(1, n_top + 1))
    out(CheckResult("iterate-anchor-slope-constant", same, None,
                    (_slopes_detail, slopes)))


def _slopes_detail(slopes) -> str:
    """The distinct slopes rise/run, as sorted strings."""
    distinct = {Fraction(rise, run) for rise, run in slopes}
    return f"slopes {sorted(map(format_exact, distinct))}"


# The offsets 0, 1/7, 1/2 and 1, and the fixed probes 1/3, 1 and 3, as
# (numerator, denominator).
_PROBE_OFFSETS = ((0, 1), (1, 7), (1, 2), (1, 1))
_FIXED_PROBES = ((1, 3), (1, 1), (3, 1))


def _probe_values(*anchors):
    """The distinct positive probes as reduced (num, den) pairs, in
    increasing order."""
    # Anchor p/q minus or plus offset r/s is (p*s -+ r*q) / (q*s).
    vals = set(_FIXED_PROBES)
    for a in anchors:
        if not isinstance(a, (int, Fraction)):  # no alpha, or INF
            continue
        p, q = a.numerator, a.denominator
        for r, s in _PROBE_OFFSETS:
            den = q * s
            for num in (p * s - r * q, p * s + r * q):
                if num > 0:
                    k = gcd(num, den)
                    vals.add((num // k, den // k))
    # Over a common denominator the numerators order the values exactly.
    common = lcm(*(den for _, den in vals))
    return sorted(vals, key=lambda v: v[0] * (common // v[1]))


def _interval_system_checks(f: SkewGerm, case: CaseData, out):
    iv = weight_intervals(case)
    probes = _probe_values(case.l1, case.l1_plus_l2, case.alpha)
    # Case 4 alone defines its weights by the staged systems.
    if case.kind != CASE4:
        ok = all(iv.i_f.contains_pair(a, b)
                 == system_membership_pair(f, case, a, b)
                 for a, b in probes)
        out(CheckResult("interval-system-agreement", ok, None,
                        ("{} probes", len(probes))))
        return
    rect = iv.i_f
    for suffix, interval, system in (
            ("first", rect.first, system_membership_case4_first_pair),
            ("ar", iv.i_f_ar, system_membership_case4_ar_pair)):
        ok = all(interval.contains_pair(a, b) == system(case, a, b)
                 for a, b in probes)
        out(CheckResult(f"interval-system-agreement-{suffix}", ok, None,
                        ("{} probes", len(probes))))
    # The pairs (l_(1), l_(1) + l_(2)) of the first six probes; the
    # staged systems read l_(2) = a_s/b_s - a1/b1 over b1*b_s.
    pair_probes = probes[:6]
    pair_ok = all(
        rect.contains_pair(a1, b1, a_s, b_s)
        == (system_membership_case4_first_pair(case, a1, b1)
            and system_membership_case4_second_pair(
                f, case, a1, b1, a_s * b1 - a1 * b_s, b1 * b_s))
        for a1, b1 in pair_probes for a_s, b_s in pair_probes)
    out(CheckResult("interval-system-agreement-pairs", pair_ok, None,
                    "rectangle probes"))
