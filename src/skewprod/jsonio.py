"""Schema-stable JSON views of the domain records.

Integer-valued lattice data (exponents, degrees, counts) serializes as
JSON integers; every rational serializes as a decimal string "a" or
"a/b" ("inf" for the unbounded endpoint), never as a float, so
consumers cannot lose exactness to binary floating point.
"""

from __future__ import annotations

from .classify import (CASE4, CaseData, CaseFourRectangle, Interval,
                       equality_interval, weight_intervals)
from .exact import format_exact
from .fuzz import FuzzSummary
from .germ import SkewGerm
from .newton import NewtonPolygon
from .poly import format_poly
from .predict import AsymptoticRate, RatePrediction, VertexClaim
from .verify import VerificationReport


def rat(x) -> str | None:
    if x is None:
        return None
    return format_exact(x)


def point_json(pt):
    if pt is None:
        return None
    return [int(pt[0]), int(pt[1])]


def interval_json(iv: Interval) -> dict:
    return {
        "lower": rat(iv.lower),
        "upper": rat(iv.upper),
        "lower_closed": iv.lower_closed,
        "upper_closed": iv.upper_closed,
    }


def polygon_json(polygon: NewtonPolygon) -> dict:
    return {
        "vertices": [point_json(v) for v in polygon.vertices],
        "intercepts": [rat(t) for t in polygon.intercepts],
    }


def germ_json(f: SkewGerm) -> dict:
    return {
        "p": format_poly(f.p),
        "q": format_poly(f.q),
        "delta": f.delta,
        "a_delta": rat(f.a_delta),
    }


def case_json(case: CaseData) -> dict:
    interval = equality_interval(case)
    out = {
        "case": case.kind,
        "applicable": list(case.applicable),
        "delta": case.delta,
        "a_delta": rat(case.a_delta),
        "s": case.s,
        "k": case.k,
        "gamma": case.gamma,
        "d": case.d,
        "l1": rat(case.l1),
        "l2": rat(case.l2),
        "alpha": rat(case.alpha),
        "boundary": {
            "delta_eq_t_prev": case.delta_eq_t_prev,
            "delta_eq_t_next": case.delta_eq_t_next,
        },
        "polygon": polygon_json(case.polygon),
        "may_vanish": case.may_vanish,
        "interval": [rat(interval.lower), rat(interval.upper)],
        "interval_detail": interval_json(interval),
    }
    if case.kind == CASE4:
        iv = weight_intervals(case)
        rect: CaseFourRectangle = iv.i_f
        out["interval_first"] = interval_json(iv.i_f1)
        out["rectangle"] = {
            "shape": rect.shape,
            "first": interval_json(rect.first),
            "excluded_corner": [rat(x) for x in rect.excluded_corner]
            if rect.excluded_corner else None,
        }
    return out


def _vertex_claim_json(vc: VertexClaim | None):
    if vc is None:
        return None
    return {
        "point": point_json(vc.point),
        "tag": vc.tag,
        "edge_l": rat(vc.edge_l),
        "intercept_rel": vc.intercept_rel,
    }


def prediction_json(pred: RatePrediction) -> dict:
    return {
        "n": pred.n,
        "gamma_n": pred.gamma_n,
        "d_n": pred.d_pow_n,
        "delta_n": pred.delta_pow_n,
        "dominant": {
            "bidegree": point_json(pred.dominant_bidegree),
            "coeff": rat(pred.dominant_coeff),
            "may_vanish": pred.may_vanish,
            "critical_present": pred.critical_present,
        },
        "weights": [
            {"l": rat(w.l), "value": rat(w.value), "exact": w.exact}
            for w in pred.weight_claims
        ],
        "c_qn": {
            "lower": rat(pred.cqn.lower),
            "upper": rat(pred.cqn.upper),
            "lower_strict": pred.cqn.lower_strict,
            "upper_strict": pred.cqn.upper_strict,
            "exact": rat(pred.cqn.exact),
        },
        "c_qn_base": {
            "lower": rat(pred.theorem_cqn.lower),
            "upper": rat(pred.theorem_cqn.upper),
        },
        "c_fn": {
            "lower": rat(pred.cfn_lower),
            "upper": rat(pred.cfn_upper),
            "exact": rat(pred.cfn_exact),
        },
        "prev_vertex": _vertex_claim_json(pred.prev_vertex),
        "next_vertex": _vertex_claim_json(pred.next_vertex),
        "m_n_claim": pred.m_n_claim,
        "ord_w": pred.ord_w_claim,
        "ord_z": pred.ord_z_claim,
        "dominant_position": pred.dominant_position,
    }


def asymptotic_json(ar: AsymptoticRate) -> dict:
    return {
        "c_infinity": ar.c_infinity,
        "d_candidates": [rat(x) for x in ar.d_candidates],
    }


def verification_json(report: VerificationReport) -> dict:
    return {
        "germ": germ_json(report.germ),
        "n_max": report.n_max,
        "reached_n": report.reached_n,
        "resource_error": report.resource_error,
        "failures": report.failures,
        "findings": report.findings,
        "oracle": [
            {
                "n": rec.n,
                "c_qn": rec.c_qn,
                "ord_z": rec.ord_z,
                "ord_w": rec.ord_w,
                "c_fn": rec.c_fn,
                "delta_n": rec.delta_pow,
                "polygon": polygon_json(rec.polygon),
            }
            for rec in report.oracle
        ],
        "variants": [
            {
                "case": case_json(v.case),
                "failures": v.failures,
                "vanishing_first_n": v.vanishing_first_n,
                "predictions": [prediction_json(p) for p in v.predictions],
                "checks": [
                    {
                        "claim": c.claim,
                        "n": c.n,
                        "passed": c.passed,
                        "detail": c.detail,
                    }
                    for c in v.checks
                ],
            }
            for v in report.variants
        ],
    }


def fuzz_json(summary: FuzzSummary) -> dict:
    return summary.as_dict()
