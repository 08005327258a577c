"""Command-line surface.

Subcommands: classify, iterate, predict, verify, fuzz.  Output is text
or JSON; predict/verify can also dump per-n CSV rows for external
plotting.  Exit status: 0 success, 1 verification/fuzz failures,
2 usage or parse errors, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from .classify import classify
from .exact import format_exact
from .fuzz import FuzzConfig, fuzz
from .germ import SkewGerm, iterate_germ, parse_germ_file
from .jsonio import (
    asymptotic_json,
    case_json,
    fuzz_json,
    germ_json,
    polygon_json,
    prediction_json,
    verification_json,
)
from .poly import ResourceCapError, format_poly
from .predict import asymptotic
from .verify import oracle_record, predictions, verify_germ, weight_samples

EXIT_OK = 0
EXIT_CHECK_FAILURES = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

# Each fuzz flag and the FuzzConfig field it sets, whose default is the
# flag's.
_FUZZ_FLAGS = {
    "--delta-max": "delta_max",
    "--support-max": "support_max",
    "--n-max": "n_max",
    "--degree-cap": "degree_cap",
    "--boundary-bias": "boundary_bias_pct",
}


def _load_germ(path: str) -> SkewGerm:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_germ_file(fh.read())
    except OSError as exc:
        raise SystemExit(_usage_error(f"cannot read {path}: {exc}"))
    except ValueError as exc:
        raise SystemExit(_usage_error(f"{path}: {exc}"))


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _parse_l(values) -> list:
    out = []
    for v in values or ():
        try:
            l = Fraction(v)
        except (ValueError, ZeroDivisionError):
            raise SystemExit(_usage_error(f"bad rational literal for --l: {v!r}"))
        if l <= 0:
            raise SystemExit(_usage_error(f"--l must be positive, got {v}"))
        out.append(l)
    return out


def _emit(payload: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _bracket(lower: str, upper: str, lower_closed: bool,
             upper_closed: bool) -> str:
    return (f"{'[' if lower_closed else '('}{lower}, "
            f"{upper}{']' if upper_closed else ')'}")


def _write_csv(path: str, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["n", "gamma_n", "d_n", "c_qn", "c_qn_lower", "c_qn_upper", "c_fn"])
        for row in rows:
            writer.writerow(row)


# -- subcommands ----------------------------------------------------------


def _cmd_classify(args) -> int:
    f = _load_germ(args.germ)
    case = classify(f)
    payload = case_json(case)
    payload["germ"] = germ_json(f)
    lines = [
        f"case: {case.kind} (applicable: {', '.join(case.applicable)})",
        f"delta = {case.delta}, a_delta = {format_exact(f.a_delta)}",
        f"(gamma, d) = ({case.gamma}, {case.d}) at vertex {case.k} of {case.s}",
        f"l1 = {format_exact(case.l1)}, l2 = {format_exact(case.l2)}, "
        f"alpha = {format_exact(case.alpha) if case.alpha is not None else 'undefined'}",
        f"polygon vertices: {' '.join(str(v) for v in case.polygon.vertices)}",
        f"intercepts: {', '.join(format_exact(t) for t in case.polygon.intercepts) or '(none)'}",
        f"interval: {_bracket(**payload['interval_detail'])}",
        f"boundary: delta = T_prev: {case.delta_eq_t_prev}, "
        f"delta = T_next: {case.delta_eq_t_next}",
        f"may_vanish: {case.may_vanish}",
    ]
    _emit(payload, args.format, lines)
    return EXIT_OK


def _cmd_iterate(args) -> int:
    f = _load_germ(args.germ)
    fn = iterate_germ(f, args.n)
    rec = oracle_record(f, args.n, fn)
    payload = {
        "germ": germ_json(f),
        "n": args.n,
        "p_n": format_poly(fn.p),
        "q_n": format_poly(fn.q),
        "p_n_terms": [[i, j, format_exact(c)] for (i, j), c in fn.p.sorted_terms()],
        "q_n_terms": [[i, j, format_exact(c)] for (i, j), c in fn.q.sorted_terms()],
        "polygon": polygon_json(rec.polygon),
        "c_qn": rec.c_qn,
        "ord_z": rec.ord_z,
        "ord_w": rec.ord_w,
        "c_pn": rec.c_pn,
        "c_fn": rec.c_fn,
    }
    lines = [
        f"p^{args.n} = {payload['p_n']}",
        f"Q^{args.n} = {payload['q_n']}",
        f"polygon vertices: {' '.join(str(v) for v in rec.polygon.vertices)}",
        f"intercepts: {', '.join(format_exact(t) for t in rec.polygon.intercepts) or '(none)'}",
        f"c(Q^n) = {rec.c_qn}, ord_z = {rec.ord_z}, ord_w = {rec.ord_w}, "
        f"c(f^n) = {rec.c_fn}",
    ]
    _emit(payload, args.format, lines)
    return EXIT_OK


def _cmd_predict(args) -> int:
    f = _load_germ(args.germ)
    case = classify(f)
    ls, no_claim = weight_samples(case, _parse_l(args.l))
    preds, _, error = predictions(f, case, args.n, ls)
    if error is not None:
        raise error
    ar = asymptotic(f, case)
    payload = {
        "germ": germ_json(f),
        "case": case_json(case),
        "predictions": [prediction_json(p) for p in preds],
        "asymptotic": asymptotic_json(ar),
        "no_claim_l": [format_exact(l) for l in no_claim],
    }
    lines = [f"case: {case.kind}"]
    for p in preds:
        cq = p.cqn
        if cq.exact is not None:
            bracket = f"c(Q^n) = {format_exact(cq.exact)}"
        else:
            bracket = "c(Q^n) in " + _bracket(
                format_exact(cq.lower), format_exact(cq.upper),
                not cq.lower_strict, not cq.upper_strict)
        ws = ", ".join(
            f"w_{format_exact(w.l)} = {format_exact(w.value)}"
            for w in p.weight_claims)
        lines.append(
            f"n={p.n}: (gamma_n, d^n) = ({p.gamma_n}, {p.d_pow_n}), "
            f"coeff {format_exact(p.dominant_coeff)}; {bracket}; {ws}")
        if p.prev_vertex:
            lines.append(f"      prev vertex {p.prev_vertex.tag} = "
                         f"{p.prev_vertex.point}")
        if p.next_vertex:
            lines.append(f"      next vertex {p.next_vertex.tag} = "
                         f"{p.next_vertex.point}")
        lines.append(
            f"      c(f^n) in [{format_exact(p.cfn_lower)}, "
            f"{format_exact(p.cfn_upper)}]")
    lines.append(
        f"c_infinity = {ar.c_infinity}, D candidates: "
        f"{', '.join(format_exact(x) for x in ar.d_candidates)}")
    if no_claim:
        lines.append("no claim for l outside the equality range: "
                     + ", ".join(format_exact(l) for l in no_claim))
    _emit(payload, args.format, lines)
    if args.csv:
        rows = []
        for p in preds:
            rows.append([
                p.n, p.gamma_n, p.d_pow_n,
                format_exact(p.cqn.exact) if p.cqn.exact is not None else "",
                format_exact(p.cqn.lower), format_exact(p.cqn.upper),
                format_exact(p.cfn_exact) if p.cfn_exact is not None else "",
            ])
        _write_csv(args.csv, rows)
    return EXIT_OK


def _cmd_verify(args) -> int:
    f = _load_germ(args.germ)
    extra = _parse_l(args.l)
    report = verify_germ(f, args.n_max, extra_ls=extra)
    payload = verification_json(report)
    lines = [f"germ: p = {format_poly(f.p)}; q = {format_poly(f.q)}"]
    for v in report.variants:
        n_checks = len(v.checks)
        lines.append(
            f"{v.case.kind}[k={v.case.k}]: {n_checks} checks, "
            f"{v.failures} failures")
        for c in v.checks:
            if c.passed is False:
                where = f" (n={c.n})" if c.n else ""
                lines.append(f"  FAIL {c.claim}{where}: {c.detail}")
    for msg in report.findings:
        lines.append(f"finding: {msg}")
    if report.resource_error:
        lines.append(f"resource cap: {report.resource_error} "
                     f"(results kept through n = {report.reached_n})")
    lines.append("PASS" if report.failures == 0 else
                 f"FAIL ({report.failures} failed checks)")
    _emit(payload, args.format, lines)
    if args.csv:
        # The primary reading predicts every n the oracle reached.
        rows = [[rec.n, p.gamma_n, p.d_pow_n, rec.c_qn,
                 format_exact(p.cqn.lower), format_exact(p.cqn.upper),
                 rec.c_fn]
                for rec, p in zip(report.oracle,
                                  report.variants[0].predictions)]
        _write_csv(args.csv, rows)
    if report.failures:
        return EXIT_CHECK_FAILURES
    return EXIT_RESOURCE if report.resource_error else EXIT_OK


def _cmd_fuzz(args) -> int:
    cfg = FuzzConfig(seed=args.seed, germ_count=args.count,
                     **{field: getattr(args, field)
                        for field in _FUZZ_FLAGS.values()})
    summary = fuzz(cfg)
    payload = fuzz_json(summary)
    lines = [
        f"germs run: {summary.germs_run} (skipped {summary.skipped}, "
        f"extra draws {summary.extra_draws})",
        "case counts: " + ", ".join(
            f"{k}={v}" for k, v in sorted(summary.case_counts.items())),
        f"boundary germs: {summary.boundary_count}, "
        f"vanishing events: {summary.vanishing_events}",
        f"findings: {summary.findings}",
        f"coverage ok: {summary.coverage_ok}",
        f"failures: {summary.failures}",
    ]
    for item in summary.failing_germs:
        lines.append(f"  failing germ: {item['germ']!r} claims: {item['claims']}")
    _emit(payload, args.format, lines)
    return EXIT_CHECK_FAILURES if summary.failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewprod",
        description="Classify skew-product germs by the Newton polygon, "
                    "predict attraction-rate data for all iterates, and "
                    "verify every prediction against exact iteration.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, csv_flag=False):
        p.add_argument("--format", choices=("text", "json"), default="text")
        if csv_flag:
            p.add_argument("--csv", metavar="PATH",
                           help="dump per-n rows for external plotting")

    p = sub.add_parser("classify", help="case data and weight intervals")
    p.add_argument("--germ", required=True, metavar="FILE")
    add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("iterate", help="exact n-th iterate (the oracle)")
    p.add_argument("--germ", required=True, metavar="FILE")
    p.add_argument("--n", required=True, type=int)
    add_common(p)
    p.set_defaults(func=_cmd_iterate)

    p = sub.add_parser("predict", help="attraction-rate predictions for n = 1..N")
    p.add_argument("--germ", required=True, metavar="FILE")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--l", action="append", metavar="RAT",
                   help="extra weight sample (a/b); repeatable")
    add_common(p, csv_flag=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("verify", help="oracle-vs-prediction verification")
    p.add_argument("--germ", required=True, metavar="FILE")
    p.add_argument("--n-max", required=True, type=int, dest="n_max")
    p.add_argument("--l", action="append", metavar="RAT")
    add_common(p, csv_flag=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("fuzz", help="seeded random germ campaign")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--count", required=True, type=int)
    for flag, field in _FUZZ_FLAGS.items():
        p.add_argument(flag, type=int, default=getattr(FuzzConfig, field),
                       dest=field,
                       metavar="PCT" if field == "boundary_bias_pct" else None)
    add_common(p)
    p.set_defaults(func=_cmd_fuzz)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceCapError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        return _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
