"""Seeded random germ campaigns with coverage targets.

Germs are drawn from a Mersenne-Twister stream (random.Random(seed)),
so identical configs produce identical germ sequences and identical
summaries.  A configurable fraction of draws is boundary-biased: the
order of p is pinned to an integer polygon intercept (delta = T_k), and
half of those draws solve the bottom-edge cancellation sum to zero so
vanishing events are actually exercised.  After the main run the
generator retries targeted constructions until every case kind, at
least one boundary germ and at least one vanishing event have been
seen, or a documented draw cap is reached.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .classify import CASE1, CASE2, CASE3, CASE4, classify
from .germ import SkewGerm, format_germ_file
from .newton import newton_polygon
from .poly import ResourceLimits, SparsePoly2
from .verify import verify_germ

_KINDS = (CASE1, CASE2, CASE3, CASE4)

# Largest exponent of a randomly drawn q term, and the term cap each
# campaign germ is verified under.
EXPONENT_MAX = 4
MAX_TERMS = 200_000


@dataclass(frozen=True)
class FuzzConfig:
    seed: int
    germ_count: int
    delta_max: int = 3
    support_max: int = 6
    coeff_min: int = -3
    coeff_max: int = 3
    n_max: int = 3
    degree_cap: int = 400
    boundary_bias_pct: int = 10
    max_extra_draws: int = 400  # coverage-retry cap


@dataclass
class FuzzSummary:
    config: FuzzConfig
    germs_run: int = 0
    skipped: int = 0
    truncated: int = 0
    case_counts: dict = field(default_factory=dict)
    boundary_count: int = 0
    vanishing_events: int = 0
    failures: int = 0
    findings: int = 0
    extra_draws: int = 0
    coverage_ok: bool = False
    failing_germs: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "seed": self.config.seed,
            "germ_count": self.config.germ_count,
            "delta_max": self.config.delta_max,
            "support_max": self.config.support_max,
            "coeff_range": [self.config.coeff_min, self.config.coeff_max],
            "n_max": self.config.n_max,
            "degree_cap": self.config.degree_cap,
            "boundary_bias_pct": self.config.boundary_bias_pct,
            "germs_run": self.germs_run,
            "skipped": self.skipped,
            "truncated": self.truncated,
            "case_counts": {k: self.case_counts.get(k, 0) for k in _KINDS},
            "boundary_count": self.boundary_count,
            "vanishing_events": self.vanishing_events,
            "failures": self.failures,
            "findings": self.findings,
            "extra_draws": self.extra_draws,
            "coverage_ok": self.coverage_ok,
            "failing_germs": list(self.failing_germs),
        }


def _coeff(rng: random.Random, cfg: FuzzConfig) -> int:
    while True:
        c = rng.randint(cfg.coeff_min, cfg.coeff_max)
        if c:
            return c


def _small_coeff(rng: random.Random) -> int:
    return rng.choice((-1, 1))


def _random_q_terms(rng: random.Random, cfg: FuzzConfig) -> dict:
    terms = {}
    for _ in range(rng.randint(1, cfg.support_max)):
        while True:
            i = rng.randint(0, EXPONENT_MAX)
            j = rng.randint(0, EXPONENT_MAX)
            if i + j >= 1:
                break
        terms[(i, j)] = _coeff(rng, cfg)
    return terms


def _make_p(rng: random.Random, cfg: FuzzConfig, delta: int) -> SparsePoly2:
    terms = {(delta, 0): _coeff(rng, cfg)}
    if rng.random() < 0.25:
        terms[(delta + 1, 0)] = _coeff(rng, cfg)
    return SparsePoly2(terms)


def _regular_germ(rng: random.Random, cfg: FuzzConfig) -> SkewGerm:
    q_terms = _random_q_terms(rng, cfg)
    delta = rng.randint(1, cfg.delta_max)
    return SkewGerm(_make_p(rng, cfg, delta), SparsePoly2(q_terms))


def _vanishing_germ(rng: random.Random, cfg: FuzzConfig) -> SkewGerm:
    """Bottom edge from (0, B) to (G, 0) with delta = B = T and the edge
    sum solved to zero, so the pure-z term cancels at n = 2."""
    B = rng.randint(1, cfg.delta_max)
    G = rng.randint(2, 4)
    a = _small_coeff(rng)
    b_g0 = _small_coeff(rng)
    # b_{0B} makes  a^G b_{G0} + ... + b_{0B} b_{G0}^B  vanish.
    partial = a**G * b_g0
    terms = {(G, 0): b_g0}
    for J in range(1, B):
        # interior edge point: I/G + J/B = 1 with integer I
        if (G * J) % B:
            continue
        I = G - G * J // B
        if rng.random() < 0.5:
            t = _coeff(rng, cfg)
            terms[(I, J)] = t
            partial += a**I * t * b_g0**J
    b_0B = -partial * b_g0**B  # b_g0^B is +-1, so this inverts exactly
    if b_0B == 0 or not (cfg.coeff_min <= b_0B <= cfg.coeff_max):
        terms = {(G, 0): b_g0}
        b_0B = -(a**G) * b_g0 ** (B - 1)
    terms[(0, B)] = b_0B
    for _ in range(rng.randint(0, 2)):
        i = rng.randint(0, EXPONENT_MAX)
        j = rng.randint(0, EXPONENT_MAX)
        if (i, j) in terms or i + j < 1:
            continue
        if i * B + j * G > G * B:  # strictly above the critical edge
            terms[(i, j)] = _coeff(rng, cfg)
    return SkewGerm(SparsePoly2({(B, 0): a}), SparsePoly2(terms))


def _intercept_pinned_germ(rng: random.Random, cfg: FuzzConfig) -> SkewGerm | None:
    """Draw q, then pin delta to an integer intercept of its polygon."""
    q = SparsePoly2(_random_q_terms(rng, cfg))
    polygon = newton_polygon(q)
    options = sorted({int(t) for t in polygon.intercepts
                      if t.denominator == 1 and 1 <= t <= max(cfg.delta_max, 4)})
    if not options:
        return None
    delta = rng.choice(options)
    return SkewGerm(_make_p(rng, cfg, delta), q)


def _case3_germ(rng: random.Random, cfg: FuzzConfig) -> SkewGerm | None:
    gamma = rng.choice((0, 0, 1))
    d = rng.randint(1, cfg.delta_max)
    D = rng.randint(0, d - 1)
    dn = rng.randint(1, 3)
    terms = {(gamma, d): _coeff(rng, cfg), (gamma + dn, D): _coeff(rng, cfg)}
    slope_rise = (d - D)
    t1_num = d * dn + gamma * slope_rise
    lo = -(-t1_num // dn)  # ceil(T_1)
    if lo > cfg.delta_max:
        return None
    delta = rng.randint(lo, cfg.delta_max)
    for _ in range(rng.randint(0, 2)):
        i = rng.randint(gamma, EXPONENT_MAX + gamma)
        j = rng.randint(0, EXPONENT_MAX)
        if (i, j) not in terms and i + j >= 1:
            terms[(i, j)] = _coeff(rng, cfg)
    return SkewGerm(_make_p(rng, cfg, delta), SparsePoly2(terms))


def _case4_germ(rng: random.Random, cfg: FuzzConfig) -> SkewGerm | None:
    """Three-vertex staircase (0, b1+b2), (1, b2), (1+e, 0) with delta
    strictly between the two intercepts when possible."""
    b1 = rng.randint(2, 3)
    b2 = rng.randint(1, 2)
    e = rng.randint(2, 3)
    t1 = b1 + b2
    t2_num, t2_den = b2 * (e + 1), e
    lo = -(-t2_num // t2_den)  # ceil(T_2)
    hi = min(t1, cfg.delta_max)
    if lo > hi:
        return None
    delta = rng.randint(lo, hi)
    terms = {
        (0, b1 + b2): _coeff(rng, cfg),
        (1, b2): _coeff(rng, cfg),
        (1 + e, 0): _coeff(rng, cfg),
    }
    if rng.random() < 0.5:
        i = rng.randint(2, EXPONENT_MAX + 2)
        j = rng.randint(b2, b1 + b2)
        if (i, j) not in terms:
            terms[(i, j)] = _coeff(rng, cfg)
    return SkewGerm(_make_p(rng, cfg, delta), SparsePoly2(terms))


def _draw(rng: random.Random, cfg: FuzzConfig) -> SkewGerm:
    if rng.random() * 100 < cfg.boundary_bias_pct:
        if rng.random() < 0.5:
            g = _vanishing_germ(rng, cfg)
        else:
            g = _intercept_pinned_germ(rng, cfg)
        if g is not None:
            return g
    r = rng.random()
    if r < 0.08:
        g = _case4_germ(rng, cfg)
        if g is not None:
            return g
    elif r < 0.16:
        g = _case3_germ(rng, cfg)
        if g is not None:
            return g
    return _regular_germ(rng, cfg)


def _projected_degree(f: SkewGerm, n_max: int) -> int:
    base = max(f.p.total_degree(), f.q.total_degree())
    return base**n_max


def check_config(cfg: FuzzConfig) -> None:
    """Raise ValueError for a config no campaign can draw from; fuzz and
    generate_germs call it before their first draw."""
    if cfg.germ_count < 0:
        raise ValueError("germ count must be non-negative")
    for name in ("delta_max", "support_max", "n_max", "degree_cap"):
        if getattr(cfg, name) < 1:
            raise ValueError(f"{name} must be at least 1")
    if not 0 <= cfg.boundary_bias_pct <= 100:
        raise ValueError("boundary_bias_pct must be between 0 and 100")
    # _coeff redraws 0, so the range needs a nonzero int.
    if cfg.coeff_min > cfg.coeff_max or cfg.coeff_min == cfg.coeff_max == 0:
        raise ValueError("coeff_min..coeff_max must hold a nonzero int")


def generate_germs(cfg: FuzzConfig, rng: random.Random | None = None):
    """An iterator over the campaign's germ_count germs, drawn from rng
    (by default the config's seed); the config is checked on the call.

    Germs whose projected degree passes cfg.degree_cap are yielded too;
    a campaign skips them.
    """
    check_config(cfg)
    if rng is None:
        rng = random.Random(cfg.seed)
    return (_draw(rng, cfg) for _ in range(cfg.germ_count))


def campaign_limits(cfg: FuzzConfig) -> ResourceLimits:
    """The resource caps each campaign germ is verified under."""
    return ResourceLimits(max_terms=MAX_TERMS,
                          max_total_degree=max(cfg.degree_cap * 10, 10**6))


def fuzz(cfg: FuzzConfig) -> FuzzSummary:
    """Run the campaign; zero failures is the expected outcome."""
    check_config(cfg)
    rng = random.Random(cfg.seed)
    summary = FuzzSummary(config=cfg)
    limits = campaign_limits(cfg)
    kinds_seen = set()
    saw_vanishing = False
    saw_boundary = False

    def run_one(germ: SkewGerm) -> None:
        nonlocal saw_vanishing, saw_boundary
        if _projected_degree(germ, cfg.n_max) > cfg.degree_cap:
            summary.skipped += 1
            return
        case = classify(germ)
        kinds_seen.add(case.kind)
        summary.case_counts[case.kind] = summary.case_counts.get(case.kind, 0) + 1
        if germ.delta in case.polygon.intercepts:
            summary.boundary_count += 1
            saw_boundary = True
        # The counts read only what the checks read, so the iterates
        # may hold only their vertex terms (verify_germ).
        report = verify_germ(germ, cfg.n_max, limits=limits,
                             full_iterates=False)
        summary.germs_run += 1
        if report.resource_error is not None:
            summary.truncated += 1
        summary.findings += len(report.findings)
        events = sum(1 for v in report.variants
                     if v.vanishing_first_n is not None)
        if events:
            summary.vanishing_events += 1
            saw_vanishing = True
        if report.failures:
            summary.failures += report.failures
            if len(summary.failing_germs) < 10:
                failed = [c.claim for v in report.variants
                          for c in v.checks if c.passed is False]
                summary.failing_germs.append(
                    {"germ": format_germ_file(germ),
                     "claims": sorted(set(failed))})

    for g in generate_germs(cfg, rng):
        run_one(g)

    # Coverage retries: targeted constructions from the same stream.  A
    # vanishing event first shows in Q^2, so with n_max < 2 no draw can
    # reach it and none is made for it; coverage then stays incomplete.
    seek_vanishing = cfg.n_max >= 2
    draws = 0
    while draws < cfg.max_extra_draws:
        missing_kinds = set(_KINDS) - kinds_seen
        if (not missing_kinds and (saw_vanishing or not seek_vanishing)
                and saw_boundary):
            break
        draws += 1
        g = None
        if not saw_vanishing and seek_vanishing:
            g = _vanishing_germ(rng, cfg)
        elif CASE4 in missing_kinds:
            g = _case4_germ(rng, cfg)
        elif CASE3 in missing_kinds:
            g = _case3_germ(rng, cfg)
        elif CASE2 in missing_kinds or CASE1 in missing_kinds:
            g = _regular_germ(rng, cfg)
        elif not saw_boundary:
            g = _intercept_pinned_germ(rng, cfg)
        if g is not None:
            run_one(g)
    summary.extra_draws = draws
    summary.coverage_ok = (kinds_seen == set(_KINDS)
                           and saw_vanishing and saw_boundary)
    return summary
