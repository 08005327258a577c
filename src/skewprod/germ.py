"""Skew-product germs f(z, w) = (p(z), q(z, w)) and their exact iteration.

The oracle computes f^n = (p^n, Q^n) by brute-force symbolic
composition: Q^{k+1}(z, w) = q(p^k(z), Q^k(z, w)).  substitute has two
schedules for poly(P, W) = sum_j (sum_i c_ij P^i) W^j, which give the
same polynomial (Horner 1819; Paterson & Stockmeyer, SIAM J. Comput. 2,
1973, for the trade-off):

* Power table, when P is one term a*z^m*w^k and every coefficient of
  poly, P and W is an int.  P^i = a^i z^(i*m) w^(i*k) needs no product,
  so each layer sum_i c_ij P^i is written down term by term.  W^j is
  built by squaring, once per needed j, and the result is the sum of
  the products layer_j * W^j.  Each large product then has a few-term
  layer as one operand.  Every p^k is a monomial when p is, as for
  every fixture germ.
* Horner in w, with a Horner in P per layer, for every other call.  It
  is the reference.  The number of multiplications by the large
  iterate Q^k is bounded by the w-degree of q, but each multiplies the
  whole accumulator.

Both schedules make every product through poly_mul, so the resource
caps see each one, and both check the term cap on their result, so no
substitute returns more terms than the cap allows.  The caps trip where
Horner would trip them, with Horner's message: the table runs only when
no product of Horner's could pass the degree cap (a bound read off the
degrees of the layers and of W, with no product), and when a table
product, or the table's result, passes the term cap, Horner runs
instead.  One case is left: a Horner product may pass the term cap where
every table product and the result stay under it, and then the table
returns the result.

truncated_step computes the last iterate only where the checks can see
it, for fuzz (verify_germ(..., full_iterates=False)).  Ostrowski's
theorem bounds N(Q^n) by a polygon predicted from N(Q^(n-1)), the order
of p^(n-1) and the support of q (newton.composed_polygon).  The lattice
points at or below one of the prediction's vertices form a region R
closed downward (newton.under_vertices), the points outside it a
monomial ideal I, and reduction modulo I is a ring map, so substitute
with the region R restricts W = Q^(n-1) to R once, keeps only the terms
in R of every product, and returns Q^n on R.  R meets the prediction
only in its vertices, so that is Q^n's terms at the predicted vertices.
The result is accepted only with a certificate: every predicted vertex
has a nonzero coefficient, so the polygon is N(Q^n), and every point
whose coefficient a check reads lies in R.  Otherwise the full step
runs; it also runs where the caps could trip, which the bound of
_horner_degree_bound decides without a product, so a capped run stops
where the full one would, with its message.
"""

from __future__ import annotations

from .newton import composed_polygon, newton_polygon, under_vertices
from .poly import (
    DEFAULT_LIMITS,
    ResourceCapError,
    ResourceLimits,
    SparsePoly2,
    Staircase,
    check_term_count,
    format_poly,
    parse_poly,
    poly_mul,
    poly_pow,
    poly_sum,
)


class InvalidGermError(ValueError):
    """The pair (p, q) does not define a skew-product germ fixing 0."""


class GermFileError(ValueError):
    """Malformed germ file."""


class SkewGerm:
    """A validated pair (p, q) with p(0) = 0, q(0, 0) = 0.

    Caches delta (the order of p) and a_delta (its lowest coefficient).
    Instances are immutable and safe to share.
    """

    __slots__ = ("p", "q", "delta", "a_delta")

    def __init__(self, p: SparsePoly2, q: SparsePoly2):
        if p.is_zero or q.is_zero:
            raise InvalidGermError("p and q must be nonzero")
        if not p.depends_only_on_z():
            raise InvalidGermError("p must depend only on z")
        # Exponents are non-negative, so (0, 0) is the only one with
        # i + j < 1.
        if p.coeff(0, 0) or q.coeff(0, 0):
            raise InvalidGermError("constant term: the germ must fix the origin")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        delta = min(p.column_minima())
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "a_delta", p.coeff(delta, 0))

    def __setattr__(self, name, value):
        raise AttributeError("SkewGerm is immutable")

    def __eq__(self, other):
        if not isinstance(other, SkewGerm):
            return NotImplemented
        return self.p == other.p and self.q == other.q

    def __hash__(self):
        return hash((self.p, self.q))

    def __repr__(self):
        return f"SkewGerm(p={format_poly(self.p)}, q={format_poly(self.q)})"


def _eval_univariate_at(coeffs_by_i: dict, P: SparsePoly2,
                        limits: ResourceLimits | None) -> SparsePoly2:
    # Horner over descending z-exponent with gap powers of P.
    acc = SparsePoly2.zero()
    prev_i = None
    for i in sorted(coeffs_by_i, reverse=True):
        c = SparsePoly2.constant(coeffs_by_i[i])
        if prev_i is None:
            acc = c
        else:
            acc = poly_mul(acc, poly_pow(P, prev_i - i, limits), limits) + c
        prev_i = i
    if prev_i:
        acc = poly_mul(acc, poly_pow(P, prev_i, limits), limits)
    return acc


def substitute(poly: SparsePoly2, P: SparsePoly2, W: SparsePoly2,
               limits: ResourceLimits | None = None,
               region: Staircase | None = None) -> SparsePoly2:
    """Exact value of poly(P, W); the module docstring gives the two
    schedules.

    With a region, W is restricted to it once, every product keeps
    only its terms in it, and so does the result, which is
    poly(P, W).restrict(region).  The schedule is chosen from the full
    W.
    """
    if poly.is_zero:
        return SparsePoly2.zero()
    by_j = _layers(poly)
    max_degree = (limits or DEFAULT_LIMITS).max_total_degree
    table = (len(P) == 1 and not P.coeff(0, 0) and _all_int(poly, P, W)
             and _horner_degree_bound(by_j, P, W) <= max_degree)
    if region is not None:
        W = W.restrict(region)
    if table:
        try:
            out = _substitute_power_table(by_j, P, W, limits, region)
            check_term_count(out, limits)
        except ResourceCapError:
            table = False  # Horner, the reference, decides where it trips
    if not table:
        out = _substitute_horner(by_j, P, W, limits, region)
    # The layer q(P, 0) is added unrestricted.
    return out if region is None else out.restrict(region)


def _layers(poly: SparsePoly2) -> dict:
    """{j: {i: c_ij}}: the coefficients of poly by power of w."""
    by_j: dict = {}
    for (i, j), c in poly.items():
        by_j.setdefault(j, {})[i] = c
    return by_j


def _substitute_horner(by_j: dict, P: SparsePoly2, W: SparsePoly2,
                       limits: ResourceLimits | None,
                       region: Staircase | None = None) -> SparsePoly2:
    acc = SparsePoly2.zero()
    prev_j = None
    for j in sorted(by_j, reverse=True):
        layer = _eval_univariate_at(by_j[j], P, limits)
        if prev_j is None:
            acc = layer
        else:
            acc = poly_mul(acc, poly_pow(W, prev_j - j, limits, region),
                           limits, region) + layer
        prev_j = j
    if prev_j:
        acc = poly_mul(acc, poly_pow(W, prev_j, limits, region),
                       limits, region)
    check_term_count(acc, limits)
    return acc


def _horner_degree_bound(by_j: dict, P: SparsePoly2, W: SparsePoly2) -> int:
    """The largest degree _substitute_horner could check before a
    product, which also bounds every product of the power table.

    The degree of a product is the sum of its operands' degrees, and a
    sum may only lose its top terms, so this is an upper bound.  Layer j
    has degree top_j * deg P, which its Horner in P reaches in its last
    product.  Every product by a power of W has degree at most
    top_j + j * deg W for some layer j > 0, and poly_mul checks nothing
    when W is zero.
    """
    tops = {j: max(coeffs) * P.total_degree() for j, coeffs in by_j.items()}
    bound = max(tops.values())
    if not W.is_zero:
        deg_w = W.total_degree()
        bound = max([bound] + [top + j * deg_w
                               for j, top in tops.items() if j])
    return bound


def _all_int(*polys: SparsePoly2) -> bool:
    return all(type(c) is int for poly in polys for _, c in poly.items())


def _substitute_power_table(by_j: dict, P: SparsePoly2, W: SparsePoly2,
                            limits: ResourceLimits | None,
                            region: Staircase | None = None) -> SparsePoly2:
    # P = a z^m w^k with (m, k) != (0, 0), so distinct i give distinct
    # exponents in a layer and no coefficient c * a**i is zero.
    ((m, k), a), = P.items()
    if W.is_zero:  # only the layer j = 0 survives
        by_j = {0: by_j[0]} if 0 in by_j else {}
    # W^j is W^(j/2) squared, or W^(j-1) * W for odd j; first collect
    # every exponent that chain passes through, then build them upward.
    needed = set()
    for j in by_j:
        while j > 1 and j not in needed:
            needed.add(j)
            j = j - 1 if j & 1 else j >> 1
    powers = {1: W}
    for j in sorted(needed):
        if j & 1:
            powers[j] = poly_mul(powers[j - 1], W, limits, region)
        else:
            half = powers[j >> 1]
            powers[j] = poly_mul(half, half, limits, region)

    parts = []
    for j, coeffs in by_j.items():
        layer = SparsePoly2({(i * m, i * k): c * a**i
                             for i, c in coeffs.items()})
        parts.append(poly_mul(layer, powers[j], limits, region)
                     if j else layer)
    if not parts:
        return SparsePoly2.zero()
    # poly_sum copies its first operand once, so the largest part goes
    # first.
    parts.sort(key=len, reverse=True)
    return poly_sum(parts)


def compose_germ(g: SkewGerm, h: SkewGerm,
                 limits: ResourceLimits | None = None,
                 region: Staircase | None = None) -> SkewGerm:
    """The composite germ g(h(z, w)); with a region, its q is computed
    restricted to the region (substitute)."""
    p_new = substitute(g.p, h.p, SparsePoly2.zero(), limits)
    q_new = substitute(g.q, h.p, h.q, limits, region)
    return SkewGerm(p_new, q_new)


def truncated_step(f: SkewGerm, fn: SkewGerm, reads,
                   limits: ResourceLimits | None = None) -> SkewGerm:
    """f^(n+1) = f(fn), its Q^(n+1) computed only at the vertices of its
    predicted Newton polygon where that is certified to change no point
    in `reads` and no vertex; the full compose_germ otherwise.

    The prediction N is newton.composed_polygon of q at fn, and R is
    newton.under_vertices(N), which meets N only in its vertices.  Every
    product keeps only its terms in R, so Q' equals Q^(n+1) on R, which
    is its terms at N's vertices.  Q' is accepted when every vertex of N
    has a nonzero coefficient in it, so that N(Q^(n+1)) = N = N(Q'), and
    when every point in `reads` lies in R.  The step is truncated only
    where the full step fits under the caps by a bound that needs no
    terms: every product has degree at most D = _horner_degree_bound, so
    at most (D + 1)(D + 2)/2 terms, and the caps trip, if at all, where
    the full step trips them.
    """
    W, P = fn.q, fn.p
    predicted = composed_polygon(f.q, min(P.column_minima()),
                                 newton_polygon(W))
    region = under_vertices(predicted)
    lim = limits or DEFAULT_LIMITS
    bound = _horner_degree_bound(_layers(f.q), P, W)
    if (bound <= lim.max_total_degree
            and (bound + 1) * (bound + 2) // 2 <= lim.max_terms
            and all(point in region for point in reads)):
        try:
            out = compose_germ(f, fn, limits, region)
        except InvalidGermError:  # every term of Q' cancelled
            pass
        else:
            if all(out.q.coeff(*v) for v in predicted.vertices):
                return out
    return compose_germ(f, fn, limits)


def iterate_germ(f: SkewGerm, n: int,
                 limits: ResourceLimits | None = None) -> SkewGerm:
    """f^n = (p^n, Q^n) for n >= 1 by exact composition."""
    for _, fn in iterates(f, n, limits):
        pass
    return fn


def iterates(f: SkewGerm, n_max: int, limits: ResourceLimits | None = None,
             last_step=None):
    """Yield (n, f^n) for n = 1 .. n_max, computing incrementally.

    last_step, when given, computes f^n_max from f^(n_max - 1) in place
    of compose_germ (n_max >= 2).
    """
    if not isinstance(n_max, int) or n_max < 1:
        raise ValueError("n must be a positive integer")
    cur = f
    yield 1, cur
    for n in range(2, n_max + 1):
        if n == n_max and last_step is not None:
            cur = last_step(cur)
        else:
            cur = compose_germ(f, cur, limits)
        yield n, cur


# -- germ files ---------------------------------------------------------


def parse_germ_file(text: str) -> SkewGerm:
    """Parse a germ file: one `p = ...` and one `q = ...` assignment.

    Order-insensitive; `#` starts a comment.
    """
    exprs: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, sep, rhs = line.partition("=")
        name = name.strip()
        if not sep or name not in ("p", "q"):
            raise GermFileError(
                f"line {lineno}: expected 'p = ...' or 'q = ...'")
        if name in exprs:
            raise GermFileError(f"line {lineno}: duplicate assignment to {name}")
        exprs[name] = (lineno, rhs.strip())
    for required in ("p", "q"):
        if required not in exprs:
            raise GermFileError(f"missing assignment for {required}")
    lineno, p_src = exprs["p"]
    try:
        p = parse_poly(p_src, allowed_vars=("z",))
    except ValueError as exc:
        raise GermFileError(f"line {lineno}: p: {exc}") from exc
    lineno, q_src = exprs["q"]
    try:
        q = parse_poly(q_src, allowed_vars=("z", "w"))
    except ValueError as exc:
        raise GermFileError(f"line {lineno}: q: {exc}") from exc
    return SkewGerm(p, q)


def format_germ_file(f: SkewGerm) -> str:
    return f"p = {format_poly(f.p)}\nq = {format_poly(f.q)}\n"
