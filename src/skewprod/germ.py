"""Skew-product germs f(z, w) = (p(z), q(z, w)) and their exact iteration.

The oracle computes f^n = (p^n, Q^n) by brute-force symbolic
composition: Q^{k+1}(z, w) = q(p^k(z), Q^k(z, w)).  substitute has two
schedules for poly(P, W) = sum_j (sum_i c_ij P^i) W^j, which give the
same polynomial (Horner 1819; Paterson & Stockmeyer, SIAM J. Comput. 2,
1973, for the trade-off):

* Power table, when P is one term a*z^m*w^k, whatever the coefficient
  types.  P^i = a^i z^(i*m) w^(i*k) needs no product, so each layer
  sum_i c_ij P^i is written down term by term.  W^j is built by
  squaring, once per needed j, and the result is the sum of the
  products layer_j * W^j.  Each large product then has a few-term
  layer as one operand.  Every p^k is a monomial when p is, as for
  every fixture germ.
* Horner in w, with a Horner in P per layer, for every other call: one
  rule, _horner, run at both levels.  It is the reference.  The number
  of multiplications by the large iterate Q^k is bounded by the
  w-degree of q, but each multiplies the whole accumulator.

substitute clears denominators once per call, not once per product:
with P = P'/d_P and W = W'/d_W for integer P' and W'
(_kernels._clear_denominators), poly(P, W) = poly'(P', W') / D, where
D is the lcm of den(c_ij) * d_P^i * d_W^j over the terms of poly and
poly' has the int coefficients c_ij * D / (d_P^i * d_W^j).  Either
schedule runs on poly', P' and W', so every product it makes has int
operands, and each output coefficient is divided by D once, at the end,
by _kernels.divided, the helper the product kernel divides by.  Every
intermediate polynomial is a nonzero constant multiple of the one the
rational operands give, so each product has the same terms and the caps
trip at the same point with the same message.  When every coefficient
is an int, D is 1 and the operands are used as they are.

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

vertex_step computes an iterate only where the checks can see it, for
fuzz (verify_germ(..., full_iterates=False)), and makes no product.  By
Ostrowski's theorem, N(P^i W^j) = (i*c_p, 0) + j*N(W) for P = p^n of
z-order c_p, so N(Q^(n+1)) lies in the hull of these over the terms of
q (newton.composed_polygon).  A vertex V of the hull splits one way
only, as V = (i*c_p, 0) + j*w with w a vertex of N(Q^n), so its
coefficient is the sum of c_ij * a_P^i * c_w^j over the terms of q that
give V, and reads only the vertex terms of Q^n.  If no such sum is 0,
the hull is N(Q^(n+1)), and a read point at or below a vertex is that
vertex or has coefficient 0.  Otherwise, and wherever a degree bound
that needs no terms does not show that the full step fits the caps,
iterates runs the full step, so a capped run stops where the full one
would, with its message.  The checks and the next step read p^(n+1)
only through its order and lowest coefficient, and by the same theorem
its lowest term is the one product a_delta * a_P^delta z^(delta*c_p),
so vertex_step keeps only that term.
"""

from __future__ import annotations

from math import lcm

from ._kernels import _clear_denominators, divided
from .exact import as_coeff
from .growth import check_depth
from .newton import composed_polygon, newton_polygon
from .poly import (
    DEFAULT_LIMITS,
    ResourceCapError,
    ResourceLimits,
    SparsePoly2,
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


def _horner(by_e: dict, X: SparsePoly2, part,
            limits: ResourceLimits | None) -> SparsePoly2:
    """sum_e part(by_e[e]) * X^e by Horner's rule: over descending e,
    with each gap between exponents a power of X."""
    acc = SparsePoly2.zero()
    prev_e = None
    for e in sorted(by_e, reverse=True):
        value = part(by_e[e])
        if prev_e is None:
            acc = value
        else:
            acc = poly_mul(acc, poly_pow(X, prev_e - e, limits),
                           limits) + value
        prev_e = e
    if prev_e:
        acc = poly_mul(acc, poly_pow(X, prev_e, limits), limits)
    return acc


def substitute(poly: SparsePoly2, P: SparsePoly2, W: SparsePoly2,
               limits: ResourceLimits | None = None) -> SparsePoly2:
    """Exact value of poly(P, W); the module docstring gives the two
    schedules, run on integer numerators."""
    if poly.is_zero:
        return SparsePoly2.zero()
    den, poly, P, W = _cleared(poly, P, W)
    by_j = _layers(poly)
    max_degree = (limits or DEFAULT_LIMITS).max_total_degree
    table = (len(P) == 1 and not P.coeff(0, 0)
             and _horner_degree_bound(
                 by_j, P.total_degree(),
                 None if W.is_zero else W.total_degree()) <= max_degree)
    if table:
        try:
            out = _substitute_power_table(by_j, P, W, limits)
            check_term_count(out, limits)
        except ResourceCapError:
            table = False  # Horner, the reference, decides where it trips
    if not table:
        out = _substitute_horner(by_j, P, W, limits)
    return SparsePoly2._raw(divided(out._terms, den))


def _cleared(poly: SparsePoly2, P: SparsePoly2, W: SparsePoly2):
    """(D, poly', P', W'): polynomials with int coefficients and
    poly'(P', W') = D * poly(P, W), as the module docstring derives
    them; the operands as they are when D is 1."""
    d_p, p_nums = _clear_denominators(P._terms)
    d_w, w_nums = _clear_denominators(W._terms)
    scales = {(i, j): c.denominator * d_p**i * d_w**j
              for (i, j), c in poly.items()}
    den = lcm(*scales.values())
    if den == 1:
        return 1, poly, P, W
    return (den,
            SparsePoly2._raw({key: c.numerator * (den // scales[key])
                              for key, c in poly.items()}),
            SparsePoly2._raw(p_nums), SparsePoly2._raw(w_nums))


def _layers(poly: SparsePoly2) -> dict:
    """{j: {i: c_ij}}: the coefficients of poly by power of w."""
    by_j: dict = {}
    for (i, j), c in poly.items():
        by_j.setdefault(j, {})[i] = c
    return by_j


def _substitute_horner(by_j: dict, P: SparsePoly2, W: SparsePoly2,
                       limits: ResourceLimits | None) -> SparsePoly2:
    def layer(coeffs: dict) -> SparsePoly2:
        return _horner(coeffs, P, SparsePoly2.constant, limits)

    acc = _horner(by_j, W, layer, limits)
    check_term_count(acc, limits)
    return acc


def _horner_degree_bound(by_j: dict, deg_p: int, deg_w: int | None) -> int:
    """The largest degree _substitute_horner could check before a
    product, which also bounds every product of the power table and the
    result; deg_p and deg_w are the degrees of P and W (None if W is 0).

    The degree of a product is the sum of its operands' degrees, and a
    sum may only lose its top terms, so this is an upper bound.  Layer j
    has degree top_j * deg P, which its Horner in P reaches in its last
    product.  Every product by a power of W has degree at most
    top_j + j * deg W for some layer j > 0, and poly_mul checks nothing
    when W is zero.  With an upper bound for deg_w, it is still one.
    """
    tops = {j: max(coeffs) * deg_p for j, coeffs in by_j.items()}
    bound = max(tops.values())
    if deg_w is not None:
        bound = max([bound] + [top + j * deg_w
                               for j, top in tops.items() if j])
    return bound


def _substitute_power_table(by_j: dict, P: SparsePoly2, W: SparsePoly2,
                            limits: ResourceLimits | None) -> SparsePoly2:
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
            powers[j] = poly_mul(powers[j - 1], W, limits)
        else:
            half = powers[j >> 1]
            powers[j] = poly_mul(half, half, limits)

    parts = []
    for j, coeffs in by_j.items():
        layer = SparsePoly2({(i * m, i * k): c * a**i
                             for i, c in coeffs.items()})
        parts.append(poly_mul(layer, powers[j], limits) if j else layer)
    if not parts:
        return SparsePoly2.zero()
    # poly_sum copies its first operand once, so the largest part goes
    # first.
    parts.sort(key=len, reverse=True)
    return poly_sum(parts)


def compose_germ(g: SkewGerm, h: SkewGerm,
                 limits: ResourceLimits | None = None) -> SkewGerm:
    """The composite germ g(h(z, w))."""
    p_new = substitute(g.p, h.p, SparsePoly2.zero(), limits)
    q_new = substitute(g.q, h.p, h.q, limits)
    return SkewGerm(p_new, q_new)


def vertex_step(f: SkewGerm, fn: SkewGerm, reads) -> SkewGerm | None:
    """f(fn) with its p as only its lowest term and its q as only its
    vertex terms (the module docstring gives the sums), or None where
    that is not certified.  fn.p need hold only its lowest term and fn.q
    only its vertex terms.

    None when a vertex sum is 0 or a point in `reads` is not at or below
    a vertex.
    """
    W = fn.q
    c_p, a_p = fn.delta, fn.a_delta
    w_polygon = newton_polygon(W)
    polygon = composed_polygon(f.q, c_p, w_polygon)
    vertices = polygon.vertices
    if not all(any(i <= x and j <= y for x, y in vertices)
               for i, j in reads):
        return None
    w_terms = [(x, y, W.coeff(x, y)) for x, y in w_polygon.vertices]
    parts = {v: [] for v in vertices}
    for (i, j), c in f.q.items():
        if i:
            c = c * a_p**i
        for x, y, c_w in w_terms if j else ((0, 0, 1),):
            part = parts.get((i * c_p + j * x, j * y))
            if part is not None:
                part.append(c * c_w**j)
    terms = {}
    for v, part in parts.items():
        total = sum(part)
        if not total:
            return None
        terms[v] = as_coeff(total)
    q = SparsePoly2._raw(terms)
    # Certified: the hull is q's Newton polygon, so newton_polygon(q)
    # builds none.
    q._polygon = polygon
    # The lowest term of p(P), whose coefficient the full step forms as
    # one product.
    p = SparsePoly2._raw(
        {(f.delta * c_p, 0): as_coeff(f.a_delta * a_p**f.delta)})
    return SkewGerm(p, q)


def iterate_germ(f: SkewGerm, n: int,
                 limits: ResourceLimits | None = None) -> SkewGerm:
    """f^n = (p^n, Q^n) for n >= 1 by exact composition."""
    for _, fn in iterates(f, n, limits):
        pass
    return fn


def iterates(f: SkewGerm, n_max: int, limits: ResourceLimits | None = None,
             reads=None):
    """Yield (n, f^n) for n = 1 .. n_max, computing incrementally.

    reads, when given, is a function of n >= 2 that gives the points
    whose coefficients a caller reads off Q^n.  Then f^n is
    vertex_step's, whose p^n holds only its lowest term and Q^n only its
    vertex terms, wherever the full step fits the caps: its q(P, W) by
    _horner_degree_bound, with deg p^(n-1) = deg(p)^(n-1) and deg Q^(n-1)
    bounded by the bound of the step before, and its p(P) by its degree
    deg(p)^n, which also bounds its terms.  Otherwise compose_germ
    composes forward to f^n from the deepest iterate held in full (f at
    first), which is f^(n-1) unless that holds vertex terms only.
    """
    check_depth(n_max)
    cur = full = f  # full is f^m, the deepest iterate held in full
    m = 1
    yield 1, cur
    lim = limits or DEFAULT_LIMITS
    by_j = _layers(f.q)
    deg_p = f.p.total_degree()
    deg_q = None  # a bound on deg Q^(n-1) when cur holds vertex terms only
    for n in range(2, n_max + 1):
        step = None
        if reads is not None:
            # p is univariate, so deg p^(n-1) = deg(p)^(n-1) exactly,
            # whatever cur.p holds.
            deg_prev = deg_p ** (n - 1)
            bound = _horner_degree_bound(
                by_j, deg_prev,
                cur.q.total_degree() if deg_q is None else deg_q)
            # No product of the full step's q(P, W) has a degree past the
            # bound, so none has more than (bound + 1)(bound + 2)/2
            # terms.  Its p(P) ends in a product of degree deg(p)^n, and
            # each of its products holds only powers z^1 .. z^deg(p)^n.
            deg_pn = deg_prev * deg_p
            if (max(bound, deg_pn) <= lim.max_total_degree
                    and (bound + 1) * (bound + 2) // 2 <= lim.max_terms
                    and deg_pn <= lim.max_terms):
                step = vertex_step(f, cur, reads(n))
        if step is None:
            while m < n:
                full, m = compose_germ(f, full, limits), m + 1
            cur, deg_q = full, None
        else:
            cur, deg_q = step, bound
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
