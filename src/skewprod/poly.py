"""Exact sparse bivariate polynomials over arbitrary-precision rationals.

A SparsePoly2 is a finitely supported map from exponent pairs (i, j) to
nonzero coefficients (int or Fraction).  Exponents are plain Python
ints, so iterates whose degrees overflow machine words stay exact.

The inner loops live in the _kernels module, reached through the
`kernels` name so that a caller can wrap them.  Its product kernel picks
between a dict loop and Kronecker substitution from the operands.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import _kernels as kernels
from .exact import as_coeff, format_exact

# The one kernel there is; kept as a name because benchmark reports
# record it.
KERNEL_BACKEND = kernels.BACKEND


class PolyParseError(ValueError):
    """Syntax or validity error in a polynomial expression."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class ResourceCapError(RuntimeError):
    """An operation exceeded the configured term-count or degree cap.

    Signals a resource guard, not a mathematical failure: geometric
    degree growth under iteration must abort loudly instead of hanging.
    """


@dataclass(frozen=True)
class ResourceLimits:
    max_terms: int = 10**6
    max_total_degree: int = 10**6


DEFAULT_LIMITS = ResourceLimits()


def check_limits(terms: dict, limits: ResourceLimits | None) -> dict:
    lim = limits or DEFAULT_LIMITS
    if len(terms) > lim.max_terms:
        raise ResourceCapError(
            f"term count {len(terms)} exceeds cap {lim.max_terms}")
    if terms:
        deg = max(i + j for i, j in terms)
        if deg > lim.max_total_degree:
            raise ResourceCapError(
                f"total degree {deg} exceeds cap {lim.max_total_degree}")
    return terms


def _precheck_mul(a: dict, b: dict, limits: ResourceLimits | None) -> None:
    # degree of a product is known before computing it; fail fast so a
    # blowing-up composition aborts instead of grinding through one
    # gigantic multiplication
    if not a or not b:
        return
    lim = limits or DEFAULT_LIMITS
    deg = max(i + j for i, j in a) + max(i + j for i, j in b)
    if deg > lim.max_total_degree:
        raise ResourceCapError(
            f"product degree {deg} exceeds cap {lim.max_total_degree}")


class SparsePoly2:
    """Immutable exact polynomial in two variables.

    Invariants: no stored coefficient is zero, exponents are
    non-negative ints, and the zero polynomial has empty support.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for (i, j), c in terms.items():
                if not (isinstance(i, int) and isinstance(j, int)):
                    raise TypeError("exponents must be ints")
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent in ({i}, {j})")
                c = as_coeff(c)
                if c:
                    prev = clean.get((i, j))
                    if prev is None:
                        clean[(i, j)] = c
                    else:
                        s = prev + c
                        if s:
                            clean[(i, j)] = as_coeff(s)
                        else:
                            del clean[(i, j)]
        self._terms = clean

    @classmethod
    def _raw(cls, terms: dict) -> "SparsePoly2":
        # internal: terms already normalized by a kernel
        p = object.__new__(cls)
        p._terms = terms
        return p

    @classmethod
    def zero(cls) -> "SparsePoly2":
        return cls._raw({})

    @classmethod
    def monomial(cls, coeff, i: int, j: int) -> "SparsePoly2":
        return cls({(i, j): coeff})

    @classmethod
    def constant(cls, coeff) -> "SparsePoly2":
        return cls({(0, 0): coeff})

    # -- inspection ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def support(self):
        """Set of exponent pairs with nonzero coefficient."""
        return set(self._terms)

    def items(self):
        return self._terms.items()

    def coeff(self, i: int, j: int):
        """Coefficient of z^i w^j (0 when absent)."""
        return self._terms.get((i, j), 0)

    def sorted_terms(self):
        """Terms in graded lexicographic order by (i + j, i)."""
        return sorted(self._terms.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0][0]))

    def total_degree(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no degree")
        return max(i + j for i, j in self._terms)

    def orders(self):
        """(c, ord_z, ord_w): minimal total, z- and w-degree over the support."""
        if not self._terms:
            raise ValueError("zero polynomial has no orders")
        c = min(i + j for i, j in self._terms)
        ord_z = min(i for i, _ in self._terms)
        ord_w = min(j for _, j in self._terms)
        return c, ord_z, ord_w

    def depends_only_on_z(self) -> bool:
        return all(j == 0 for _, j in self._terms)

    def eval_exact(self, z, w):
        """Exact value at rational (z, w)."""
        return sum((c * z**i * w**j for (i, j), c in self._terms.items()),
                   start=Fraction(0))

    # -- arithmetic ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsePoly2):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __neg__(self) -> "SparsePoly2":
        return SparsePoly2._raw(kernels.scale_terms(self._terms, -1))

    def __add__(self, other) -> "SparsePoly2":
        if not isinstance(other, SparsePoly2):
            return NotImplemented
        return SparsePoly2._raw(kernels.add_terms(self._terms, other._terms))

    def __sub__(self, other) -> "SparsePoly2":
        if not isinstance(other, SparsePoly2):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "SparsePoly2":
        if isinstance(other, SparsePoly2):
            return poly_mul(self, other)
        c = as_coeff(other)
        if not c:
            return SparsePoly2.zero()
        return SparsePoly2._raw(kernels.scale_terms(self._terms, c))

    def __rmul__(self, other) -> "SparsePoly2":
        return self.__mul__(other)

    def __pow__(self, k: int) -> "SparsePoly2":
        return poly_pow(self, k, None)

    def __repr__(self) -> str:
        return f"SparsePoly2({format_poly(self)})"

    def __str__(self) -> str:
        return format_poly(self)


def poly_mul(a: SparsePoly2, b: SparsePoly2,
             limits: ResourceLimits | None = None) -> SparsePoly2:
    _precheck_mul(a._terms, b._terms, limits)
    out = kernels.mul_terms(a._terms, b._terms)
    return SparsePoly2._raw(check_limits(out, limits))


def poly_pow(a: SparsePoly2, k: int,
             limits: ResourceLimits | None = None) -> SparsePoly2:
    """a**k by repeated squaring; k >= 0."""
    if not isinstance(k, int) or k < 0:
        raise ValueError("exponent must be a non-negative integer")
    result = SparsePoly2.constant(1)
    base = a
    while k:
        if k & 1:
            result = poly_mul(result, base, limits)
        k >>= 1
        if k:
            base = poly_mul(base, base, limits)
    return result


# -- parsing and printing ----------------------------------------------

_VAR_AXIS = {"z": 0, "w": 1}


def parse_poly(text: str, allowed_vars=("z", "w")) -> SparsePoly2:
    """Parse a polynomial expression.

    Grammar: expr := term (('+'|'-') term)*;
    term := coeff? ('*'? var ('^' nat)?)*; coeff := int | int '/' posint;
    var := 'z' | 'w'.  Whitespace is insignificant, '-' negates the
    following term's coefficient and '*' is optional.
    """
    allowed = set(allowed_vars)
    n = len(text)
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def read_nat():
        nonlocal pos
        start = pos
        while pos < n and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise PolyParseError("expected a number", start)
        return int(text[start:pos])

    terms = {}
    skip_ws()
    if pos == n:
        raise PolyParseError("empty expression", pos)
    first = True
    while True:
        sign = 1
        skip_ws()
        if pos < n and text[pos] in "+-":
            if text[pos] == "-":
                sign = -1
            pos += 1
        elif not first:
            if pos >= n:
                break
            raise PolyParseError(f"expected '+' or '-', got {text[pos]!r}", pos)
        first = False
        skip_ws()
        if pos >= n:
            raise PolyParseError("expected a term", pos)

        coeff = Fraction(sign)
        exps = [0, 0]
        saw_anything = False
        if text[pos].isdigit():
            num = read_nat()
            skip_ws()
            if pos < n and text[pos] == "/":
                pos += 1
                skip_ws()
                slash_at = pos
                den = read_nat()
                if den == 0:
                    raise PolyParseError("zero denominator", slash_at)
                coeff *= Fraction(num, den)
            else:
                coeff *= num
            saw_anything = True
        while True:
            skip_ws()
            mark = pos
            if pos < n and text[pos] == "*":
                pos += 1
                skip_ws()
                if pos >= n or not text[pos].isalpha():
                    raise PolyParseError("expected a variable after '*'", pos)
            if pos < n and text[pos].isalpha():
                var_at = pos
                v = text[pos]
                pos += 1
                if v not in _VAR_AXIS:
                    raise PolyParseError(f"unknown variable {v!r}", var_at)
                if v not in allowed:
                    raise PolyParseError(f"variable {v!r} not allowed here", var_at)
                e = 1
                skip_ws()
                if pos < n and text[pos] == "^":
                    pos += 1
                    skip_ws()
                    if pos < n and text[pos] == "-":
                        raise PolyParseError("negative exponent", pos)
                    e = read_nat()
                exps[_VAR_AXIS[v]] += e
                saw_anything = True
            else:
                pos = mark
                break
        if not saw_anything:
            raise PolyParseError(f"expected a term, got {text[pos]!r}", pos)
        key = (exps[0], exps[1])
        terms[key] = terms.get(key, 0) + coeff
        skip_ws()
        if pos >= n:
            break
    return SparsePoly2(terms)


def format_poly(p: SparsePoly2, var_names=("z", "w")) -> str:
    """Deterministic rendering in graded lexicographic term order.

    parse_poly(format_poly(p)) == p for every polynomial.
    """
    if p.is_zero:
        return "0"
    pieces = []
    for (i, j), c in p.sorted_terms():
        factors = []
        if i:
            factors.append(var_names[0] if i == 1 else f"{var_names[0]}^{i}")
        if j:
            factors.append(var_names[1] if j == 1 else f"{var_names[1]}^{j}")
        mag = format_exact(as_coeff(abs(c)))
        if not factors:
            body = mag
        elif mag == "1":
            body = "*".join(factors)
        else:
            body = "*".join([mag] + factors)
        pieces.append(("-" if c < 0 else "+", body))
    sign0, body0 = pieces[0]
    out = ("-" if sign0 == "-" else "") + body0
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out
