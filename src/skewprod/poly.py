"""Exact sparse bivariate polynomials over arbitrary-precision rationals.

A SparsePoly2 is a finitely supported map from exponent pairs (i, j) to
nonzero coefficients (int or Fraction).  Exponents are plain Python
ints, so iterates whose degrees overflow machine words stay exact.

The inner loops live in the _kernels module, reached through the
`kernels` name so that a caller can wrap them.  Its product kernel picks
between a dict loop and Kronecker substitution from the operands.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from . import _kernels as kernels
from .exact import ResourceCapError, as_coeff, format_exact

# The one kernel there is; kept as a name because benchmark reports
# record it.
KERNEL_BACKEND = kernels.BACKEND


class PolyParseError(ValueError):
    """Syntax or validity error in a polynomial expression."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


@dataclass(frozen=True)
class ResourceLimits:
    max_terms: int = 10**6
    max_total_degree: int = 10**6


DEFAULT_LIMITS = ResourceLimits()


def check_term_count(terms, limits: ResourceLimits | None) -> None:
    """Raise if terms (a term dict or a SparsePoly2) has more terms than
    the cap allows."""
    lim = limits or DEFAULT_LIMITS
    if len(terms) > lim.max_terms:
        raise ResourceCapError(
            f"term count {len(terms)} exceeds cap {lim.max_terms}")


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

    # _columns caches column_minima() and _polygon the Newton polygon
    # (newton.newton_polygon); both are built on first use.
    __slots__ = ("_terms", "_columns", "_polygon")

    def __init__(self, terms=None):
        self._columns = None
        self._polygon = None
        clean = {}
        if terms:
            for (i, j), c in terms.items():
                if not (isinstance(i, int) and isinstance(j, int)):
                    raise TypeError("exponents must be ints")
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent in ({i}, {j})")
                c = as_coeff(c)
                if c:
                    clean[(i, j)] = c
        self._terms = clean

    @classmethod
    def _raw(cls, terms: dict) -> "SparsePoly2":
        # internal: terms already normalized by a kernel
        p = object.__new__(cls)
        p._terms = terms
        p._columns = None
        p._polygon = None
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

    def exponents(self):
        """The same pairs as support(), as a view that copies nothing."""
        return self._terms.keys()

    def items(self):
        return self._terms.items()

    def column_minima(self):
        """{i: least j with (i, j) in the support}: the lower-left
        staircase, which fixes the orders, the Newton polygon and every
        weight w_l with l > 0.  Computed once, in one pass, and cached;
        the polynomial is immutable, so the cache never goes stale.
        Callers must not modify the returned dict."""
        columns = self._columns
        if columns is None:
            columns = {}
            get = columns.get
            for i, j in self._terms:
                low = get(i)
                if low is None or j < low:
                    columns[i] = j
            self._columns = columns
        return columns

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
        """(c, ord_z, ord_w): minimal total, z- and w-degree over the support.

        Each minimum is reached on the staircase of column_minima.
        """
        if not self._terms:
            raise ValueError("zero polynomial has no orders")
        columns = self.column_minima()
        c = min(i + j for i, j in columns.items())
        return c, min(columns), min(columns.values())

    def depends_only_on_z(self) -> bool:
        return all(j == 0 for _, j in self._terms)

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
    """a * b, under the resource caps."""
    _precheck_mul(a._terms, b._terms, limits)
    out = kernels.mul_terms(a._terms, b._terms)
    # The precheck bounded the degree; only the term count is new.
    check_term_count(out, limits)
    return SparsePoly2._raw(out)


def poly_sum(polys) -> SparsePoly2:
    """Sum of a non-empty sequence of polynomials in one pass.

    The first is copied once and the rest are added into the copy, so
    the largest should come first.
    """
    first, *rest = polys
    return SparsePoly2._raw(
        kernels.add_terms(first._terms, *(p._terms for p in rest)))


def poly_pow(a: SparsePoly2, k: int,
             limits: ResourceLimits | None = None) -> SparsePoly2:
    """a**k by repeated squaring; k >= 0."""
    if not isinstance(k, int) or k < 0:
        raise ValueError("exponent must be a non-negative integer")
    # Starting from the first factor, not from 1, saves a product that
    # would only copy it.
    result = None
    base = a
    while k:
        if k & 1:
            result = (base if result is None
                      else poly_mul(result, base, limits))
        k >>= 1
        if k:
            base = poly_mul(base, base, limits)
    return SparsePoly2.constant(1) if result is None else result


# -- parsing and printing ----------------------------------------------

_VAR_AXIS = {"z": 0, "w": 1}
# One token per match: a run of decimal digits or any other single
# non-space character, each after optional whitespace.
_TOKEN = re.compile(r"\s*(?:(\d+)|(\S))")


def parse_poly(text: str, allowed_vars=("z", "w")) -> SparsePoly2:
    """Parse a polynomial expression.

    Grammar: expr := term (('+'|'-') term)*;
    term := coeff? ('*'? var ('^' nat)?)*; coeff := int | int '/' posint;
    var := 'z' | 'w'.  Whitespace is insignificant, '-' negates the
    following term's coefficient and '*' is optional.
    """
    # (position, token, is_number), closed by an empty end token.
    tokens = [(m.start(m.lastindex), m[m.lastindex], m.lastindex == 1)
              for m in _TOKEN.finditer(text)]
    end = len(tokens)
    tokens.append((len(text), "", False))
    k = 0

    def number():
        nonlocal k
        pos, tok, is_number = tokens[k]
        if not is_number:
            raise PolyParseError("expected a number", pos)
        k += 1
        return int(tok)

    if not end:
        raise PolyParseError("empty expression", len(text))
    terms = {}
    while True:
        pos, tok, _ = tokens[k]
        sign = -1 if tok == "-" else 1
        if tok in ("+", "-"):
            k += 1
        elif terms:
            raise PolyParseError(f"expected '+' or '-', got {tok[0]!r}", pos)
        if k == end:
            raise PolyParseError("expected a term", len(text))
        coeff = Fraction(sign)
        exps = [0, 0]
        saw_anything = tokens[k][2]
        if saw_anything:
            num = number()
            if tokens[k][1] == "/":
                k += 1
                slash_at = tokens[k][0]
                den = number()
                if den == 0:
                    raise PolyParseError("zero denominator", slash_at)
                coeff *= Fraction(num, den)
            else:
                coeff *= num
        while True:
            pos, tok, _ = tokens[k]
            if tok == "*":
                k += 1
                pos, tok, _ = tokens[k]
                if not tok.isalpha():
                    raise PolyParseError("expected a variable after '*'", pos)
            elif not tok.isalpha():
                break
            if tok not in _VAR_AXIS:
                raise PolyParseError(f"unknown variable {tok!r}", pos)
            if tok not in allowed_vars:
                raise PolyParseError(f"variable {tok!r} not allowed here", pos)
            k += 1
            e = 1
            if tokens[k][1] == "^":
                k += 1
                if tokens[k][1] == "-":
                    raise PolyParseError("negative exponent", tokens[k][0])
                e = number()
            exps[_VAR_AXIS[tok]] += e
            saw_anything = True
        if not saw_anything:
            raise PolyParseError(f"expected a term, got {tok[0]!r}", pos)
        key = (exps[0], exps[1])
        terms[key] = terms.get(key, 0) + coeff
        if k == end:
            return SparsePoly2(terms)


def format_poly(p: SparsePoly2) -> str:
    """Deterministic rendering in graded lexicographic term order.

    parse_poly(format_poly(p)) == p for every polynomial.
    """
    if p.is_zero:
        return "0"
    pieces = []
    for (i, j), c in p.sorted_terms():
        factors = [format_exact(abs(c))]
        if i:
            factors.append("z" if i == 1 else f"z^{i}")
        if j:
            factors.append("w" if j == 1 else f"w^{j}")
        if factors[0] == "1" and len(factors) > 1:
            del factors[0]
        pieces.append(("- " if c < 0 else "+ ") + "*".join(factors))
    out = " ".join(pieces)
    return out[2:] if out[0] == "+" else "-" + out[2:]
