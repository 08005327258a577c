"""Exact scalar helpers: rationals, +infinity, and their string forms.

Every numeric quantity in this package is an int, a Fraction, or the
INF singleton.  Floats never appear; all comparisons are exact.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import total_ordering

# The interpreter's limit on int <-> str conversion, in digits; 0, no
# limit, where it has none (3.10 before 3.10.7).
int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


class ResourceCapError(RuntimeError):
    """An operation exceeded the configured term-count or degree cap, or
    an exact value has more digits than int_max_str_digits() converts.

    Signals a resource guard, not a mathematical failure: geometric
    degree growth under iteration must abort loudly instead of hanging.
    """


@total_ordering
class _PosInf:
    """Positive infinity for weight bounds (l2 in the unbounded cases).

    Compares greater than every finite number.
    """

    __slots__ = ()

    def __lt__(self, other):
        return False

    def __eq__(self, other):
        return other is INF

    def __hash__(self):
        return hash("skewprod-inf")

    def __repr__(self):
        return "INF"


INF = _PosInf()


def is_inf(x) -> bool:
    return x is INF


def as_fraction(x) -> Fraction:
    """x as a Fraction; one that already is a Fraction is returned as is."""
    return x if type(x) is Fraction else Fraction(x)


def as_coeff(x):
    """Canonical coefficient: int when integral, Fraction otherwise.

    The one rule for every coefficient a polynomial stores."""
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    raise TypeError(f"exact coefficient expected, got {type(x).__name__}")


def format_exact(x) -> str:
    """Render an exact scalar as 'a', 'a/b' or 'inf'.

    Raises ResourceCapError for a part with more digits than
    int_max_str_digits() allows."""
    if x is INF:
        return "inf"
    try:
        if isinstance(x, int):
            return str(x)
        # type() first: isinstance against Fraction goes through its ABC.
        if type(x) is Fraction or isinstance(x, Fraction):
            if x.denominator == 1:
                return str(x.numerator)
            return f"{x.numerator}/{x.denominator}"
    except ValueError:  # str() raises nothing else on an int
        raise ResourceCapError(
            f"an exact value has more than {int_max_str_digits()} digits, "
            "the interpreter's limit for int-to-string conversion") from None
    raise TypeError(f"exact scalar expected, got {type(x).__name__}")


def parse_rational(text: str):
    """Parse 'a', 'a/b' or 'inf' back into an exact scalar."""
    text = text.strip()
    if text == "inf":
        return INF
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc
