"""Exact growth sequences attached to a dominant bidegree (gamma, d).

gamma_n = gamma * (delta^{n-1} + delta^{n-2} d + ... + d^{n-1}) is the
z-exponent of the dominant term of the n-th iterate; it satisfies
gamma_{n+1} = delta^n * gamma + d * gamma_n and has the closed forms
alpha (delta^n - d^n) for delta != d and n gamma delta^{n-1} for
delta == d.  All three routes are exposed so they can be checked
against each other exactly.
"""

from __future__ import annotations

from fractions import Fraction


def geometric_sum(a: int, b: int, n: int) -> int:
    """a^{n-1} + a^{n-2} b + ... + b^{n-1} (n terms, n >= 0)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return sum(a ** (n - 1 - t) * b**t for t in range(n))


def gamma_n(delta: int, gamma: int, d: int, n: int) -> int:
    """Dominant z-exponent of the n-th iterate, n >= 1."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return gamma * geometric_sum(delta, d, n)


def gamma_n_closed(delta: int, gamma: int, d: int, n: int) -> int:
    if n < 1:
        raise ValueError("n must be a positive integer")
    if delta == d:
        return n * gamma * delta ** (n - 1)
    value = Fraction(gamma, delta - d) * (delta**n - d**n)
    assert value.denominator == 1
    return int(value)


def gamma_n_recurrence(delta: int, gamma: int, d: int, n: int) -> int:
    if n < 1:
        raise ValueError("n must be a positive integer")
    value = gamma
    for k in range(1, n):
        value = delta**k * gamma + d * value
    return value


def iterate_lead_coeff(a_delta, delta: int, n: int):
    """Lowest coefficient of p^n: a_delta^(1 + delta + ... + delta^{n-1})."""
    return a_delta ** geometric_sum(delta, 1, n)
