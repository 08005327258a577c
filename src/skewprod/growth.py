"""Exact growth sequences attached to a dominant bidegree (gamma, d).

gamma_n = gamma * (delta^{n-1} + delta^{n-2} d + ... + d^{n-1}) is the
z-exponent of the dominant term of the n-th iterate, computed by
`gamma_n` as that geometric sum.  It also satisfies gamma_{n+1} =
delta^n * gamma + d * gamma_n and has the closed forms
alpha (delta^n - d^n) for delta != d and n gamma delta^{n-1} for
delta == d; the tests check the routes against each other exactly.

A case reading's predictions and checks read gamma_n, d^n and delta^n
for the same few n many times, so `GrowthTable` holds them, built once
per reading (`CaseData.growth`) by the recurrence: one product a term,
where the geometric sum takes n powers for each gamma_n.
"""

from __future__ import annotations

from dataclasses import dataclass


def geometric_sum(a: int, b: int, n: int) -> int:
    """a^{n-1} + a^{n-2} b + ... + b^{n-1} (n terms, n >= 0)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return sum(a ** (n - 1 - t) * b**t for t in range(n))


def check_depth(n) -> None:
    """Raise every entry point's ValueError unless n is a positive int."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")


def gamma_n(delta: int, gamma: int, d: int, n: int) -> int:
    """Dominant z-exponent of the n-th iterate, n >= 1."""
    check_depth(n)
    return gamma * geometric_sum(delta, d, n)


@dataclass(frozen=True)
class GrowthTable:
    """gamma_n, d^n and delta^n of one reading for n = 0 .. n_top.

    Each tuple is indexed by n; gamma[0] = 0 (the empty sum), so the
    n = 0 entries describe the identity.
    """

    gamma: tuple
    d_pow: tuple
    delta_pow: tuple

    @property
    def n_top(self) -> int:
        return len(self.gamma) - 1

    @classmethod
    def build(cls, delta: int, gamma: int, d: int,
              n_top: int) -> "GrowthTable":
        check_depth(n_top)
        d_pow, delta_pow, g = [1], [1], [0]
        for n in range(n_top):
            # gamma_{n+1} = delta^n gamma + d gamma_n, from gamma_0 = 0.
            g.append(delta_pow[n] * gamma + d * g[n])
            d_pow.append(d_pow[n] * d)
            delta_pow.append(delta_pow[n] * delta)
        return cls(tuple(g), tuple(d_pow), tuple(delta_pow))


def iterate_lead_coeff(a_delta, delta: int, n: int):
    """Lowest coefficient of p^n: a_delta^(1 + delta + ... + delta^{n-1})."""
    return a_delta ** geometric_sum(delta, 1, n)
