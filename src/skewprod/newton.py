"""Newton polygons, weights, and exponent-lattice transforms.

The Newton polygon of q = sum b_ij z^i w^j is the convex hull of the
union of upper-right quadrants D(i, j) = {x >= i, y >= j} over the
support.  Its vertex chain (n_1, m_1) .. (n_s, m_s) has n strictly
increasing, m strictly decreasing, and strictly increasing negative
edge slopes; T_k is the y-intercept of the edge through vertices k and
k+1.  Everything is exact: coordinates are ints or Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import as_coeff
from .poly import SparsePoly2


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull_vertices(points):
    """Extreme points of conv(union of D(p)) as a staircase chain.

    Accepts int or Fraction coordinates.  Collinear support points on an
    edge are not vertices; only extreme points are returned.
    """
    pts = sorted(set(points))
    if not pts:
        raise ValueError("empty point set")
    # Pareto-minimal sweep: keep the lowest point of each x-column while
    # y strictly decreases.
    minimal = []
    for p in pts:
        if not minimal or p[1] < minimal[-1][1]:
            minimal.append(p)
    chain = []
    for p in minimal:
        while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
            chain.pop()
        chain.append(p)
    return tuple(chain)


@dataclass(frozen=True)
class NewtonPolygon:
    """Vertex chain plus edge intercepts T_1 .. T_{s-1}."""

    vertices: tuple
    intercepts: tuple

    @classmethod
    def from_points(cls, points) -> "NewtonPolygon":
        verts = hull_vertices(points)
        intercepts = []
        for (n1, m1), (n2, m2) in zip(verts, verts[1:]):
            slope = Fraction(m2 - m1, n2 - n1)
            intercepts.append(m1 - slope * n1)
        return cls(verts, tuple(intercepts))

    @classmethod
    def of_poly(cls, poly: SparsePoly2) -> "NewtonPolygon":
        if poly.is_zero:
            raise ValueError("zero polynomial has no Newton polygon")
        return cls.from_points(poly.support())

    @property
    def s(self) -> int:
        return len(self.vertices)

    def vertex(self, k: int):
        """k-th vertex, 1-based to match the chain numbering."""
        return self.vertices[k - 1]

    def intercept(self, k: int) -> Fraction:
        """T_k, the y-intercept of the edge L_k through vertices k, k+1."""
        return self.intercepts[k - 1]

    def edge_slope(self, k: int) -> Fraction:
        (n1, m1), (n2, m2) = self.vertices[k - 1], self.vertices[k]
        return Fraction(m2 - m1, n2 - n1)

    def min_weight(self, l) -> Fraction:
        """min(n + l*m) over the vertices; equals the support minimum."""
        return min(n + Fraction(l) * m for n, m in self.vertices)


def newton_polygon(poly: SparsePoly2) -> NewtonPolygon:
    return NewtonPolygon.of_poly(poly)


def weight(poly: SparsePoly2, l) -> Fraction:
    """w_l(poly) = min(i + l*j) over the support; requires l > 0.

    With l = a/b in lowest terms, b * w_l = min(b*i + a*j), so the scan
    runs on ints and only the result is a Fraction.
    """
    l = Fraction(l)
    if l <= 0:
        raise ValueError("weight parameter l must be positive")
    if poly.is_zero:
        raise ValueError("zero polynomial has no weight")
    a, b = l.numerator, l.denominator
    return Fraction(min(b * i + a * j for i, j in poly.support()), b)


def support_on_edge(poly: SparsePoly2, vertex, l) -> list:
    """Support points on the line of slope -1/l through the given vertex."""
    l = Fraction(l)
    a, b = l.numerator, l.denominator
    level = b * vertex[0] + a * vertex[1]
    return sorted(p for p in poly.support() if b * p[0] + a * p[1] == level)


def a1_transform(point, l, delta):
    """(i, j) -> (i + l*j - l*delta, j): straightens a slope -1/l edge."""
    i, j = point
    l = Fraction(l)
    return (as_coeff(Fraction(i) + l * j - l * delta), as_coeff(Fraction(j)))


def a2_transform(point, l_inv):
    """(i, j) -> (i, l_inv*i + j): shears a slope -l_inv edge flat."""
    i, j = point
    l_inv = Fraction(l_inv)
    return (as_coeff(Fraction(i)), as_coeff(l_inv * i + Fraction(j)))


def transform_lattice(point, kind: str, **params):
    """Dispatch by name: kind 'A1' needs l1 and delta, 'A2' needs l2_inv."""
    if kind == "A1":
        return a1_transform(point, params["l1"], params["delta"])
    if kind == "A2":
        return a2_transform(point, params["l2_inv"])
    raise ValueError(f"unknown lattice transform {kind!r}")
