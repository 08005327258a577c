"""Newton polygons and weights.

The Newton polygon of q = sum b_ij z^i w^j is the convex hull of the
union of upper-right quadrants D(i, j) = {x >= i, y >= j} over the
support.  Its vertex chain (n_1, m_1) .. (n_s, m_s) has n strictly
increasing, m strictly decreasing, and strictly increasing negative
edge slopes; T_k is the y-intercept of the edge through vertices k and
k+1.  Everything is exact: coordinates are ints or Fractions.

composed_polygon predicts the polygon of a composite q(P, W) from the
polygon of W alone; germ.vertex_step sums the composite's coefficients
at its vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import as_fraction
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
        # The lowest point of each column carries every vertex.
        return cls.from_points(poly.column_minima().items())

    @property
    def s(self) -> int:
        return len(self.vertices)

    def vertex(self, k: int):
        """k-th vertex, 1-based to match the chain numbering."""
        return self.vertices[k - 1]

    def intercept(self, k: int) -> Fraction:
        """T_k, the y-intercept of the edge L_k through vertices k, k+1."""
        return self.intercepts[k - 1]


def newton_polygon(poly: SparsePoly2) -> NewtonPolygon:
    """The Newton polygon of poly, built once per polynomial: poly is
    immutable, so the polygon cached on it never goes stale."""
    polygon = poly._polygon
    if polygon is None:
        polygon = poly._polygon = NewtonPolygon.of_poly(poly)
    return polygon


def composed_polygon(q: SparsePoly2, c_p: int,
                     polygon: NewtonPolygon) -> NewtonPolygon:
    """The polygon q(P, W) can have when P depends on z only and has
    z-order c_p, and W has the given polygon.

    By Ostrowski's theorem N(P^i W^j) = (i*c_p, 0) + j*N(W), and the
    polygon of a sum lies in the hull of its parts' polygons, so
    N(q(P, W)) lies in the hull of these over the support of q.  It is
    smaller only where terms on the hull's boundary cancel.  A larger j
    in the same column gives a polygon inside the smaller j's, so the
    staircase of q is enough.
    """
    return NewtonPolygon.from_points(
        (i * c_p + j * x, j * y)
        for i, j in q.column_minima().items()
        for x, y in polygon.vertices)


def weight(poly: SparsePoly2, l) -> Fraction:
    """w_l(poly) = min(i + l*j) over the support; requires l > 0.

    With l = a/b in lowest terms, b * w_l = min(b*i + a*j), so the scan
    runs on ints and only the result is a Fraction.  As a > 0, each
    column's minimum is at its least j, so only the staircase of
    column_minima is scanned.
    """
    l = as_fraction(l)
    a, b = l.numerator, l.denominator
    if a <= 0:
        raise ValueError("weight parameter l must be positive")
    if poly.is_zero:
        raise ValueError("zero polynomial has no weight")
    return Fraction(
        min(b * i + a * j for i, j in poly.column_minima().items()), b)


def support_on_edge(poly: SparsePoly2, vertex, l) -> list:
    """Support points on the line of slope -1/l through the given vertex."""
    l = Fraction(l)
    a, b = l.numerator, l.denominator
    level = b * vertex[0] + a * vertex[1]
    return sorted(p for p in poly.exponents() if b * p[0] + a * p[1] == level)

