"""Regular hyperbolic simplices in symmetric coordinates.

A regular n-simplex with edge length a is realized on the hyperboloid in a
Minkowski space with n+1 spacelike axes: vertex j points along the j-th
direction of a centered Euclidean regular simplex in R^(n+1), so permuting
vertices permutes spacelike coordinates.  All of the geometry stays inside
the linear slice Minkowski-orthogonal to the all-ones spacelike vector;
that slice carries a standard copy of n-dimensional hyperbolic space, and
the circumcenter sits at the model basepoint (1, 0, ..., 0).

The circumradius r satisfies sinh^2 r = n (cosh a - 1) / (n + 1), which is
what makes every pairwise vertex distance come out to a.  Facet normals
have the same symmetric shape as the vertices and are written down in
closed form; the tests rederive them from vertex incidence as a
cross-check.

A `RegularSimplex` holds its data only as coordinate stacks, one row per
vertex or facet: `build` checks every row once (on the sheet, or unit
spacelike for the normals) and freezes the stacks.  The facet opposite
vertex j has the other n vertices; `vertex(j)` and `circumcenter` wrap a
row or the basepoint as an `HPoint` when one point is wanted.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .geometry import (HPoint, Region, check_on_sheet_rows, check_unit_normal_rows, chord_dist_rows,
                       classify_margins, dist_rows, mink_pairs, reflect_rows, safe_arccosh)
from .masses import centroid_fold, omit_one_folds, pair_folds
from .weights import check_edge_length, pair_mass_constant


def simplex_directions(n: int) -> np.ndarray:
    """Rows: n+1 unit vectors in R^(n+1) with pairwise inner product -1/n.

    Centered lift of the standard-basis simplex; every row is orthogonal to
    the all-ones vector.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    e = np.eye(n + 1) - 1.0 / (n + 1)
    return e / math.sqrt(n / (n + 1))


@functools.cache
def helmert_basis(n: int) -> np.ndarray:
    """Orthonormal rows spanning the orthocomplement of the all-ones vector in R^(n+1).

    Built once per n and shared, hence read-only.
    """
    h = np.zeros((n, n + 1))
    for k in range(1, n + 1):
        h[k - 1, :k] = 1.0
        h[k - 1, k] = -float(k)
        h[k - 1] /= math.sqrt(k * (k + 1.0))
    h.setflags(write=False)
    return h


@dataclass(frozen=True, eq=False)
class RegularSimplex:
    """The simplex as three read-only ``(n+1, n+2)`` coordinate stacks.

    Row j of `vertex_coords` is vertex j, and row j of `normal_coords` and
    `center_coords` is the unit normal and the center of the facet opposite
    vertex j.  The normal is oriented so the opposite vertex has strictly
    positive margin; interior points of the simplex then have all margins
    positive.
    """

    n: int
    edge: float
    vertex_coords: np.ndarray
    normal_coords: np.ndarray
    center_coords: np.ndarray

    @property
    def ambient_dim(self) -> int:
        return self.n + 2

    @property
    def circumcenter(self) -> HPoint:
        """The model basepoint (1, 0, ..., 0)."""
        return HPoint.basepoint(self.ambient_dim)

    def vertex(self, j: int) -> HPoint:
        """Vertex j, indices cyclic mod n+1."""
        return HPoint(self.vertex_coords[j % (self.n + 1)])

    def slice_vector(self) -> np.ndarray:
        """Spacelike all-ones vector whose Minkowski orthocomplement holds the simplex."""
        v = np.zeros(self.ambient_dim)
        v[1:] = 1.0
        return v


def max_edge(n: int) -> float:
    """Longest edge of a regular n-simplex that `build` and `metrics` represent.

    Folding the n+1 unit vertex masses squares the timelike coordinate
    (n+1) cosh r of their sum; that square, (n+1)(n cosh a + 1), must stay
    a finite double, and the 1e-9 margin covers the rounding of the sum.  At n = 1 the
    facet normals give out long before: their scale 1/sqrt(1 - t^2), with
    t = tanh r, keeps at most one correct bit once cosh a reaches 1/eps.
    """
    if n == 1:
        return math.acosh(1.0 / sys.float_info.epsilon)
    return math.acosh(sys.float_info.max / (n * (n + 1.0))) - 1e-9


def check_edge(n: int, edge: float) -> None:
    """Raise `ValueError` unless `build(n, edge)` can represent the edge.

    The edge must be positive, its cosh a finite double, and it must not
    exceed `max_edge(n)`.
    """
    check_edge_length(edge)
    bound = max_edge(n)
    if edge > bound:
        raise ValueError(
            f"edge length {edge!r} exceeds {bound!r}, the longest edge of a regular "
            f"{n}-simplex in double precision"
        )


def build(n: int, edge: float) -> RegularSimplex:
    """Construct the regular n-simplex with the given edge, circumcenter at the basepoint."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    check_edge(n, edge)
    cosh_a = math.cosh(edge)
    sinh_r = math.sqrt(n * (cosh_a - 1.0) / (n + 1.0))
    cosh_r = math.sqrt(1.0 + sinh_r * sinh_r)
    e = simplex_directions(n)

    vc = _axis_rows(cosh_r, sinh_r, e)
    check_on_sheet_rows(vc)

    # Facet normal opposite vertex j shares the vertex's symmetry axis:
    # u_j = (p, q e_j) with t = sinh r / (n cosh r) kills <V_k, u_j> for k != j
    # and leaves <V_j, u_j> = q sinh r (n+1)/n > 0.
    t = sinh_r / (n * cosh_r)
    q = 1.0 / math.sqrt(1.0 - t * t)
    p = -q * t
    nc = _axis_rows(p, q, e)
    check_unit_normal_rows(nc)
    # the center of facet j folds unit masses on every vertex but j (checked on the sheet there)
    cc = omit_one_folds(np.ones(n + 1), vc)[0]
    for x in (vc, nc, cc):
        x.setflags(write=False)
    return RegularSimplex(n, edge, vc, nc, cc)


def _axis_rows(head: float, scale: float, e: np.ndarray) -> np.ndarray:
    """The stack whose row j is ``(head, scale * e[j])``."""
    x = np.empty((len(e), e.shape[1] + 1))
    x[:, 0] = head
    np.multiply(scale, e, out=x[:, 1:])
    return x


# Closed-form squared hyperbolic cosines of the simplex measurements, as
# functions of the edge's cosh.  `metrics` measures the same quantities
# geometrically so the two routes can be compared.

def cosh_sq_circumradius(n: int, cosh_edge: float) -> float:
    """cosh^2 of the center-to-vertex distance: (n cosh a + 1) / (n + 1)."""
    return (n * cosh_edge + 1.0) / (n + 1.0)


def cosh_sq_vertex_to_facet_center(n: int, cosh_edge: float) -> float:
    """cosh^2 of the vertex-to-opposite-facet-center distance: n cosh^2 a / ((n-1) cosh a + 1)."""
    return n * cosh_edge * cosh_edge / ((n - 1.0) * cosh_edge + 1.0)


def centroid_weight_formula(n: int, cosh_edge: float) -> float:
    """Weight collected by folding unit masses at all vertices: sqrt((n+1)(n cosh a + 1))."""
    return math.sqrt((n + 1.0) * (n * cosh_edge + 1.0))


@dataclass(frozen=True)
class SimplexMetrics:
    """Geometric measurements of one simplex (computed, not from formulas)."""

    vertex_center: np.ndarray        # d(V_j, circumcenter) per vertex
    vertex_facet_center: np.ndarray  # d(V_j, center of opposite facet) per vertex
    centroid_weight: float           # weight of the fold of unit vertex masses


def metrics(s: RegularSimplex) -> SimplexMetrics:
    """Measure the characteristic distances and the centroid weight directly."""
    vc = dist_rows(s.vertex_coords, s.circumcenter.coords)
    vf = dist_rows(s.vertex_coords, s.center_coords)
    w = centroid_fold(np.ones(s.n + 1), s.vertex_coords).weight
    return SimplexMetrics(vc, vf, w)


def vertex_reflection_identity_residual(s: RegularSimplex) -> np.ndarray:
    """Residuals of the vertex-plus-mirror balance, the ``(n+1,)`` array in facet order.

    Unit masses at V_j and at its mirror image across the opposite facet
    combine to the same point mass as weight 2/(n-1+1/cosh a) placed on
    each remaining vertex.  The residual is the larger of the location
    distance and the relative weight mismatch.
    """
    v, ones = s.vertex_coords, np.ones(s.n + 1)
    lhs, lhs_w = pair_folds(ones, v, ones, reflect_rows(s.normal_coords, v))
    w = pair_mass_constant(s.n, math.cosh(s.edge))
    rhs, rhs_w = omit_one_folds(np.full(s.n + 1, w), v)
    loc = chord_dist_rows(lhs, rhs)
    rel = np.abs(lhs_w - rhs_w) / rhs_w
    res = np.where(rel > loc, rel, loc)  # max(loc, rel), which keeps loc when rel is nan
    return res


def classify_point(s: RegularSimplex, x: np.ndarray) -> tuple[Region, int | None, list[float]]:
    """`classify_margins` of the point with coordinates x, and its margins as a list."""
    margins = mink_pairs(x, s.normal_coords).tolist()
    return (*classify_margins(margins), margins)


@dataclass(frozen=True)
class CircumradiusStep:
    """Arguments of the dimension-step consistency identity for circumradii.

    For an (n+1)-simplex whose edges have cosh equal to ``zeta``:
    ``base_radius`` is the circumradius of an n-facet, ``apex_to_base_center``
    the distance from the remaining vertex to that facet's center, and
    ``next_radius`` the full circumradius.  The three satisfy

        cosh^2(apex_to_base_center - next_radius) * cosh^2(base_radius)
            = cosh^2(next_radius)

    because the full circumcenter sits on the apex-to-facet-center segment
    and the facet center is the foot of a right angle.
    """

    n: int
    zeta: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if self.zeta < 1.0:
            raise ValueError(f"need zeta >= 1, got {self.zeta!r}")

    @property
    def base_radius(self) -> float:
        return safe_arccosh(math.sqrt(cosh_sq_circumradius(self.n, self.zeta)))

    @property
    def apex_to_base_center(self) -> float:
        return safe_arccosh(math.sqrt(cosh_sq_vertex_to_facet_center(self.n + 1, self.zeta)))

    @property
    def next_radius(self) -> float:
        return safe_arccosh(math.sqrt(cosh_sq_circumradius(self.n + 1, self.zeta)))


def circumradius_step_residual(args: CircumradiusStep) -> float:
    """Raw residual of the dimension-step identity (caller scales by cosh^2 next_radius)."""
    beta = args.base_radius
    gamma = args.apex_to_base_center
    delta = args.next_radius
    return math.cosh(gamma - delta) ** 2 * math.cosh(beta) ** 2 - math.cosh(delta) ** 2


def disk_coords(s: RegularSimplex, points: np.ndarray) -> np.ndarray:
    """Intrinsic Poincare-disk coordinates of points of the simplex slice.

    Maps a ``(k, n+2)`` stack of point coordinates to a ``(k, n)`` stack.
    Rotates the spacelike part into an orthonormal basis of the slice, then
    applies the ball chart; the result lies in the open unit n-ball.  The
    stacked matmul is one ``gemv`` per row, so each row matches
    ``helmert_basis(n) @ x[1:]`` bit for bit.
    """
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != s.ambient_dim:
        raise ValueError("point does not live in the simplex ambient space")
    return np.matmul(helmert_basis(s.n), x[:, 1:, None])[:, :, 0] / (1.0 + x[:, :1])

