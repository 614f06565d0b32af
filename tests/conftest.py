"""Shared helpers: random hyperboloid data for property tests, `fold`, the facets
of a simplex as point objects wrapped from its coordinate rows, and two
constructions that the package does not need but its tests use as oracles:
a hyperplane fitted through points and the Poincare-ball chart."""

import math

import numpy as np
from hypothesis import strategies as st

from hypbilliards.geometry import REP_TOL, HPoint, Hyperplane, mink_inner
from hypbilliards.masses import PointMass, centroid_fold

coord = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


def lift(spacelike) -> HPoint:
    """Lift spacelike coordinates onto the upper hyperboloid sheet."""
    sp = np.asarray(spacelike, dtype=float)
    return HPoint(np.concatenate(([math.sqrt(1.0 + sp @ sp)], sp)))


@st.composite
def hpoints(draw, spacelike_dim=None):
    m = spacelike_dim if spacelike_dim is not None else draw(st.integers(2, 5))
    return lift(draw(st.lists(coord, min_size=m, max_size=m)))


@st.composite
def hpoint_pairs(draw):
    m = draw(st.integers(2, 5))
    return draw(hpoints(m)), draw(hpoints(m))


@st.composite
def hpoint_triples(draw):
    m = draw(st.integers(2, 5))
    return draw(hpoints(m)), draw(hpoints(m)), draw(hpoints(m))


def random_hpoint(rng: np.random.Generator, spacelike_dim: int, scale: float = 2.0) -> HPoint:
    return lift(rng.normal(0.0, scale, spacelike_dim))


def random_hyperplane(rng: np.random.Generator, spacelike_dim: int) -> Hyperplane:
    """Unit spacelike normal (t, sqrt(1+t^2) * unit spacelike direction)."""
    w = rng.normal(0.0, 1.0, spacelike_dim)
    w /= np.linalg.norm(w)
    t = rng.uniform(-2.0, 2.0)
    return Hyperplane(np.concatenate(([t], math.sqrt(1.0 + t * t) * w)))


def fold(items) -> PointMass:
    """`centroid_fold` of a list of point masses."""
    return centroid_fold([p.weight for p in items], np.array([p.location.coords for p in items]))


def facet_plane(s, j) -> Hyperplane:
    """The hyperplane of facet j of the simplex s, wrapped from its normal row."""
    return Hyperplane(s.normal_coords[j % (s.n + 1)])


def facet_center(s, j) -> HPoint:
    """The center of facet j of the simplex s, wrapped from its row."""
    return HPoint(s.center_coords[j % (s.n + 1)])


def facet_vertices(s, j) -> list[int]:
    """The vertices of facet j of the simplex s: every vertex but j."""
    return [k for k in range(s.n + 1) if k != j % (s.n + 1)]


def hyperplane_through(points, orthogonal_to=()) -> Hyperplane:
    """The hyperplane through the given points, with extra orthogonality constraints.

    The coordinate rows of ``points`` together with the raw vectors in
    ``orthogonal_to`` must span a subspace of rank ``ambient_dim - 1``; the
    normal is then the one-dimensional Minkowski orthocomplement, computed
    from an SVD nullspace.  Raises if the span is rank-deficient, if the
    system is overdetermined, or if the complement is not spacelike (no
    geodesic hyperplane contains the data).
    """
    rows = [p.coords if isinstance(p, HPoint) else np.asarray(p, dtype=float) for p in points]
    rows.extend(np.asarray(v, dtype=float) for v in orthogonal_to)
    if not rows:
        raise ValueError("need at least one point or constraint")
    m = rows[0].shape[0]
    a = np.vstack(rows)
    if a.shape[1] != m:
        raise ValueError("inconsistent ambient dimensions")
    # <r, u> = (G r) . u with G = diag(-1, 1, ..., 1), so flip the timelike column
    a[:, 0] = -a[:, 0]
    _, sv, vt = np.linalg.svd(a)
    rank = int(np.sum(sv > max(a.shape) * np.finfo(np.float64).eps * sv[0]))
    if rank != m - 1:
        raise ValueError(f"constraints span rank {rank}, need {m - 1} for a unique hyperplane")
    u = vt[-1]
    q = mink_inner(u, u)
    if q <= REP_TOL:
        raise ValueError("orthocomplement is not spacelike; no geodesic hyperplane fits")
    return Hyperplane(u / np.sqrt(q))


def to_poincare_ball(p: HPoint) -> np.ndarray:
    """Poincare-ball chart ``x_i / (1 + x_0)``; the image lies in the open unit ball."""
    return p.coords[1:] / (1.0 + p.coords[0])
