"""Shared helpers: random hyperboloid data for property tests, `fold`, and the facets
of a simplex as point objects wrapped from its coordinate rows."""

import math

import numpy as np
from hypothesis import strategies as st

from hypbilliards.geometry import HPoint, Hyperplane
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
