"""Construction and verification of the closed (n+1)-bounce billiard orbit.

The orbit's j-th bounce point is the centroid of the vertex masses with the
solved weight profile rotated by j steps:

    (P_j, m_j) = fold over k of (V_((k+j) mod (n+1)), w_k).

Because w_0 = 0, the vertex opposite facet j carries no weight and P_j lies
on facet j; the recurrence satisfied by the weights makes consecutive
bounce points obey the mirror law.  `verify_orbit` measures all of this
geometrically and reports residuals; it assumes nothing about how the
orbit was produced beyond "one bounce point per facet".

Every certificate is an (n+1)-fold identity, one per bounce point, so each
runs as one pass over ``(n+1, n+2)`` coordinate stacks.  A `BilliardOrbit`
holds its bounce points only as such a stack, checked once and read-only;
`point(j)` wraps a row as an `HPoint` when one point is wanted.
`construct_orbit` folds all bounce points with `masses.cyclic_folds`, and
`verify_orbit` and `midpoint_defects` evaluate every bounce with the
row-wise forms of the `geometry` operations (`mink_pairs`, `mink_table`,
`reflect_rows`, `dist_rows`, ...).  Each row reproduces the one-point
computation bit for bit, and every check keeps its threshold and error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    HPoint,
    Hyperplane,
    check_on_sheet_rows,
    chord_dist_rows,
    dist,
    dist_rows,
    foot_of_perpendicular,
    mink_pairs,
    mink_table,
    reflect_rows,
    unit_tangent_rows,
)
from .masses import cyclic_folds, pair_folds
from .simplex import RegularSimplex, facet_hits
from .weights import MassSequence


def specular_defects(normals: np.ndarray, prev: np.ndarray, at: np.ndarray,
                     nxt: np.ndarray) -> np.ndarray:
    """Angle (radians) between the mirror image of the incoming direction and the
    outgoing one, at every row: the path ``prev[i] -> at[i] -> nxt[i]`` off the
    hyperplane with normal ``normals[i]``.  Zero exactly when the path reflects
    according to the equal-angles law."""
    w_in = unit_tangent_rows(at, prev)
    np.negative(w_in, out=w_in)
    w_in -= (2.0 * mink_pairs(w_in, normals))[:, None] * normals  # now its mirror image
    return np.arccos(mink_pairs(w_in, unit_tangent_rows(at, nxt)).clip(-1.0, 1.0))


@dataclass(frozen=True, eq=False)
class BilliardOrbit:
    """Cyclic sequence of bounce points with their centroid masses.

    Row j of the ``(p, m)`` stack ``coords`` is the bounce point P_j.  Both
    ``coords`` and ``masses`` are read-only copies of what was passed, and
    every row is checked to lie on the upper sheet, as an `HPoint` would be.
    ``direction``, read-only and not serialized, points along P_1 - P_0 for the
    flow's launch: `construct_orbit` passes its D, and the default is P_1 - P_0.
    """

    coords: np.ndarray
    masses: np.ndarray
    multiplier: float
    direction: np.ndarray | None = None

    def __post_init__(self):
        x = np.array(self.coords, dtype=np.float64, copy=True)
        if x.ndim != 2 or not len(x):
            raise ValueError(f"expected a (p, m) stack of bounce points, got shape {x.shape}")
        check_on_sheet_rows(x)
        m = np.array(np.asarray(self.masses, dtype=np.float64), copy=True)
        if m.shape != (len(x),):
            raise ValueError("one mass per bounce point required")
        d = np.array(x[1 % len(x)] - x[0] if self.direction is None else self.direction,
                     dtype=np.float64)
        for name, value in (("coords", x), ("masses", m), ("direction", d)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def period(self) -> int:
        return len(self.coords)

    def point(self, j: int) -> HPoint:
        """Bounce point j, indices cyclic mod the period."""
        return HPoint(self.coords[j % self.period])

    def mass(self, j: int) -> float:
        return float(self.masses[j % self.period])


@dataclass(frozen=True)
class OrbitVerification:
    """Per-bounce residuals; every array has one entry per orbit point.

    ``facet_of`` records which facet each point was classified onto (-1 when
    the point is not in any facet's relative interior, in which case the
    nearest facet is used for the other measurements).
    """

    facet_of: np.ndarray
    facet_ok: np.ndarray
    incidence: np.ndarray
    collinearity: np.ndarray
    centroid_dist: np.ndarray
    centroid_mass_rel: np.ndarray
    angle_defect: np.ndarray

    @property
    def clean_facets(self) -> bool:
        """Every point interior to its own facet, each facet hit exactly once."""
        return bool(self.facet_ok.all()) and len(set(self.facet_of.tolist())) == len(self.facet_of)

    def max_residuals(self) -> dict[str, float]:
        # collinearity defects can round to tiny negatives; compare magnitudes
        return {
            "incidence": float(np.abs(self.incidence).max()),
            "collinearity": float(np.abs(self.collinearity).max()),
            "centroid_dist": float(np.abs(self.centroid_dist).max()),
            "centroid_mass_rel": float(np.abs(self.centroid_mass_rel).max()),
            "angle_defect": float(np.abs(self.angle_defect).max()),
        }


def construct_orbit(s: RegularSimplex, seq: MassSequence) -> BilliardOrbit:
    """Build the (n+1)-periodic orbit from the weight profile."""
    if seq.n != s.n or seq.edge != s.edge:
        raise ValueError(
            f"simplex (n={s.n}, edge={s.edge}) and weights (n={seq.n}, edge={seq.edge}) disagree"
        )
    # w_{n+1} = 0, so k = 0..n suffices
    points, masses = cyclic_folds(seq.weights[:-1], s.vertex_coords)
    # D = sum_(i=1..N) d_i V_(i mod N), N = n+1, is parallel to P_1 - P_0 (every fold has the
    # same mass) and to sum (w_(i-1) - w_i) V_i, and sinh A sinh B = (cosh(A+B) - cosh(A-B))/2
    # makes each weight difference one sinh, d_i = sinh((2i-1-N) theta/2) / sinh(theta/2).
    big, unit = s.n + 1, math.sinh(0.5 * seq.theta)
    d = [math.sinh(0.5 * (2 * i - 1 - big) * seq.theta) / unit for i in range(1, big + 1)]
    vc = s.vertex_coords
    launch = np.array(d) @ np.concatenate((vc[1:], vc[:1]))  # row i - 1 is V_(i mod N)
    return BilliardOrbit(points, masses, seq.multiplier, launch)


def verify_orbit(s: RegularSimplex, orbit: BilliardOrbit) -> OrbitVerification:
    """Measure the billiard conditions at every bounce of a closed polygon.

    For each j with facet k = facet(P_j) and mirror sigma across facet k:
      - incidence:     |<P_j, u_k>|
      - collinearity:  defect of P_j on the segment [P_{j-1}, sigma(P_{j+1})]
      - centroid:      (P_{j-1}, m_{j-1}) + (sigma(P_{j+1}), m_{j+1}) versus
                       (P_j, multiplier * m_j), split into location distance
                       and relative mass error
      - angle_defect:  deviation from the equal-angles law at P_j

    A point that is not in exactly one facet's relative interior is measured
    against the facet of its smallest margin in absolute value.
    """
    x = orbit.coords
    ring = np.concatenate((x[-1:], x, x[:1]))
    prev, pts, nxt = ring[:-2], ring[1:-1], ring[2:]  # P_{j-1}, P_j, P_{j+1}
    facet_of, facet_ok, incidence = _facets_of(s, pts)
    normals = s.normal_coords[facet_of]
    angle_defect = specular_defects(normals, prev, pts, nxt)
    mirrored = reflect_rows(normals, nxt)

    # `segment_defect(P_j, P_{j-1}, mirrored)`
    collinearity = dist_rows(prev, pts) + dist_rows(pts, mirrored) - dist_rows(prev, mirrored)
    m = orbit.masses
    m_ring = np.concatenate((m[-1:], m, m[:1]))
    merged, merged_mass = pair_folds(m_ring[:-2], prev, m_ring[2:], mirrored)
    target_mass = orbit.multiplier * m
    if (target_mass == 0.0).any():  # as the float quotient of one bounce would
        raise ZeroDivisionError("float division by zero")
    centroid_dist = chord_dist_rows(merged, pts)
    centroid_mass_rel = np.abs(merged_mass - target_mass) / target_mass

    return OrbitVerification(
        facet_of, facet_ok, incidence, collinearity, centroid_dist, centroid_mass_rel, angle_defect
    )


def _facets_of(s: RegularSimplex, pts: np.ndarray):
    """Per point: its facet (or, off every facet interior, the facet of smallest
    |margin|), whether it is in that facet's relative interior, and |margin| there."""
    margins = mink_table(pts, s.normal_coords)
    hit = facet_hits(margins)
    facet_ok = hit >= 0
    facet_of = np.where(facet_ok, hit, np.abs(margins).argmin(axis=1))
    return facet_of, facet_ok, np.abs(margins[np.arange(len(pts)), facet_of])


def orthic_points(s: RegularSimplex) -> tuple[HPoint, HPoint, HPoint]:
    """Altitude feet of the triangle (n = 2 only): foot j lies on the side opposite V_j."""
    if s.n != 2:
        raise ValueError(f"altitude feet are a triangle construction; got n = {s.n}")
    return tuple(
        foot_of_perpendicular(Hyperplane(s.normal_coords[j]), s.vertex(j)) for j in range(3)
    )


def midpoint_defects(s: RegularSimplex) -> np.ndarray:
    """Mirror-law angle defects of the facet-center polygon W_0 W_1 ... W_n."""
    w = s.center_coords
    ring = np.concatenate((w[-1:], w, w[:1]))
    return specular_defects(s.normal_coords, ring[:-2], w, ring[2:])


def midpoint_trajectory_defect(s: RegularSimplex) -> float:
    """Worst mirror-law violation along the facet-center polygon.

    Vanishes for n = 2 (the centers are the altitude feet) and is bounded
    away from zero for n >= 3: the naive generalization of the triangle
    orbit is not a billiard trajectory.
    """
    return float(midpoint_defects(s).max())


def orbit_edge_lengths(orbit: BilliardOrbit) -> np.ndarray:
    """Lengths of the polygon sides P_j -> P_{j+1}."""
    return np.array([dist(orbit.point(j), orbit.point(j + 1)) for j in range(orbit.period)])
