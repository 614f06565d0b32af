"""Construction and verification of the closed (n+1)-bounce billiard orbit.

The orbit's j-th bounce point is the centroid of the vertex masses with the
solved weight profile rotated by j steps:

    (P_j, m_j) = fold over k of (V_((k+j) mod (n+1)), w_k).

Because w_0 = 0, the vertex opposite facet j carries no weight and P_j lies
on facet j; the recurrence satisfied by the weights makes consecutive
bounce points obey the mirror law.  `verify_orbit` measures all of this
geometrically and reports residuals; it assumes nothing about how the
orbit was produced beyond "one bounce point per facet".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    HPoint,
    Hyperplane,
    chord_dist,
    dist,
    foot_of_perpendicular,
    mink_inner,
    reflect,
    segment_defect,
    unit_tangent,
)
from .masses import centroid_fold
from .simplex import Region, RegularSimplex, classify_point
from .weights import MassSequence


def specular_defect(h: Hyperplane, prev_pt: HPoint, at: HPoint, next_pt: HPoint) -> float:
    """Angle (radians) between the mirror image of the incoming direction and the outgoing one.

    Zero exactly when the path prev -> at -> next reflects off the
    hyperplane according to the equal-angles law.
    """
    w_in = -unit_tangent(at, prev_pt)
    w_out = unit_tangent(at, next_pt)
    w_ref = w_in - 2.0 * mink_inner(w_in, h.normal) * h.normal
    return float(np.arccos(np.clip(mink_inner(w_ref, w_out), -1.0, 1.0)))


@dataclass(frozen=True, eq=False)
class BilliardOrbit:
    """Cyclic sequence of bounce points with their centroid masses."""

    points: tuple[HPoint, ...]
    masses: np.ndarray
    multiplier: float

    def __post_init__(self):
        m = np.array(np.asarray(self.masses, dtype=np.float64), copy=True)
        m.setflags(write=False)
        object.__setattr__(self, "masses", m)
        if m.shape != (len(self.points),):
            raise ValueError("one mass per bounce point required")

    @property
    def period(self) -> int:
        return len(self.points)

    def point(self, j: int) -> HPoint:
        return self.points[j % self.period]

    def mass(self, j: int) -> float:
        return float(self.masses[j % self.period])

    def reversed(self) -> "BilliardOrbit":
        """The same closed polygon traversed backwards (P_0, P_n, ..., P_1)."""
        idx = [(-j) % self.period for j in range(self.period)]
        return BilliardOrbit(
            tuple(self.points[i] for i in idx), self.masses[idx], self.multiplier
        )


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
        return bool(np.all(self.facet_ok)) and len(set(self.facet_of.tolist())) == len(self.facet_of)

    def max_residuals(self) -> dict[str, float]:
        # collinearity defects can round to tiny negatives; compare magnitudes
        return {
            "incidence": float(np.max(np.abs(self.incidence))),
            "collinearity": float(np.max(np.abs(self.collinearity))),
            "centroid_dist": float(np.max(np.abs(self.centroid_dist))),
            "centroid_mass_rel": float(np.max(np.abs(self.centroid_mass_rel))),
            "angle_defect": float(np.max(np.abs(self.angle_defect))),
        }


def construct_orbit(s: RegularSimplex, seq: MassSequence) -> BilliardOrbit:
    """Build the (n+1)-periodic orbit from the weight profile."""
    if seq.n != s.n or seq.edge != s.edge:
        raise ValueError(
            f"simplex (n={s.n}, edge={s.edge}) and weights (n={seq.n}, edge={seq.edge}) disagree"
        )
    # w_{n+1} = 0, so k = 0..n suffices; row k of the rolled stack is vertex k + j
    vc, w = s.vertex_coords, seq.weights[:-1]
    pms = [centroid_fold(w, np.concatenate((vc[j:], vc[:j]))) for j in range(s.n + 1)]
    return BilliardOrbit(tuple(pm.location for pm in pms), np.array([pm.weight for pm in pms]),
                         seq.multiplier)


def verify_orbit(s: RegularSimplex, orbit: BilliardOrbit, facet_tol: float = 1e-9) -> OrbitVerification:
    """Measure the billiard conditions at every bounce of a closed polygon.

    For each j with facet k = facet(P_j) and mirror sigma across facet k:
      - incidence:     |<P_j, u_k>|
      - collinearity:  defect of P_j on the segment [P_{j-1}, sigma(P_{j+1})]
      - centroid:      (P_{j-1}, m_{j-1}) + (sigma(P_{j+1}), m_{j+1}) versus
                       (P_j, multiplier * m_j), split into location distance
                       and relative mass error
      - angle_defect:  deviation from the equal-angles law at P_j
    """
    p = orbit.period
    facet_of = np.full(p, -1, dtype=int)
    facet_ok = np.zeros(p, dtype=bool)
    incidence = np.zeros(p)
    collinearity = np.zeros(p)
    centroid_dist = np.zeros(p)
    centroid_mass_rel = np.zeros(p)
    angle_defect = np.zeros(p)

    for j in range(p):
        pj = orbit.point(j)
        cls = classify_point(s, pj, tol=facet_tol)
        if cls.region is Region.FACET_INTERIOR:
            k = cls.facet
            facet_ok[j] = True
        else:
            k = int(np.argmin(np.abs(cls.margins)))
        facet_of[j] = k
        hp = s.facet(k).hyperplane
        prev_pt = orbit.point(j - 1)
        next_pt = orbit.point(j + 1)
        mirrored = reflect(hp, next_pt)

        incidence[j] = abs(hp.margin(pj))
        collinearity[j] = segment_defect(pj, prev_pt, mirrored)
        merged = centroid_fold((orbit.mass(j - 1), orbit.mass(j + 1)),
                               np.array((prev_pt.coords, mirrored.coords)))
        target_mass = orbit.multiplier * orbit.mass(j)
        centroid_dist[j] = chord_dist(merged.location, pj)
        centroid_mass_rel[j] = abs(merged.weight - target_mass) / target_mass
        angle_defect[j] = specular_defect(hp, prev_pt, pj, next_pt)

    return OrbitVerification(
        facet_of, facet_ok, incidence, collinearity, centroid_dist, centroid_mass_rel, angle_defect
    )


def orthic_points(s: RegularSimplex) -> tuple[HPoint, HPoint, HPoint]:
    """Altitude feet of the triangle (n = 2 only): foot j lies on the side opposite V_j."""
    if s.n != 2:
        raise ValueError(f"altitude feet are a triangle construction; got n = {s.n}")
    return tuple(
        foot_of_perpendicular(s.facets[j].hyperplane, s.vertices[j]) for j in range(3)
    )


def midpoint_defects(s: RegularSimplex) -> np.ndarray:
    """Mirror-law angle defects of the facet-center polygon W_0 W_1 ... W_n."""
    n = s.n
    centers = [f.center for f in s.facets]
    out = np.zeros(n + 1)
    for j in range(n + 1):
        out[j] = specular_defect(
            s.facets[j].hyperplane,
            centers[(j - 1) % (n + 1)],
            centers[j],
            centers[(j + 1) % (n + 1)],
        )
    return out


def midpoint_trajectory_defect(s: RegularSimplex) -> float:
    """Worst mirror-law violation along the facet-center polygon.

    Vanishes for n = 2 (the centers are the altitude feet) and is bounded
    away from zero for n >= 3: the naive generalization of the triangle
    orbit is not a billiard trajectory.
    """
    return float(np.max(midpoint_defects(s)))


def orbit_edge_lengths(orbit: BilliardOrbit) -> np.ndarray:
    """Lengths of the polygon sides P_j -> P_{j+1}."""
    return np.array([dist(orbit.point(j), orbit.point(j + 1)) for j in range(orbit.period)])
