"""Per-point loops that the stacked passes of `orbit`, `simplex` and `report` replace.

Each function evaluates one bounce, facet or vertex at a time with the
scalar primitives of `geometry` and with `centroid_fold`, as the package
did before its cell certificates ran on coordinate stacks.  The tests
compare the stacked results with these bit for bit.  The facets and bounce
points they take one at a time are wrapped from the rows of the stacks.
"""

import math

import numpy as np

from conftest import facet_center, facet_plane, facet_vertices
from hypbilliards.geometry import (
    angle_at,
    chord_dist,
    dist,
    mink_inner,
    reflect,
    segment_defect,
    unit_tangent,
)
from hypbilliards.masses import centroid_fold
from hypbilliards.orbit import OrbitVerification
from hypbilliards.simplex import Region, classify_point
from hypbilliards.weights import pair_mass_constant


def specular_defect(h, prev_pt, at, next_pt):
    w_in = -unit_tangent(at, prev_pt)
    w_out = unit_tangent(at, next_pt)
    w_ref = w_in - 2.0 * mink_inner(w_in, h.normal) * h.normal
    return float(np.arccos(np.clip(mink_inner(w_ref, w_out), -1.0, 1.0)))


def facet_centers(s):
    """Location of the fold of unit masses on each facet's vertices."""
    vc = s.vertex_coords
    return [centroid_fold(np.ones(s.n), vc[facet_vertices(s, j)]).location for j in range(s.n + 1)]


def construct_orbit(s, seq):
    """Bounce points and masses, one fold per bounce."""
    vc, w = s.vertex_coords, seq.weights[:-1]
    pms = [centroid_fold(w, np.concatenate((vc[j:], vc[:j]))) for j in range(s.n + 1)]
    return [pm.location for pm in pms], np.array([pm.weight for pm in pms])


def verify_orbit(s, orbit):
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
        region, k, margins = classify_point(s, pj.coords)
        if region is Region.FACET_INTERIOR:
            facet_ok[j] = True
        else:
            k = int(np.argmin(np.abs(margins)))
        facet_of[j] = k
        hp = facet_plane(s, k)
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


def midpoint_defects(s):
    n = s.n
    centers = [facet_center(s, j) for j in range(n + 1)]
    return np.array([
        specular_defect(facet_plane(s, j), centers[(j - 1) % (n + 1)], centers[j],
                        centers[(j + 1) % (n + 1)])
        for j in range(n + 1)
    ])


def vertex_reflection_identity_residual(s, j):
    v = s.vertex(j)
    lhs = centroid_fold((1.0, 1.0), np.array((v.coords, reflect(facet_plane(s, j), v).coords)))
    w = pair_mass_constant(s.n, math.cosh(s.edge))
    rhs = centroid_fold(np.full(s.n, w), s.vertex_coords[facet_vertices(s, j)])
    return max(
        chord_dist(lhs.location, rhs.location),
        abs(lhs.weight - rhs.weight) / rhs.weight,
    )


def metrics(s):
    """Vertex-to-circumcenter and vertex-to-opposite-facet-center distances."""
    vc = np.array([dist(s.vertex(j), s.circumcenter) for j in range(s.n + 1)])
    vf = np.array([dist(s.vertex(j), facet_center(s, j)) for j in range(s.n + 1)])
    return vc, vf


def simplex_checks(s):
    """`min_opposite_margin` and `right_angle` of the simplex document (n >= 2)."""
    min_margin = min(facet_plane(s, j).margin(s.vertex(j)) for j in range(s.n + 1))
    w0 = facet_center(s, 0)
    angle_terms = [
        abs(angle_at(w0, s.vertex(0), s.vertex(k)) - 0.5 * math.pi)
        for k in facet_vertices(s, 0)
        if dist(w0, s.vertex(k)) > 1e-12
    ]
    return min_margin, max(angle_terms) if angle_terms else 0.0

