"""The ambient billiard loop that `flow._run`'s margin coordinates replace.

`run` bounces a state as the package did before its flow ran on facet
margins: the state is a pair of ambient coordinate vectors, every margin is
a Minkowski product against the facet normals, and the rounding noise that
leaves the simplex slice is projected out after every flight.  It shares
`next_collision` with the package, so the two loops choose facets by the
same rule, and the tests compare their trajectories.
"""

import math

import numpy as np

from hypbilliards.flow import GRAZE_TOL, FlowState, NonSmoothHitError, Trajectory, next_collision
from hypbilliards.geometry import (HPoint, Region, check_on_sheet, check_unit_tangent, mink_dot,
                                   mink_pairs, tangent_part, to_sheet)
from hypbilliards.simplex import classify_point


def reflect_at(x, d, k, u, margin):
    """Direction d at x, on facet k with normal u and margin <x,u>, mirrored and re-projected."""
    if abs(margin) > 1e-9:
        raise ValueError(f"reflection point is not on facet {k}")
    nu = mink_dot(d, u)
    if abs(nu) <= GRAZE_TOL:
        raise NonSmoothHitError(f"grazing incidence at facet {k} (normal component {nu})")
    return tangent_part(x, d - 2.0 * nu * u)


def run(s, state, steps):
    """``steps`` bounces from ``state`` on ambient coordinates; the run's largest
    drift is the maximum of its per-bounce drift rows."""
    normals = s.normal_coords
    ones = s.slice_vector()
    m, unit = s.n + 1.0, math.sqrt(s.n + 1.0)
    x, v = state.position.coords, state.direction
    mus = mink_pairs(x, normals).tolist()
    facets = np.empty(steps, dtype=np.intp)
    points = np.empty((steps, s.ambient_dim))
    arclengths = np.empty(steps)
    drifts = np.empty((steps, 5))
    for i in range(steps):
        try:
            k, t = next_collision(mus, mink_pairs(v, normals).tolist())
            ch, sh = math.cosh(t), math.sinh(t)
            x_raw, v_raw = ch * x + sh * v, sh * x + ch * v
            check_on_sheet(to_sheet(x_raw))

            # slice maintenance: measure, guard, project
            cx = mink_dot(x_raw, ones) / m
            cv = mink_dot(v_raw, ones) / m
            defect = max(abs(cx), abs(cv)) * unit
            if defect > 1e-9:
                raise ValueError(f"bounce {i}: state has left the simplex slice (defect {defect:.3e})")
            drifts[i] = (
                abs(mink_dot(x_raw, x_raw) + 1.0),
                abs(mink_dot(v_raw, v_raw) - 1.0),
                abs(mink_dot(x_raw, v_raw)),
                abs(cx) * unit,
                abs(cv) * unit,
            )
            x = to_sheet(x_raw - cx * ones)
            check_on_sheet(x)

            region, facet, mus = classify_point(s, x)
            if region is not Region.FACET_INTERIOR:
                raise NonSmoothHitError(f"bounce {i}: hit the {region.value} region of the boundary")
            if facet != k:
                raise NonSmoothHitError(
                    f"bounce {i}: collision facet {k} disagrees with classification {facet}"
                )
            d = tangent_part(x, v_raw - cv * ones)
            check_unit_tangent(x, d)
            v = reflect_at(x, d, k, normals[k], mus[k])
            check_unit_tangent(x, v)
        except NonSmoothHitError as err:
            err.step = i
            raise
        facets[i] = k
        points[i] = x
        arclengths[i] = t
    final = FlowState(HPoint(x), v) if steps else state
    return Trajectory(facets, points, arclengths, float(drifts.max(initial=0.0)), final)
