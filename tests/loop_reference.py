"""Per-point loops that the stacked passes of `orbit`, `simplex` and `report` replace,
and the bounce loop with its two kernel sets that `flow`'s generated loops replace.

Each function evaluates one bounce, facet or vertex at a time with the
scalar primitives of `geometry` and with `centroid_fold`, as the package
did before its cell certificates ran on coordinate stacks.  The tests
compare the stacked results with these bit for bit.  The facets and bounce
points they take one at a time are wrapped from the rows of the stacks.

`reference_loop` is `flow`'s bounce loop as one Python body over vector
kernels, the list kernels as comprehensions: the tests compare the generated
loops with it bit for bit.  It calls `next_collision`, `reflect_at`,
`classify_margins`, the checks and `fsum` through the `flow` module's
bindings, as the generated loops do, so a test that rebinds one of them
reaches both.
"""

import math
from array import array
from operator import mul
from typing import Callable, NamedTuple

import numpy as np

from conftest import facet_center, facet_plane, facet_vertices
from hypbilliards import flow
from hypbilliards.flow import FlowState, Trajectory, _enter, _gram
from hypbilliards.geometry import (
    HPoint,
    Region,
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
from hypbilliards.simplex import classify_point
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


class Kernels(NamedTuple):
    """The vector steps of one run's bounce loop, on lists (``listed``) or on arrays.

    ``flight(mu, nu, ch, sh, x0, v0)`` flies both margin vectors to
    ``(ch mu + sh nu, sh mu + ch nu)``, projects each by its consistency defect
    against the flown timelike coordinates x0 and v0, and returns them with the two
    defects.  ``scaled(a, c)`` is ``a / c``, ``tangent(nu, mu, xv)`` is ``nu + xv mu``
    and ``inner(a, b, a0, b0)`` is <x, y> of two slice vectors (`flow` docstring).
    The array steps may overwrite their first argument.
    """

    listed: bool
    flight: Callable
    scaled: Callable
    tangent: Callable
    inner: Callable


def list_kernels(big, p, alpha, nb):
    """The kernels as list comprehensions over ``zip`` and sums by `math.fsum`, for lists
    of any length; ``big`` is N and ``nb`` is N beta.  Where fsum raises, `inner` takes
    ddot's value."""
    def flight(mu, nu, ch, sh, x0, v0):
        mu, nu = ([ch * m + sh * w for m, w in zip(mu, nu)],
                  [sh * m + ch * w for m, w in zip(mu, nu)])
        dx, dv = flow.fsum(mu) / big + p * x0, flow.fsum(nu) / big + p * v0
        return [m - dx for m in mu], [w - dv for w in nu], dx, dv

    def scaled(a, c):
        return [e / c for e in a]

    def tangent(nu, mu, xv):
        return [w + xv * m for m, w in zip(mu, nu)]

    def inner(a, b, a0, b0):
        try:
            dot = flow.fsum(map(mul, a, b))
        except (OverflowError, ValueError):
            with np.errstate(over="ignore", invalid="ignore"):
                dot = float(np.dot(a, b))
        return (dot + nb * a0 * b0) / alpha

    return Kernels(True, flight, scaled, tangent, inner)


def array_kernels(big, p, alpha, nb):
    """The kernels on numpy arrays, in place where they can be, summing by ddot."""
    all_ones = np.ones(big)

    def flight(mu, nu, ch, sh, x0, v0):
        mu, nu = ch * mu + sh * nu, sh * mu + ch * nu
        dx, dv = float(mu.dot(all_ones)) / big + p * x0, float(nu.dot(all_ones)) / big + p * v0
        mu -= dx
        nu -= dv
        return mu, nu, dx, dv

    def scaled(a, c):
        a /= c
        return a

    def tangent(nu, mu, xv):
        nu += xv * mu
        return nu

    def inner(a, b, a0, b0):
        return (float(a.dot(b)) + nb * a0 * b0) / alpha

    return Kernels(False, flight, scaled, tangent, inner)


def reference_loop(s, state, steps, listed):
    """``steps`` bounces from ``state`` on the list kernels (``listed``) or the array
    kernels: one body that makes every check, the arrival's through `classify_margins`."""
    big, (p, alpha, beta), normals = s.n + 1, _gram(s), s.normal_coords[:, 1:]
    kernels = list_kernels if listed else array_kernels
    _, flight, scaled, tangent, inner = kernels(big, p, alpha, big * beta)
    mu, nu = _enter(s, state)
    mus, nus = mu.tolist(), nu.tolist()
    if listed:
        mu, nu = mus, nus
    x0, v0 = state.position.coords.item(0), state.direction.item(0)
    margins = array("d") if listed else []
    record = margins.fromlist if listed else margins.append
    facets, x0s, arclengths, drift = [], array("d"), array("d"), 0.0
    for i in range(steps):
        try:
            k, t = flow.next_collision(mus, nus)
            ch, sh = math.cosh(t), math.sinh(t)
            x0, v0 = ch * x0 + sh * v0, sh * x0 + ch * v0

            mu, nu, dx, dv = flight(mu, nu, ch, sh, x0, v0)
            if (defect := max(abs(dx), abs(dv))) > 1e-9:
                raise ValueError(f"margins disagree with the timelike coordinate (defect {defect:.3e})")
            xx, vv, xv = inner(mu, mu, x0, x0), inner(nu, nu, v0, v0), inner(mu, nu, x0, v0)
            drift = max(drift, abs(xx + 1.0), abs(vv - 1.0), abs(xv), abs(dx), abs(dv))

            if not xx < 0.0:
                raise ValueError(f"cannot normalize non-timelike vector (<v,v> = {xx!r})")
            if x0 < 0.0:
                raise ValueError("timelike vector points into the lower sheet")
            mu, x0 = scaled(mu, scale := math.sqrt(-xx)), x0 / scale
            if not listed:
                flow.check_sheet_products(inner(mu, mu, x0, x0), x0)
            region, facet = flow.classify_margins(mus := mu if listed else mu.tolist())
            if region is not Region.FACET_INTERIOR:
                raise flow.NonSmoothHitError(f"hit the {region.value} region of the boundary")
            if facet != k:
                raise flow.NonSmoothHitError(f"collision facet {k} disagrees with classification {facet}")

            xv = inner(mu, nu, x0, v0)
            nu, v0 = tangent(nu, mu, xv), v0 + xv * x0
            if not (vv := inner(nu, nu, v0, v0)) > 0.0:
                raise ValueError("vector has no spacelike tangential component")
            nu, v0 = scaled(nu, scale := math.sqrt(vv)), v0 / scale
            nu, v0 = flow.reflect_at(nu, v0, k, p, beta)
            if listed:
                flow.check_tangency_product(inner(mu, nu, x0, v0), x0, v0)
            else:
                flow.check_tangent_products(inner(nu, nu, v0, v0), inner(mu, nu, x0, v0), x0, v0)
        except flow.NonSmoothHitError as err:
            raise flow.NonSmoothHitError(f"bounce {i}: {err}", i) from err
        except ValueError as err:
            raise ValueError(f"bounce {i}: {err}") from err
        nus = nu if listed else nu.tolist()
        facets.append(k)
        record(mu)
        x0s.append(x0)
        arclengths.append(t)

    points = np.empty((steps, big + 1))
    points[:, 0] = x0s
    np.divide(np.asarray(margins, float).reshape(steps, big) @ normals, alpha, out=points[:, 1:])
    facets, arclengths = np.array(facets, dtype=np.intp), np.array(arclengths)
    for a in (facets, points, arclengths):
        a.setflags(write=False)
    if steps:
        d = np.concatenate(((v0,), (np.asarray(nu) @ normals) / alpha))
        state = FlowState(HPoint(points[-1]), d)
    return Trajectory(facets, points, arclengths, drift, state)
