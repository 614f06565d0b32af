"""Geodesic billiard flow inside the simplex.

This is the independent certifier for the orbit construction: it knows
nothing about center-of-mass algebra.  A state is a point plus a unit
tangent direction; the flow follows x(t) = p cosh t + v sinh t until the
first facet crossing, reflects the velocity specularly, and repeats.  A
closed orbit fed to `closure_error` must come back to its starting state
after one period up to rounding.

Collision times are closed-form: the crossing of the facet with normal u
satisfies tanh t = -<x,u>/<v,u>, so no numerical stepping is involved.
Position and velocity are renormalized onto the hyperboloid and its
tangent space after every bounce; the pre-normalization drift is recorded
per bounce so invariant violations cannot pass silently.

The simplex lives in a linear slice of the ambient space and the flow must
stay there too.  That constraint is actively maintained: rounding noise in
the slice-orthogonal direction is stretched by a factor e^t per flight (it
rides a diverging geodesic mode), so after the propagation step the state
is projected back onto the slice, and the pre-projection defect goes into
the drift record.  Without this the noise reaches O(1) within a couple
hundred bounces and the trajectory escapes into the unbounded prism that
the facet hyperplanes bound in the full ambient space.

Hits that land on the lower-dimensional boundary (edges, vertices) or
arrive tangentially are outside the scope of the mirror law and raise
`NonSmoothHitError`.

All bounces run through one loop, `_run`, on bare coordinate arrays.  A
run comes out as a `Trajectory` of read-only stacks, row i for bounce i:
facets, points, arclengths and invariant drifts.  The loop builds no
`HPoint` and no record per bounce, yet makes every check the point and
tangent classes make, through the same functions in `geometry`.  The
facet margins of each bounce point serve both to classify it and as the
next flight's margins.  `iterate` is the loop; `step` is one bounce of
it, and `next_collision` and `reflect_at` run its flight and its mirror
on one point object.  Those three stay public as the one-bounce entry
points: tests drive single bounces through them, and
``perfbench/tracer.py`` wraps them by name.
Every Minkowski product is one BLAS ``ddot`` per pair of vectors: margins
against all facets are one `mink_dots` over the simplex's normal stack,
a stacked vector-vector matmul that numpy runs as one ``ddot`` per row.
They are never a 2-D matrix-vector product over the normals: ``gemv``
rounds differently in the last bit for most vectors, and the orbit
residuals pinned under ``tests/golden/`` would move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .geometry import (HPoint, Hyperplane, TangentVec, check_on_sheet, check_unit_tangent,
                       chord_dist, mink_dot, mink_dots, mink_inner, tangent_part, to_sheet,
                       unit_tangent)
from .simplex import Region, RegularSimplex, classify_point, region_of

if TYPE_CHECKING:  # annotations only: the flow imports none of the orbit's algebra
    from .orbit import BilliardOrbit

# Flights shorter than this re-hit the departure facet and are discarded.
T_MIN = 1e-9
_TANH_T_MIN = math.tanh(T_MIN)

# Inward margin slack: a state may sit this far on the wrong side of a
# facet (it happens right after a bounce) and still count as inside.
BOUNDARY_SLACK = 1e-9

# A normal component this small or smaller at a facet is a grazing hit.
GRAZE_TOL = 1e-9


class NonSmoothHitError(RuntimeError):
    """Trajectory left the smooth billiard regime (corner hit or grazing incidence)."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


def _check_unit_speed(vv: float, xv: float) -> None:
    """`FlowState`'s fixed-tolerance checks of <v,v> = 1 and <x,v> = 0."""
    if abs(vv - 1.0) > 1e-10:
        raise ValueError(f"direction must be unit spacelike: <v,v> = {vv!r}")
    if abs(xv) > 1e-10:
        raise ValueError(f"direction must be tangent to position: <x,v> = {xv!r}")


@dataclass(frozen=True, eq=False)
class FlowState:
    """Unit-speed billiard state; ``last_facet`` names the facet just bounced off, if any."""

    position: HPoint
    direction: np.ndarray
    last_facet: int | None = None

    def __post_init__(self):
        d = np.array(np.asarray(self.direction, dtype=np.float64), copy=True)
        d.setflags(write=False)
        object.__setattr__(self, "direction", d)
        _check_unit_speed(mink_inner(d, d), mink_inner(self.position.coords, d))


def state_toward(a: HPoint, b: HPoint, last_facet: int | None = None) -> FlowState:
    """State at A aimed toward B; `unit_tangent` leaves <x,v> ~ eps / d(A,B), so re-project."""
    return FlowState(a, tangent_part(a.coords, unit_tangent(a, b)), last_facet)


def _crossing_ratio(mu: float, nu: float, lo: float) -> float | None:
    """tanh of the flight time at which mu cosh t + nu sinh t = 0, if it lies in (lo, 1).

    Requires the margin to be decreasing (nu < 0) and the crossing to be
    reachable (|mu| < |nu|, otherwise the geodesic approaches the
    hyperplane asymptotically without crossing).
    """
    if nu >= 0.0:
        return None
    ratio = -mu / nu
    return ratio if lo < ratio < 1.0 else None


def _next_hit(mus: list[float], v: np.ndarray, normals: np.ndarray,
              last: int | None) -> tuple[int, float]:
    """Facet and flight time of the first forward crossing from margins ``mus`` along v.

    The T_MIN floor applies only to the facet the state just bounced off,
    so rounding cannot re-register the departure as a fresh hit; genuinely
    short flights onto other facets (deep corner visits) are kept and left
    for the arrival classification to reject as non-smooth.  atanh is
    increasing, so the smallest ratio marks the first hit.
    """
    best_k, best = -1, math.inf
    for k, (mu, nu) in enumerate(zip(mus, mink_dots(v, normals).tolist())):
        if mu < -BOUNDARY_SLACK:
            raise ValueError(f"state is outside the simplex (margin {mu} at facet {k})")
        ratio = _crossing_ratio(mu, nu, _TANH_T_MIN if k == last else 0.0)
        if ratio is not None and ratio < best:
            best_k, best = k, ratio
    if best_k < 0:
        raise ValueError("no forward facet crossing; state does not point into the simplex")
    return best_k, math.atanh(best)


def _mirror(x: np.ndarray, d: np.ndarray, k: int, u: np.ndarray, margin: float) -> np.ndarray:
    """Direction d at x, on facet k with normal u and margin <x,u>, mirrored and re-projected."""
    if abs(margin) > 1e-9:
        raise ValueError(f"reflection point is not on facet {k}")
    nu = mink_dot(d, u)
    if abs(nu) <= GRAZE_TOL:
        raise NonSmoothHitError(f"grazing incidence at facet {k} (normal component {nu})")
    return tangent_part(x, d - 2.0 * nu * u)


def next_collision(s: RegularSimplex, state: FlowState) -> tuple[int, HPoint, float]:
    """Facet index, collision point, and flight time of the next boundary hit."""
    normals = s.normal_coords
    x, v = state.position.coords, state.direction
    k, t = _next_hit(mink_dots(x, normals).tolist(), v, normals, state.last_facet)
    return k, HPoint.from_vector(math.cosh(t) * x + math.sinh(t) * v), t


def reflect_at(s: RegularSimplex, k: int, q: HPoint, v_in: TangentVec) -> TangentVec:
    """Specular reflection of an arriving direction at a point of facet k.

    The arrival point must lie on the facet hyperplane and the incidence
    must be transversal; a normal component up to ``GRAZE_TOL`` is a
    grazing hit and raises `NonSmoothHitError`.
    """
    hp = Hyperplane(s.normal_coords[k % (s.n + 1)])
    if not np.allclose(v_in.base.coords, q.coords, rtol=0.0, atol=1e-9):
        raise ValueError("arriving tangent is not based at the reflection point")
    return TangentVec(q, _mirror(q.coords, v_in.direction, k, hp.normal, hp.margin(q)))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """The bounces of one run as read-only stacks, row i for bounce i, and the state after them.

    ``facets`` is ``(k,)`` intp, ``points`` ``(k, n+2)``, ``arclengths`` ``(k,)``.
    ``drifts`` is ``(k, 5)``: the pre-normalization invariant errors accumulated
    over each incoming flight, |<x,x>+1|, |<v,v>-1|, |<x,v>|, and the
    slice-orthogonal components of position and direction.
    """

    facets: np.ndarray
    points: np.ndarray
    arclengths: np.ndarray
    drifts: np.ndarray
    final_state: FlowState

    def __len__(self) -> int:
        return len(self.facets)

    @property
    def max_drift(self) -> float:
        return float(self.drifts.max(initial=0.0))

    @property
    def total_length(self) -> float:
        # summed left to right as floats, not numpy's pairwise sum: the bits of a loop
        return sum(self.arclengths.tolist())


def _run(s: RegularSimplex, state: FlowState, steps: int) -> Trajectory:
    """The billiard loop: ``steps`` bounces from ``state``."""
    normals = s.normal_coords
    ones = s.slice_vector()
    m, unit = s.n + 1.0, math.sqrt(s.n + 1.0)
    x, v, last = state.position.coords, state.direction, state.last_facet
    mus = mink_dots(x, normals).tolist()
    facets = np.empty(steps, dtype=np.intp)
    points = np.empty((steps, s.ambient_dim))
    arclengths = np.empty(steps)
    drifts = np.empty((steps, 5))
    for i in range(steps):
        try:
            k, t = _next_hit(mus, v, normals, last)
            ch, sh = math.cosh(t), math.sinh(t)
            x_raw, v_raw = ch * x + sh * v, sh * x + ch * v
            check_on_sheet(to_sheet(x_raw))

            # slice maintenance: measure, guard, project (see module docstring)
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

            mus = mink_dots(x, normals).tolist()
            region, facet = region_of(mus)
            if region is not Region.FACET_INTERIOR:
                raise NonSmoothHitError(f"bounce {i}: hit the {region.value} region of the boundary")
            if facet != k:
                raise NonSmoothHitError(
                    f"bounce {i}: collision facet {k} disagrees with classification {facet}"
                )
            d = tangent_part(x, v_raw - cv * ones)
            check_unit_tangent(x, d)
            v = _mirror(x, d, k, normals[k], mus[k])
            _check_unit_speed(*check_unit_tangent(x, v))
        except NonSmoothHitError as err:
            err.step = i
            raise
        last = facets[i] = k
        points[i] = x
        arclengths[i] = t
    for a in (facets, points, arclengths, drifts):
        a.setflags(write=False)
    final = FlowState(HPoint(x), v, last) if steps else state
    return Trajectory(facets, points, arclengths, drifts, final)


def step(s: RegularSimplex, state: FlowState) -> Trajectory:
    """One bounce; raises `NonSmoothHitError` off the smooth regime."""
    return _run(s, state, 1)


def iterate(s: RegularSimplex, state: FlowState, steps: int) -> Trajectory:
    """Run ``steps`` bounces of the billiard flow."""
    if steps < 0:
        raise ValueError(f"need a non-negative bounce count, got {steps}")
    return _run(s, state, steps)


def launch_state(s: RegularSimplex, orbit: BilliardOrbit) -> FlowState:
    """Initial flow state of a closed polygon: at P_0, aimed at P_1."""
    p0 = orbit.point(0)
    return state_toward(p0, orbit.point(1), last_facet=classify_point(s, p0).facet)


@dataclass(frozen=True)
class ClosureResult:
    position_error: float
    direction_error: float
    trajectory: Trajectory

    @property
    def error(self) -> float:
        return max(self.position_error, self.direction_error)


def run_closure(s: RegularSimplex, orbit: BilliardOrbit, periods: int = 1) -> ClosureResult:
    """Flow a closed polygon for whole periods and measure the return mismatch.

    Both errors are Minkowski norms of coordinate differences (position via
    `chord_dist`), which agree with distance and angle at these scales and
    stay resolvable down to rounding level.
    """
    start = launch_state(s, orbit)
    traj = iterate(s, start, periods * orbit.period)
    dpos = chord_dist(traj.final_state.position, start.position)
    diff = traj.final_state.direction - start.direction
    ddir = math.sqrt(max(mink_inner(diff, diff), 0.0))
    return ClosureResult(dpos, ddir, traj)


def closure_error(s: RegularSimplex, orbit: BilliardOrbit) -> float:
    """Worst of position and direction mismatch after one flowed period."""
    return run_closure(s, orbit).error
