"""Geodesic billiard flow inside the simplex.

This is the independent certifier for the orbit construction: it knows
nothing about center-of-mass algebra.  A state is a point plus a unit
tangent direction; the flow follows x(t) = p cosh t + v sinh t until the
first facet crossing, reflects the velocity specularly, and repeats.  A
closed orbit fed to `closure_error` must come back to its starting state
after one period up to rounding.

Collision times are closed-form: the crossing of the facet with normal u
satisfies tanh t = -<x,u>/<v,u>, so no numerical stepping is involved.

The loop runs on facet margins: a state is (mu, x0, nu, v0), the margins
mu_k = <x, u_k> and nu_k = <v, u_k> against the N = n+1 facet normals and
the timelike coordinates.  The normals span the simplex slice, so the state
cannot leave it, and their Gram matrix is G = alpha I + beta J, with p the
normals' timelike coordinate, q^2 = 1 + p^2, alpha = q^2 N/n and
beta = -p^2 - q^2/n.  Every vector of the slice has sum(mu) = -N p x0, so
<x, y> = (mu . nu + N beta x0 y0) / alpha, with no term that cancels.  The
flight mixes (mu, x0) and (nu, v0) with the weights cosh t and sinh t; the
mirror at facet k negates nu_k and moves every other nu_j by -2 nu_k beta
and v0 by -2 nu_k p.  A bounce makes no Minkowski product.

x0 and v0 are redundant but carried: as -sum(nu)/(N p), v0 would cancel
margins of size 1 down to p, of the size of the edge a, an error of eps/a.
The consistency defect (sum(mu) + N p x0)/N that rounding leaves grows like
e^t per flight on a diverging geodesic mode and would collapse a chaotic
run within a few hundred bounces, so after every flight it is removed from
every margin; one above 1e-9 raises.  Position and direction are then
renormalized onto the hyperboloid and its tangent space.  Each bounce
measures the defects and the invariants' drift before renormalizing and the
run keeps the largest, so violations cannot pass silently.  Python's `max`
skips a NaN after a number, but no returned run has one: a NaN dx or <x,x>
fails `not xx < 0.0`, and a NaN dv, <v,v> or <x,v> recurs in the bounce's
tangent step, which fails `not vv > 0.0` or the <x,v> check.

One loop, `_loop`, runs the bounces and makes every check; its vector steps
come from one of two kernel sets, chosen once per run.  `_list_kernels` works
on lists of Python floats, whose elementwise steps are list comprehensions and
whose sums are `math.fsum`, exactly rounded and so the same on every Python;
`_array_kernels` works on numpy arrays and sums by ddot.  A bounce is about 23
numpy calls on vectors of N entries, and below a dozen or so facets their
dispatch costs more than their arithmetic, so `_run` bounces simplices of at
most `_LIST_LOOP_MAX_FACETS` facets on lists (`_list_kernels`) and larger ones
on arrays (`_array_kernels`); `iterate`, `step` and `run_closure` all go
through it.
An elementwise step rounds the same on a list and on an array, but ddot
rounds its sums differently from fsum, so the two agree to rounding, not bit
for bit.  Time per bounce on lists over arrays, the median of 21 interleaved
pairs of 400-bounce runs from a perturbed launch at a = 1 (2-vCPU Linux host,
Python 3.11, numpy 2.4):

    N       3     4     9     11    12    13    14    16    33    129
    ratio   0.60  0.66  0.87  0.92  0.94  0.97  1.04  1.09  1.57  3.09

Each check is made once.  On entry (`_enter`) the state must lie in the
slice, which margins cannot see (|<x,1>| and |<v,1>| at most 1e-9), with no
margin below -`simplex.FACET_TOL`.  Per bounce, `next_collision` gives the
flight over the facets with nu < 0, which leaves out the facet just left: a
flight ends on facet k with nu_k = cosh t (nu^2 - mu^2)/nu < 0, and the mirror
raises at |nu_k| <= `GRAZE_TOL` or sets nu_k to -nu_k > `GRAZE_TOL`.  The
arrival's `classify_margins` must put the point inside the facet hit (else
`NonSmoothHitError`), so no later step re-tests the margins; and `reflect_at`
mirrors, raising only at grazing incidence.  The loop calls these two through
their module bindings.  The checks of `HPoint` and `FlowState` run on the
margin form of their products; a `ValueError` or `NonSmoothHitError` in the
loop names its bounce.

On lists two of these checks are proven instead of made: the sheet check
after the scaling and the <v,v> half of the tangent check after the mirror.
Let u = 2^-53 and W = (sum |a_i b_i| + |nb a0 b0|) / alpha for
`inner(a, b, a0, b0)`.  To first order in u (Higham, *Accuracy and Stability
of Numerical Algorithms*, 2nd ed., 2002, section 3.1):

- `inner` is within 4uW of its exact value: fsum of the rounded products is
  within 2u sum |a_i b_i|, nb a0 b0 rounds twice, the sum and division once.
- -beta is the cosine of the dihedral angle, above the ideal simplex's
  arccos(1/(n-1)), so p^2 <= 1/(n^2-1), |beta| <= 1/(n-1), 1 <= alpha <= 2
  and |nb|/alpha <= N/n <= 3/2: a y with <y,y> = -+1 has W <= 3 y0^2 -+ 1.
- Scaling y by 1/sqrt|q|, q its `inner`, leaves |<y,y> -+ 1| <= 6uW + 2u:
  4uW from q, 2u from the sqrt and 2uW from the entries.

So the sheet check reads |<x,x> + 1| <= 10uW + 2u <= 30u x0^2, a 300th of its
tolerance REP_TOL max(1, x0^2).  For the direction, let V be the largest of 1
and |v0| before and after the mirror at facet k.  The normalization leaves
6uW + 2u with W <= 1 + 3V^2, and the mirror changes <v,v> exactly by
4 nu_k (nu_k beta E - beta D + eta p (nu_k p - v0)) / alpha, where
E = 1 + n beta + N p^2 is 0 for exact Gram entries and |E| <= 6u from their
rounding; D = sum(nu) + N p v0, the slice defect left by the projection, the
tangent step and the normalization, is |D| <= u (3 sum |nu_j| + 7 N |p v0|);
eta = nb - N beta, nb's rounding, is |eta| <= u |nb|; and |nu_k| <= 1 for a
unit tangent at a point of facet k.  The mirror's entries round once more and
the check adds 4uW, so |<v,v> - 1| <= (150 + 30 sqrt(N)) u V^2.  As the mirror
moves v0 by |2 nu_k p| <= 2/sqrt(3), V^2 <= 4.7 max(1, v0^2): at N <= 12 the
check reads at most 1.4e-13 max(1, v0^2), a seventh of its tolerance
(`tests/test_flow.py` measures both).  A NaN or an infinity, which the bounds
do not cover, fails a guard that stays.  The <x,v> check stays on lists: the
mirror moves <x,v> by -2 nu_k mu_k, and the classification holds mu_k only to
`simplex.FACET_TOL` (a far launch at n = 2 and a = 30 fails it).  The array
loop makes every check, as ddot's error grows like N u W and it takes any N.

A run comes out as a `Trajectory` of read-only stacks, row i for bounce i,
and its largest drift; points are rebuilt once per run from recorded margins:
the spatial part of x is mu times the normals' spatial parts, over alpha.
`iterate` is the loop and `step` is one bounce of it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from math import fsum
from operator import mul
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .geometry import (HPoint, check_sheet_products, check_tangency_product, check_tangent_products,
                       check_unit_tangent, chord_dist, mink_dot, mink_dots, mink_inner, tangent_part,
                       unit_tangent)
from .simplex import FACET_TOL, Region, RegularSimplex, classify_margins

if TYPE_CHECKING:  # annotations only: the flow imports none of the orbit's algebra
    from .orbit import BilliardOrbit

# A normal component this small or smaller at a facet is a grazing hit; a mirrored
# one is larger, and positive, so the departure facet is out of the next flight's reach.
GRAZE_TOL = 1e-9

# Simplices of at most this many facets (N = n + 1) bounce on `_list_kernels`,
# larger ones on `_array_kernels`: the last N at which the list loop measured
# faster in more than three pairs of four (module docstring).
_LIST_LOOP_MAX_FACETS = 12


class NonSmoothHitError(RuntimeError):
    """Trajectory left the smooth billiard regime (corner hit or grazing incidence)."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True, eq=False)
class FlowState:
    """Unit-speed billiard state: a point and a unit tangent direction at it."""

    position: HPoint
    direction: np.ndarray

    def __post_init__(self):
        d = np.array(np.asarray(self.direction, dtype=np.float64), copy=True)
        d.setflags(write=False)
        object.__setattr__(self, "direction", d)
        if d.shape != self.position.coords.shape:
            raise ValueError("direction dimension does not match base point")
        check_unit_tangent(self.position.coords, d)


def state_toward(a: HPoint, b: HPoint) -> FlowState:
    """State at A aimed toward B; `unit_tangent` leaves <x,v> ~ eps / d(A,B), so re-project.
    From A on a facet toward B inside, it moves off that facet (nu > 0) and cannot hit it."""
    return FlowState(a, tangent_part(a.coords, unit_tangent(a, b)))


def next_collision(mus: list[float], nus: list[float]) -> tuple[int, float]:
    """Facet and flight time of the first forward crossing of a state inside the
    simplex, from its position's margins ``mus`` and its direction's ``nus``.

    The margin mu cosh t + nu sinh t reaches 0 at tanh t = -mu/nu, a crossing
    only if it decreases (nu < 0) and is reachable (|mu| < |nu|: otherwise the
    geodesic approaches the hyperplane asymptotically without crossing).  The
    facet just bounced off is never taken, as the mirror left its nu above
    `GRAZE_TOL` (module docstring); short flights onto other facets (deep corner
    visits) are kept for the arrival classification to reject as non-smooth.
    atanh is increasing, so the smallest ratio marks the first hit; on a tie the
    lower index wins.
    """
    best_k, best = -1, 1.0  # tanh t < 1: a ratio of 1 or more is never reached
    for k, (mu, nu) in enumerate(zip(mus, nus)):
        if nu < 0.0 and 0.0 < (ratio := -mu / nu) < best:
            best_k, best = k, ratio
    if best_k < 0:
        raise ValueError("no forward facet crossing; state does not point into the simplex")
    return best_k, math.atanh(best)


def reflect_at(nu: np.ndarray | list[float], v0: float, k: int, p: float,
               beta: float) -> tuple[np.ndarray | list[float], float]:
    """Direction margins ``nu`` and coordinate ``v0`` mirrored at facet k: v - 2 nu_k u_k
    moves nu_j by -2 nu_k G_kj and v0 by -2 nu_k p (module docstring).  ``nu`` is an
    array or, on `_list_kernels`, a list, and the mirror is of the same type."""
    listed = isinstance(nu, list)
    nu_k = nu[k] if listed else nu.item(k)
    if abs(nu_k) <= GRAZE_TOL:
        raise NonSmoothHitError(f"grazing incidence at facet {k} (normal component {nu_k})")
    shift = 2.0 * nu_k * beta
    out = [w - shift for w in nu] if listed else nu - shift
    out[k] = -nu_k
    return out, v0 - 2.0 * nu_k * p


@dataclass(frozen=True, eq=False)
class Trajectory:
    """The bounces of one run as read-only stacks, row i for bounce i, and the state after them.

    ``facets`` is ``(k,)`` intp, ``points`` ``(k, n+2)``, ``arclengths`` ``(k,)``.
    ``max_drift`` is the largest error accumulated over an incoming flight (0.0 for none):
    |<x,x>+1|, |<v,v>-1| and |<x,v>| before normalization, and the consistency
    defects |sum(mu)/N + p x0| and |sum(nu)/N + p v0| of position and direction.
    """

    facets: np.ndarray
    points: np.ndarray
    arclengths: np.ndarray
    max_drift: float
    final_state: FlowState

    def __len__(self) -> int:
        return len(self.facets)

    @property
    def total_length(self) -> float:
        # exactly rounded, so the same bits on every Python: `sum` is compensated from 3.12 on
        return fsum(self.arclengths.tolist())


def _gram(s: RegularSimplex) -> tuple[float, float, float]:
    """The normals' timelike coordinate p and Gram entries alpha, beta (module docstring)."""
    p = s.normal_coords.item(0, 0)
    q2 = 1.0 + p * p
    return p, q2 * (s.n + 1) / s.n, -p * p - q2 / s.n


def _enter(s: RegularSimplex, state: FlowState) -> tuple[np.ndarray, np.ndarray]:
    """The margins of a run's start, which must lie in the slice and not outside the simplex."""
    x, v = state.position.coords, state.direction
    ones = s.slice_vector()
    defect = max(abs(mink_dot(x, ones)), abs(mink_dot(v, ones)))
    if defect > 1e-9:
        raise ValueError(f"state has left the simplex slice (defect {defect:.3e})")
    mu, nu = mink_dots(x, s.normal_coords), mink_dots(v, s.normal_coords)
    for k, m in enumerate(mu.tolist()):
        if m < -FACET_TOL:
            raise ValueError(f"state is outside the simplex (margin {m} at facet {k})")
    return mu, nu


class _Kernels(NamedTuple):
    """The vector steps of one run's bounce loop, on lists (``listed``) or on arrays.

    ``flight(mu, nu, ch, sh, x0, v0)`` flies both margin vectors to
    ``(ch mu + sh nu, sh mu + ch nu)``, projects each by its consistency defect
    against the flown timelike coordinates x0 and v0, and returns them with the two
    defects.  ``scaled(a, c)`` is ``a / c``, ``tangent(nu, mu, xv)`` is ``nu + xv mu``
    and ``inner(a, b, a0, b0)`` is <x, y> of two slice vectors (module docstring).
    The array steps may overwrite their first argument.
    """

    listed: bool
    flight: Callable
    scaled: Callable
    tangent: Callable
    inner: Callable


def _list_kernels(big: int, p: float, alpha: float, nb: float) -> _Kernels:
    """The kernels on lists of Python floats, for simplices of at most
    `_LIST_LOOP_MAX_FACETS` facets: each elementwise step a list comprehension, each
    sum a `math.fsum`, exactly rounded.  ``big`` is N and ``nb`` is N beta.

    fsum raises where ddot returns inf or nan, on inf - inf (a ValueError) and on
    a partial sum that overflows; there `inner` takes ddot's value, so what it
    feeds fails as on arrays.  The flight's sums cannot raise: a flight scales a
    margin by at most cosh t + sinh t < 1.4e8, and a margin is at most n+2 times
    sqrt(max float) at entry and 3 max(1, |x0|, |v0|) after a bounce (module
    docstring), with x0 below sqrt(max float) in any simplex `simplex.build` makes."""
    def flight(mu, nu, ch, sh, x0, v0):
        mu, nu = ([ch * m + sh * w for m, w in zip(mu, nu)],
                  [sh * m + ch * w for m, w in zip(mu, nu)])
        dx, dv = fsum(mu) / big + p * x0, fsum(nu) / big + p * v0
        return [m - dx for m in mu], [w - dv for w in nu], dx, dv

    def scaled(a, c):
        return [e / c for e in a]

    def tangent(nu, mu, xv):
        return [w + xv * m for m, w in zip(mu, nu)]

    def inner(a, b, a0, b0):
        try:
            dot = fsum(map(mul, a, b))
        except (OverflowError, ValueError):
            with np.errstate(over="ignore", invalid="ignore"):
                dot = float(np.dot(a, b))
        return (dot + nb * a0 * b0) / alpha

    return _Kernels(True, flight, scaled, tangent, inner)


def _array_kernels(big: int, p: float, alpha: float, nb: float) -> _Kernels:
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

    return _Kernels(False, flight, scaled, tangent, inner)


def _loop(s: RegularSimplex, state: FlowState, steps: int,
          kernels: Callable[..., _Kernels]) -> Trajectory:
    """The billiard loop, on the vector ``kernels`` (`_list_kernels` or `_array_kernels`)."""
    big, (p, alpha, beta), normals = s.n + 1, _gram(s), s.normal_coords[:, 1:]
    listed, flight, scaled, tangent, inner = kernels(big, p, alpha, big * beta)
    mu, nu = _enter(s, state)
    mus, nus = mu.tolist(), nu.tolist()
    if listed:
        mu, nu = mus, nus
    x0, v0 = state.position.coords.item(0), state.direction.item(0)
    # the run's points, row i for bounce i: flat records on lists, margin rows on arrays
    # (copying each into a flat record measured 2-8% slower a closure at n = 128)
    margins = array("d") if listed else []
    record = margins.fromlist if listed else margins.append
    facets, x0s, arclengths, drift = [], array("d"), array("d"), 0.0
    for i in range(steps):
        try:
            k, t = next_collision(mus, nus)
            ch, sh = math.cosh(t), math.sinh(t)
            x0, v0 = ch * x0 + sh * v0, sh * x0 + ch * v0

            # the flight, its consistency guard and projection (see module docstring)
            mu, nu, dx, dv = flight(mu, nu, ch, sh, x0, v0)
            if (defect := max(abs(dx), abs(dv))) > 1e-9:
                raise ValueError(f"margins disagree with the timelike coordinate (defect {defect:.3e})")
            xx, vv, xv = inner(mu, mu, x0, x0), inner(nu, nu, v0, v0), inner(mu, nu, x0, v0)
            drift = max(drift, abs(xx + 1.0), abs(vv - 1.0), abs(xv), abs(dx), abs(dv))

            # `to_sheet` and `check_on_sheet` (proven on lists), then `classify_point`'s rule
            if not xx < 0.0:
                raise ValueError(f"cannot normalize non-timelike vector (<v,v> = {xx!r})")
            if x0 < 0.0:
                raise ValueError("timelike vector points into the lower sheet")
            mu, x0 = scaled(mu, scale := math.sqrt(-xx)), x0 / scale
            if not listed:
                check_sheet_products(inner(mu, mu, x0, x0), x0)
            region, facet = classify_margins(mus := mu if listed else mu.tolist())
            if region is not Region.FACET_INTERIOR:
                raise NonSmoothHitError(f"hit the {region.value} region of the boundary")
            if facet != k:
                raise NonSmoothHitError(f"collision facet {k} disagrees with classification {facet}")

            # `tangent_part`, the mirror and `check_unit_tangent` (its <v,v> half proven on lists)
            xv = inner(mu, nu, x0, v0)
            nu, v0 = tangent(nu, mu, xv), v0 + xv * x0
            if not (vv := inner(nu, nu, v0, v0)) > 0.0:
                raise ValueError("vector has no spacelike tangential component")
            nu, v0 = scaled(nu, scale := math.sqrt(vv)), v0 / scale
            nu, v0 = reflect_at(nu, v0, k, p, beta)
            if listed:
                check_tangency_product(inner(mu, nu, x0, v0), x0, v0)
            else:
                check_tangent_products(inner(nu, nu, v0, v0), inner(mu, nu, x0, v0), x0, v0)
        except NonSmoothHitError as err:
            raise NonSmoothHitError(f"bounce {i}: {err}", i) from err
        except ValueError as err:
            raise ValueError(f"bounce {i}: {err}") from err
        nus = nu if listed else nu.tolist()
        facets.append(k)
        record(mu)
        x0s.append(x0)
        arclengths.append(t)

    # the run as read-only stacks (module docstring) and the state after its last bounce
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


def _run(s: RegularSimplex, state: FlowState, steps: int) -> Trajectory:
    """``steps`` bounces from ``state``, on the kernels that are faster at this dimension."""
    kernels = _list_kernels if s.n + 1 <= _LIST_LOOP_MAX_FACETS else _array_kernels
    return _loop(s, state, steps, kernels)


def step(s: RegularSimplex, state: FlowState) -> Trajectory:
    """One bounce; raises `NonSmoothHitError` off the smooth regime."""
    return _run(s, state, 1)


def iterate(s: RegularSimplex, state: FlowState, steps: int) -> Trajectory:
    """Run ``steps`` bounces of the billiard flow."""
    if steps < 0:
        raise ValueError(f"need a non-negative bounce count, got {steps}")
    return _run(s, state, steps)


def launch_state(orbit: BilliardOrbit) -> FlowState:
    """Initial flow state of a closed polygon: at P_0, along the orbit's `direction`,
    which moves away from P_0's facet toward P_1."""
    p0 = orbit.point(0)
    return FlowState(p0, tangent_part(p0.coords, orbit.direction))


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
    stay resolvable down to rounding level.  The direction term reads 0.0 where
    <diff, diff> rounds below 0, as at (6, 5) and (11, 10) (-4.4e-32, -2.3e-31),
    though the part of diff tangent at the launch has norm 3.5e-16 and 7.7e-16.
    """
    start = launch_state(orbit)
    traj = iterate(s, start, periods * orbit.period)
    dpos = chord_dist(traj.final_state.position, start.position)
    diff = traj.final_state.direction - start.direction
    ddir = math.sqrt(max(mink_inner(diff, diff), 0.0))
    return ClosureResult(dpos, ddir, traj)


def closure_error(s: RegularSimplex, orbit: BilliardOrbit) -> float:
    """Worst of position and direction mismatch after one flowed period."""
    return run_closure(s, orbit).error
