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
records the defects and the invariants' drift before renormalizing, so
violations cannot pass silently.

One loop, `_loop`, runs the bounces and makes every check; its vector steps
come from one of two kernel sets, chosen once per run.  `_list_kernels` works
on lists of Python floats, whose elementwise steps are list comprehensions and
whose sums are `math.fsum`, exactly rounded and so the same on every Python;
`_array_kernels` works on numpy arrays and sums by ddot.  A bounce is about 23
numpy calls on vectors of N entries, and below a dozen or so facets their
dispatch costs more than their arithmetic, so `_run` bounces simplices of at
most `_LIST_LOOP_MAX_FACETS` facets on lists (`_list_loop`) and larger ones on
arrays (`_array_loop`); `iterate`, `step` and `run_closure` all go through it.
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
flight; the arrival's `classify_margins` must put the point inside the facet
hit (else `NonSmoothHitError`), so no later step re-tests the margins; and
`reflect_at` mirrors, raising only at grazing incidence.  The loop calls
these two through their module bindings.  The checks of `HPoint` and
`FlowState` run on the margin form of their products; a `ValueError` or
`NonSmoothHitError` in the loop names its bounce.

No output depends on the `HPoint` and `FlowState` checks, the sheet check
after the scaling and the tangent check after the mirror, and on lists they
take some 15% of a bounce, so a list run of at least `_SCREEN_MIN_BOUNCES`
bounces makes them after its bounces, `_SCREEN_ROWS` bounces at a time.  Each
bounce appends its scaled point (mu, x0) and its mirrored direction (nu, v0)
to flat ``array('d')`` records; `_settle` clears in one numpy screen every
pending row whose products hold within a proven bound of ddot against fsum,
then checks each other row as its bounce would have, in bounce order.  An
exception at bounce j first settles the pending rows before it, and bounce
j's point if it got past its scaling, so the first failing check is still
the one reported, with its type, message and bounce.  Until then, for at
most `_SCREEN_ROWS` bounces, a run with a failed check flies on from the
failed values, and numpy may warn of them in `inner`'s ddot fallback.
Shorter runs, every sweep closure among them, and the array loop, whose
numpy steps could warn while a check is pending, check inline.  The screen
costs about 20 bounces' checks: screened over inline, runs of 8, 16, 24 and
32 bounces from a perturbed launch took 1.15, 1.05, 0.97 and 0.94 of the
time at N = 4 and 1.07, 1.01, 0.93 and 0.92 at N = 9 (medians of 9
alternated batches, same host).

A run comes out as a `Trajectory` of read-only stacks, row i for bounce i,
whose points are rebuilt once per run from the margins recorded per bounce:
the spatial part of x is mu times the normals' spatial parts, over alpha.
`iterate` is the loop and `step` is one bounce of it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import chain
from math import fsum
from operator import mul
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from . import geometry
from .geometry import (HPoint, check_sheet_products, check_tangent_products, check_unit_tangent,
                       chord_dist, mink_dot, mink_dots, mink_inner, tangent_part, unit_tangent)
from .simplex import FACET_TOL, Region, RegularSimplex, classify_margins, classify_point

if TYPE_CHECKING:  # annotations only: the flow imports none of the orbit's algebra
    from .orbit import BilliardOrbit

# Flights shorter than this re-hit the departure facet and are discarded.
T_MIN = 1e-9
_TANH_T_MIN = math.tanh(T_MIN)

# A normal component this small or smaller at a facet is a grazing hit.
GRAZE_TOL = 1e-9

# Simplices of at most this many facets (N = n + 1) bounce on `_list_loop`, larger
# ones on `_array_loop`: the last N at which the list loop measured faster in more
# than three pairs of four (module docstring).
_LIST_LOOP_MAX_FACETS = 12

# Runs of at least this many bounces on `_list_kernels` make the sheet and tangent
# checks after their bounces (`_settle`), instead of inside each bounce: the first
# run length measured faster at both N = 4 and N = 9 (module docstring).  Shorter
# runs, every sweep closure among them, check inline.
_SCREEN_MIN_BOUNCES = 24

# A screened run settles its pending checks each time this many bounces are
# recorded, so a failed check is reported within this many bounces, the direction
# records hold at most this many rows and the screen's numpy temporaries, some 200
# bytes a row, stay near 50 KB however long the run.
_SCREEN_ROWS = 256


class NonSmoothHitError(RuntimeError):
    """Trajectory left the smooth billiard regime (corner hit or grazing incidence)."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


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
        if d.shape != self.position.coords.shape:
            raise ValueError("direction dimension does not match base point")
        check_unit_tangent(self.position.coords, d)


def state_toward(a: HPoint, b: HPoint, last_facet: int | None = None) -> FlowState:
    """State at A aimed toward B; `unit_tangent` leaves <x,v> ~ eps / d(A,B), so re-project."""
    return FlowState(a, tangent_part(a.coords, unit_tangent(a, b)), last_facet)


def next_collision(mus: list[float], nus: list[float], last: int | None) -> tuple[int, float]:
    """Facet and flight time of the first forward crossing of a state inside the
    simplex, from its position's margins ``mus`` and its direction's ``nus``.

    The margin mu cosh t + nu sinh t reaches 0 at tanh t = -mu/nu, a crossing
    only if it decreases (nu < 0) and is reachable (|mu| < |nu|: otherwise the
    geodesic approaches the hyperplane asymptotically without crossing).  The
    T_MIN floor applies only to the facet the state just bounced off, so
    rounding cannot re-register the departure as a fresh hit; genuinely short
    flights onto other facets (deep corner visits) are kept and left for the
    arrival classification to reject as non-smooth.  atanh is increasing, so
    the smallest ratio marks the first hit; on a tie the lower index wins.
    """
    best_k, best = -1, 1.0  # tanh t < 1: a ratio of 1 or more is never reached
    for k, (mu, nu) in enumerate(zip(mus, nus)):
        if nu < 0.0 and (_TANH_T_MIN if k == last else 0.0) < (ratio := -mu / nu) < best:
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
    ``drifts`` is ``(k, 5)``: the errors accumulated over each incoming flight,
    |<x,x>+1|, |<v,v>-1| and |<x,v>| before normalization, and the consistency
    defects |sum(mu)/N + p x0| and |sum(nu)/N + p v0| of position and direction.
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
        # exactly rounded, so the same bits on every Python: `sum` is compensated from 3.12 on
        return fsum(self.arclengths.tolist())


def _gram(s: RegularSimplex) -> tuple[float, float, float]:
    """The normals' timelike coordinate p and their Gram entries alpha and beta
    (module docstring)."""
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
    a partial sum that overflows.  There `inner` takes ddot's value, so the check
    it feeds fails as on arrays.  On a run that checks inline the sums of the
    flight cannot raise: every margin has passed a check on a product that holds
    its square, or at entry is at most n+2 times sqrt(max float), and a flight
    scales it by at most cosh t + sinh t < 1.4e8, so their sums stay finite.  On
    a screened run a margin can reach the next flight with its check pending and
    make those sums raise; the loop then settles the pending checks first, so the
    earlier bounce's check is reported (module docstring)."""
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


def _cleared(mu: np.ndarray, x0: np.ndarray, nu: np.ndarray, v0: np.ndarray, big: int,
             alpha: float, nb: float) -> np.ndarray:
    """The rows of a screened run's records whose sheet and tangent products hold
    beyond doubt; ``nu`` and ``v0`` may have a row fewer than ``mu`` and ``x0``.

    ``inner`` is (fsum(a b) + c) / alpha with c = nb a0 b0, which the screen rounds
    alike.  With T = sum |a_i b_i| and u = 2^-53, fsum of the rounded products is
    within 2 u T of the exact sum, and a ddot of N products in any order within
    N u T to first order (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2nd ed., 2002, section 3.1); the sum with c and the division by alpha round each
    side once more, so the two products differ by at most (N + 6) u (T + |c|) / alpha
    to first order.  T is the product itself for <x,x> and <v,v>, and at most
    (<mu,mu> + <nu,nu>) / 2 for <x,v>.  A row's product is cleared where it is
    inside its tolerance by twice that bound, against the tolerance shrunk by 2^-48
    for the screen's own rounding (gradual underflow adds at most N 2^-1074 to a
    dot, far below that), and where T + |c| is at most 2^1000, so no partial sum of
    fsum's overflows.  So a cleared row passes its checks, and a NaN or inf clears
    nothing.  Runs under the caller's errstate.
    """
    rows, done = len(x0), len(v0)
    # the sheet products <x,x>, then the tangent ones <v,v> and <x,v>
    mm, nn = np.vecdot(mu, mu), np.vecdot(nu, nu)
    dots = np.concatenate((mm, nn, np.vecdot(mu[:done], nu)))
    a0, b0 = np.concatenate((x0, v0, x0[:done])), np.concatenate((x0, v0, v0))
    c = nb * a0 * b0
    off = np.abs((dots + c) / alpha - np.repeat((-1.0, 1.0, 0.0), (rows, done, done)))
    bulk = np.concatenate((mm, nn, (mm[:done] + nn) / 2.0)) + np.abs(c)
    tol = np.maximum(1.0, np.abs(a0 * b0)) * (geometry.REP_TOL * (1.0 - 2.0 ** -48))
    ok = (off + (big + 6) * 2.0 ** -52 / alpha * bulk <= tol) & (bulk <= 2.0 ** 1000)
    cleared = ok[:rows] & (x0 > 0.0)
    cleared[:done] &= ok[rows:rows + done] & ok[rows + done:]
    return cleared


def _settle(margins: array, x0s: array, lo: int, directions: array, v0s: array, big: int,
            alpha: float, nb: float, inner: Callable) -> None:
    """The pending sheet and tangent checks of a screened run (module docstring).

    Row i of ``margins`` and ``x0s`` is bounce i's point after its scaling, and the
    checks of rows ``lo`` on are pending; row i - lo of ``directions`` and ``v0s`` is
    bounce i's direction after the mirror, so the point records hold one pending row
    more where a bounce failed after its scaling.  One numpy screen (`_cleared`, under
    one errstate, so it warns of nothing) clears the rows whose products hold beyond
    doubt.  Every other row takes the loop's own checks on the kernel's ``inner``, in
    bounce order, so the first check that fails raises as it would have inside its
    bounce.
    """
    mu, x0 = np.frombuffer(margins).reshape(-1, big)[lo:], np.frombuffer(x0s)[lo:]
    nu, v0 = np.frombuffer(directions).reshape(-1, big), np.frombuffer(v0s)
    with np.errstate(all="ignore"):
        cleared = _cleared(mu, x0, nu, v0, big, alpha, nb)
    for i in (~cleared).nonzero()[0].tolist():
        p, p0 = mu[i].tolist(), x0s[lo + i]
        try:
            check_sheet_products(inner(p, p, p0, p0), p0)
            if i < len(v0s):
                d, d0 = nu[i].tolist(), v0s[i]
                check_tangent_products(inner(d, d, d0, d0), inner(p, d, p0, d0), p0, d0)
        except ValueError as err:
            raise ValueError(f"bounce {lo + i}: {err}") from err


def _loop(s: RegularSimplex, state: FlowState, steps: int,
          kernels: Callable[..., _Kernels]) -> Trajectory:
    """The billiard loop, on the vector ``kernels`` (`_list_kernels` or `_array_kernels`)."""
    big, (p, alpha, beta), normals = s.n + 1, _gram(s), s.normal_coords[:, 1:]
    listed, flight, scaled, tangent, inner = kernels(big, p, alpha, nb := big * beta)
    screened = listed and steps >= _SCREEN_MIN_BOUNCES
    mu, nu = _enter(s, state)
    mus, nus = mu.tolist(), nu.tolist()
    if listed:
        mu, nu = mus, nus
    x0, v0, last = state.position.coords.item(0), state.direction.item(0), state.last_facet
    # the run's points, row i for bounce i: flat records on lists, and on arrays a list of
    # margin rows, since copying each into a flat record measured 2-8% slower a closure
    # at n = 128.  A screened run also records the mirrored directions of the bounces from
    # `lo` on, whose checks are pending, and settles them after bounce `due`
    margins = array("d") if listed else []
    record = margins.fromlist if listed else margins.append
    x0s, directions, v0s = array("d"), array("d"), array("d")
    lo, due = 0, _SCREEN_ROWS - 1 if screened else -1
    facets, arclengths, drifts = [], [], []
    for i in range(steps):
        try:
            k, t = next_collision(mus, nus, last)
            ch, sh = math.cosh(t), math.sinh(t)
            x0, v0 = ch * x0 + sh * v0, sh * x0 + ch * v0

            # the flight, its consistency guard and projection (see module docstring)
            mu, nu, dx, dv = flight(mu, nu, ch, sh, x0, v0)
            if (defect := max(abs(dx), abs(dv))) > 1e-9:
                raise ValueError(f"margins disagree with the timelike coordinate (defect {defect:.3e})")
            xx, vv, xv = inner(mu, mu, x0, x0), inner(nu, nu, v0, v0), inner(mu, nu, x0, v0)
            drifts.append((abs(xx + 1.0), abs(vv - 1.0), abs(xv), abs(dx), abs(dv)))

            # `to_sheet` and `check_on_sheet`, then `classify_point`'s rule
            if not xx < 0.0:
                raise ValueError(f"cannot normalize non-timelike vector (<v,v> = {xx!r})")
            if x0 < 0.0:
                raise ValueError("timelike vector points into the lower sheet")
            mu, x0 = scaled(mu, scale := math.sqrt(-xx)), x0 / scale
            record(mu)
            x0s.append(x0)
            if not screened:
                check_sheet_products(inner(mu, mu, x0, x0), x0)
            region, facet = classify_margins(mus := mu if listed else mu.tolist())
            if region is not Region.FACET_INTERIOR:
                raise NonSmoothHitError(f"hit the {region.value} region of the boundary")
            if facet != k:
                raise NonSmoothHitError(f"collision facet {k} disagrees with classification {facet}")

            # `tangent_part`, the mirror and `check_unit_tangent`
            xv = inner(mu, nu, x0, v0)
            nu, v0 = tangent(nu, mu, xv), v0 + xv * x0
            if not (vv := inner(nu, nu, v0, v0)) > 0.0:
                raise ValueError("vector has no spacelike tangential component")
            nu, v0 = scaled(nu, scale := math.sqrt(vv)), v0 / scale
            nu, v0 = reflect_at(nu, v0, k, p, beta)
            if screened:
                directions.fromlist(nu)
                v0s.append(v0)
            else:
                check_tangent_products(inner(nu, nu, v0, v0), inner(mu, nu, x0, v0), x0, v0)
        except Exception as err:
            if screened:  # an earlier bounce's pending check fails first
                _settle(margins, x0s, lo, directions, v0s, big, alpha, nb, inner)
            if isinstance(err, NonSmoothHitError):
                raise NonSmoothHitError(f"bounce {i}: {err}", i) from err
            if isinstance(err, ValueError):
                raise ValueError(f"bounce {i}: {err}") from err
            raise
        nus = nu if listed else nu.tolist()
        last = k
        facets.append(k)
        arclengths.append(t)
        if i == due:
            _settle(margins, x0s, lo, directions, v0s, big, alpha, nb, inner)
            lo, due, directions, v0s = i + 1, due + _SCREEN_ROWS, array("d"), array("d")
    if screened:
        _settle(margins, x0s, lo, directions, v0s, big, alpha, nb, inner)

    # the run as read-only stacks (module docstring) and the state after its last bounce
    points = np.empty((steps, big + 1))
    points[:, 0] = x0s
    np.divide(np.asarray(margins, float).reshape(steps, big) @ normals, alpha, out=points[:, 1:])
    facets, arclengths = np.array(facets, dtype=np.intp), np.array(arclengths)
    drifts = np.fromiter(chain.from_iterable(drifts), float, 5 * steps).reshape(steps, 5)
    for a in (facets, points, arclengths, drifts):
        a.setflags(write=False)
    if steps:
        d = np.concatenate(((v0,), (np.asarray(nu) @ normals) / alpha))
        state = FlowState(HPoint(points[-1]), d, k)
    return Trajectory(facets, points, arclengths, drifts, state)


def _list_loop(s: RegularSimplex, state: FlowState, steps: int) -> Trajectory:
    """`_loop` on lists of Python floats, for at most `_LIST_LOOP_MAX_FACETS` facets."""
    return _loop(s, state, steps, _list_kernels)


def _array_loop(s: RegularSimplex, state: FlowState, steps: int) -> Trajectory:
    """`_loop` on numpy arrays, for more than `_LIST_LOOP_MAX_FACETS` facets."""
    return _loop(s, state, steps, _array_kernels)


def _run(s: RegularSimplex, state: FlowState, steps: int) -> Trajectory:
    """``steps`` bounces from ``state``, on the loop that is faster at this dimension."""
    loop = _list_loop if s.n + 1 <= _LIST_LOOP_MAX_FACETS else _array_loop
    return loop(s, state, steps)


def step(s: RegularSimplex, state: FlowState) -> Trajectory:
    """One bounce; raises `NonSmoothHitError` off the smooth regime."""
    return _run(s, state, 1)


def iterate(s: RegularSimplex, state: FlowState, steps: int) -> Trajectory:
    """Run ``steps`` bounces of the billiard flow."""
    if steps < 0:
        raise ValueError(f"need a non-negative bounce count, got {steps}")
    return _run(s, state, steps)


def launch_state(s: RegularSimplex, orbit: BilliardOrbit) -> FlowState:
    """Initial flow state of a closed polygon: at P_0, along the orbit's `direction`."""
    p0 = orbit.point(0)
    return FlowState(p0, tangent_part(p0.coords, orbit.direction),
                     classify_point(s, p0.coords)[1])


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
