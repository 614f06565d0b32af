"""Geodesic billiard flow inside the simplex.

This is the independent certifier for the orbit construction: at run time
it imports `geometry` alone, so it knows nothing of center-of-mass algebra.
A state is a point plus a unit tangent direction; the flow follows
x(t) = p cosh t + v sinh t until the first facet crossing, reflects the
velocity specularly, and repeats.  A closed orbit fed to `closure_error`
must come back to its starting state after one period up to rounding.

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

One template, `_LOOP_TEMPLATE`, is the whole run loop: every check, message
and drift term, and the naming of a failed bounce, is written there once.
Its vector steps are lines ``$step args``, filled from one of two small
tables.  `_LIST_STEPS` works on Python floats: the margins live in locals
mu0, mu1, ... and nu0, nu1, ... between steps, a step is one statement per
entry, and each sum is a `math.fsum` over a tuple display, exactly rounded
and so the same on every Python.  `_ARRAY_STEPS` works on numpy arrays in
place and sums by ddot.  `_generated` expands and compiles a list loop for
each N on first use and one array loop for every N, and registers each
source in `linecache`, so tracebacks show the loop's lines (`_loop_source`
returns it).  The loops read this module's globals when they run.  A bounce
is about 23 numpy calls on vectors of N entries, and at small N their
dispatch costs more than their arithmetic, so `_run` bounces simplices of
at most `_LIST_LOOP_MAX_FACETS` facets on lists and larger ones on arrays;
`iterate`, `step` and `run_closure` all go through it.  An elementwise step
rounds the same on a list and on an array, but ddot rounds its sums
differently from fsum, so the two agree to rounding, not bit for bit.  Time
per bounce on lists over arrays, the median of 21 interleaved pairs of
400-bounce runs from a perturbed launch at a = 1 (2-vCPU Linux host,
Python 3.11, numpy 2.4):

    N       3     4     9     11    12    13    14    16    25    29    33    129
    ratio   0.31  0.37  0.53  0.58  0.61  0.64  0.67  0.73  0.94  1.02  1.24  2.78

The ratio crosses 1 near N = 28 (0.98, 0.90 and 1.01 at N = 26 to 28).

A bounce takes 0.75 to 0.82 of the time of the loop body on kernel closures
that the generated loops replaced (`tests/loop_reference.py` keeps it as
the tests' oracle) on lists at N = 3 to 12, and 0.83 to 0.90 on arrays at
N = 13 to 129: each step is inlined instead of called, the margins stay in
locals between steps, and `classify_margins` runs only on a failed
arrival.  Generating a loop costs 1.5 ms at N = 2 to 2.4 ms at N = 12 and
1.0 ms for arrays, nearly all of it in `compile`, once per process, on the
first run that needs it; importing this module generates none.

Each check is made once.  On entry (`_enter`) the state must lie in the
slice, which margins cannot see (|<x,1>| and |<v,1>| at most 1e-9), with no
margin below the facet band (`geometry.facet_band`).  Per bounce,
`next_collision` gives the flight over the facets with nu < 0, which leaves
out the facet just left: a flight ends on facet k with
nu_k = cosh t (nu^2 - mu^2)/nu < 0, and the mirror raises at
|nu_k| <= `GRAZE_TOL` or sets nu_k to -nu_k >
`GRAZE_TOL`.  The arrival must lie inside the facet hit, as
`classify_margins` decides (else `NonSmoothHitError`), so no later step
re-tests the margins.  The loop tests -FACET_TOL <= mu_k <= FACET_TOL < min
of the other margins directly, and calls `classify_margins` only where that
fails, to decide and name the failure.  Where the test passes, mu_k is the
unique least margin and lies in the band, and every other margin is above
it or a NaN that `min` skipped, so `classify_margins` too puts the point
inside facet k; the two differ only where the first of the other margins is
a NaN, which `min` does not skip, and there `classify_margins`
decides.  `reflect_at` mirrors, raising only at grazing incidence.  The loop
calls `next_collision` and `reflect_at` once per bounce through their
module bindings.  The checks of `HPoint` and `FlowState` run on the margin
form of their products; a `ValueError` or `NonSmoothHitError` in the loop
names its bounce.

On lists two of these checks are proven instead of made: the sheet check
after the scaling and the <v,v> half of the tangent check after the mirror.
Let u = 2^-53 and W = (sum |a_i b_i| + |nb a0 b0|) / alpha for the loop's
product (fsum(a_i b_i) + nb a0 b0) / alpha of two slice vectors, nb = N beta.
To first order in u (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., 2002, section 3.1):

- the product is within 4uW of its exact value: fsum of the rounded products is
  within 2u sum |a_i b_i|, nb a0 b0 rounds twice, the sum and division once.
- -beta is the cosine of the dihedral angle, above the ideal simplex's
  arccos(1/(n-1)), so p^2 <= 1/(n^2-1), |beta| <= 1/(n-1), 1 <= alpha <= 2
  and |nb|/alpha <= N/n <= 3/2: a y with <y,y> = -+1 has W <= 3 y0^2 -+ 1.
- Scaling y by 1/sqrt|q|, q its product, leaves |<y,y> -+ 1| <= 6uW + 2u:
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
`geometry.FACET_TOL` (a far launch at n = 2 and a = 30 fails it).  The array
loop makes every check, as ddot's error grows like N u W and it takes any N.

A run comes out as a `Trajectory` of read-only stacks, row i for bounce i,
and its largest drift; points are rebuilt once per run from recorded margins:
the spatial part of x is mu times the normals' spatial parts, over alpha.
`iterate` is the loop and `step` is one bounce of it.
"""

from __future__ import annotations

# `array`, `fsum`, `np`, the `check_*` functions, `FACET_TOL`, `Region` and `classify_margins`
# are read by the generated loops, from this module's globals.
import functools
import linecache
import math
import re
from array import array
from dataclasses import dataclass
from math import fsum
from typing import TYPE_CHECKING, Callable

import numpy as np

from .geometry import (FACET_TOL, HPoint, Region, check_sheet_products, check_tangency_product,
                       check_tangent_products, check_unit_tangent, chord_dist, classify_margins,
                       facet_band, mink_dot, mink_inner, mink_pairs, tangent_part, unit_tangent)

if TYPE_CHECKING:  # annotations only: at run time the flow imports `geometry` alone
    from .orbit import BilliardOrbit
    from .simplex import RegularSimplex

# A normal component this small or smaller at a facet is a grazing hit; a mirrored
# one is larger, and positive, so the departure facet is out of the next flight's reach.
GRAZE_TOL = 1e-9

# Simplices of at most this many facets (N = n + 1) bounce on the list loop, larger
# ones on the array loop.  The generated list loop measures faster up to about
# N = 28 (module docstring), but fsum and ddot round sums differently, so moving the
# switch changes the bits of every run it moves, and the rounding bound that lets the
# list loop skip two checks is written for N <= 12; it stays where the comprehension
# kernels of the first list loop crossed over.
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
    for k, nu in enumerate(nus):
        if nu < 0.0 and 0.0 < (ratio := -mus[k] / nu) < best:
            best_k, best = k, ratio
    if best_k < 0:
        raise ValueError("no forward facet crossing; state does not point into the simplex")
    return best_k, math.atanh(best)


def reflect_at(nu: np.ndarray | list[float], v0: float, k: int, p: float,
               beta: float) -> tuple[np.ndarray | list[float], float]:
    """Direction margins ``nu`` and coordinate ``v0`` mirrored at facet k: v - 2 nu_k u_k
    moves nu_j by -2 nu_k G_kj and v0 by -2 nu_k p (module docstring).  ``nu`` is an
    array or, on the list loop, a list, and the mirror is of the same type."""
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
    mu, nu = mink_pairs(x, s.normal_coords), mink_pairs(v, s.normal_coords)
    if (below := facet_band(mu)[0]).any():
        k = int(below.argmax())
        raise ValueError(f"state is outside the simplex (margin {mu.item(k)} at facet {k})")
    return mu, nu


# The run loop of both kinds, as one source.  A line ``$step args`` stands for the
# statements that the kind's table (`_LIST_STEPS`, `_ARRAY_STEPS`) gives for that
# vector step, at the line's indentation, with the args in place of {0}, {1}, ...;
# every check, message and drift term is written here once.
_LOOP_TEMPLATE = """\
def loop(s, state, steps):
    big, (p, alpha, beta), normals = s.n + 1, _gram(s), s.normal_coords[:, 1:]
    nb = big * beta
    mu, nu = _enter(s, state)
    mus, nus = mu.tolist(), nu.tolist()
    $enter
    x0, v0 = state.position.coords.item(0), state.direction.item(0)
    facets, x0s, arclengths, drift = [], array("d"), array("d"), 0.0
    for i in range(steps):
        try:
            k, t = next_collision(mus, nus)
            ch, sh = math.cosh(t), math.sinh(t)
            x0, v0 = ch * x0 + sh * v0, sh * x0 + ch * v0

            # the flight, its consistency guard and projection (see module docstring)
            $flight
            if (defect := max(abs(dx), abs(dv))) > 1e-9:
                raise ValueError(f"margins disagree with the timelike coordinate (defect {defect:.3e})")
            $dot xx mu mu x0 x0
            $dot vv nu nu v0 v0
            $dot xv mu nu x0 v0
            drift = max(drift, abs(xx + 1.0), abs(vv - 1.0), abs(xv), abs(dx), abs(dv))

            # `to_sheet` and `check_on_sheet` (proven on lists), then the arrival test,
            # which `classify_margins` decides where the direct test fails (module docstring)
            if not xx < 0.0:
                raise ValueError(f"cannot normalize non-timelike vector (<v,v> = {xx!r})")
            if x0 < 0.0:
                raise ValueError("timelike vector points into the lower sheet")
            scale = math.sqrt(-xx)
            $scaled mu
            x0 = x0 / scale
            $sheet
            $listed
            if not -FACET_TOL <= mus[k] <= FACET_TOL < min(mus[:k] + mus[k + 1:]):
                region, facet = classify_margins(mus)
                if region is not Region.FACET_INTERIOR:
                    raise NonSmoothHitError(f"hit the {region.value} region of the boundary")
                if facet != k:
                    raise NonSmoothHitError(f"collision facet {k} disagrees with classification {facet}")

            # `tangent_part`, the mirror and `check_unit_tangent` (its <v,v> half proven on lists)
            $dot xv mu nu x0 v0
            $tangent
            v0 = v0 + xv * x0
            $dot vv nu nu v0 v0
            if not vv > 0.0:
                raise ValueError("vector has no spacelike tangential component")
            scale = math.sqrt(vv)
            $scaled nu
            v0 = v0 / scale
            $mirror
            $checked
        except NonSmoothHitError as err:
            raise NonSmoothHitError(f"bounce {i}: {err}", i) from err
        except ValueError as err:
            raise ValueError(f"bounce {i}: {err}") from err
        facets.append(k)
        $record
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
"""

# The vector steps on lists of N Python floats: each margin vector lives in locals
# mu0, mu1, ... and nu0, nu1, ... between steps, a ``<...>`` group stands for its
# copies for every entry, comma-separated, and a line with an ``@`` left is written
# once per entry, ``@`` standing for the entry's index.  Each sum is a `math.fsum`,
# exactly rounded; a product whose fsum raises (on inf - inf, or an overflowing
# partial sum) takes ddot's inf or nan instead, so the check it feeds fails as on
# arrays.  The run's points are recorded flat.
_LIST_STEPS = {
    "enter": ("<mu@>, = mus", "<nu@>, = nus", 'margins = array("d")'),
    "flight": ("mu@, nu@ = ch * mu@ + sh * nu@, sh * mu@ + ch * nu@",
               "dx, dv = fsum((<mu@>,)) / big + p * x0, fsum((<nu@>,)) / big + p * v0",
               "mu@, nu@ = mu@ - dx, nu@ - dv"),
    "dot": ("try:",
            "    dot = fsum((<{1}@ * {2}@>,))",
            "except (OverflowError, ValueError):",
            '    with np.errstate(over="ignore", invalid="ignore"):',
            "        dot = float(np.dot([<{1}@>], [<{2}@>]))",
            "{0} = (dot + nb * {3} * {4}) / alpha"),
    "scaled": ("{0}@ = {0}@ / scale",),
    "sheet": (),
    "listed": ("mus = [<mu@>]",),
    "tangent": ("nu@ = nu@ + xv * mu@",),
    "mirror": ("nu, v0 = reflect_at([<nu@>], v0, k, p, beta)", "<nu@>, = nus = nu"),
    "checked": ("$dot xv mu nu x0 v0", "check_tangency_product(xv, x0, v0)"),
    "record": ("margins.fromlist(mus)",),
}

# The vector steps on numpy arrays, in place where they can be, summing by ddot.  The
# flight makes new arrays, so a recorded margin row is never overwritten; the run's
# points are those rows (copying each into a flat record measured 2-8% slower a closure
# at n = 128).
_ARRAY_STEPS = {
    "enter": ("all_ones = np.ones(big)", "margins = []"),
    "flight": ("mu, nu = ch * mu + sh * nu, sh * mu + ch * nu",
               "dx, dv = float(mu.dot(all_ones)) / big + p * x0, float(nu.dot(all_ones)) / big + p * v0",
               "mu -= dx",
               "nu -= dv"),
    "dot": ("{0} = (float({1}.dot({2})) + nb * {3} * {4}) / alpha",),
    "scaled": ("{0} /= scale",),
    "sheet": ("$dot xx mu mu x0 x0", "check_sheet_products(xx, x0)"),
    "listed": ("mus = mu.tolist()",),
    "tangent": ("nu += xv * mu",),
    "mirror": ("nu, v0 = reflect_at(nu, v0, k, p, beta)", "nus = nu.tolist()"),
    "checked": ("$dot vv nu nu v0 v0", "$dot xv mu nu x0 v0", "check_tangent_products(vv, xv, x0, v0)"),
    "record": ("margins.append(mu)",),
}


def _loop_source(big: int, listed: bool) -> str:
    """The source of the run loop on lists of N = ``big`` entries (``listed``), or on
    arrays, whose source is the same for every N."""
    table = _LIST_STEPS if listed else _ARRAY_STEPS

    def each(form: str, sep: str) -> str:
        return sep.join(form.replace("@", str(j)) for j in range(big))

    def expand(line: str) -> list[str]:
        text = line.lstrip()
        if not text.startswith("$"):
            return [line]
        indent, (name, *args) = line[:len(line) - len(text)], text[1:].split()
        out = []
        for form in table[name]:
            form = re.sub(r"<([^<>]*)>", lambda group: each(group[1], ", "), form.format(*args))
            if "@" in form:
                form = each(form, "\n")
            out += (sub for part in form.split("\n") for sub in expand(indent + part))
        return out

    return "\n".join(sub for line in _LOOP_TEMPLATE.splitlines() for sub in expand(line)) + "\n"


@functools.cache
def _generated(big: int | None) -> Callable[[RegularSimplex, FlowState, int], Trajectory]:
    """The run loop on lists of N = ``big`` entries, or on arrays for None, generated on
    first use and compiled once.  Its source is registered in `linecache` under its file
    name, so that tracebacks and `inspect.getsource` show its lines.  It reads this
    module's globals when it runs, so rebinding `next_collision`, `fsum` or a check
    here reaches it."""
    listed = big is not None
    name = f"<flow loop, N = {big}>" if listed else "<flow loop, arrays>"
    source = _loop_source(big or 0, listed)
    linecache.cache[name] = (len(source), None, source.splitlines(True), name)
    namespace = {}
    exec(compile(source, name, "exec"), globals(), namespace)
    return namespace["loop"]


def _run(s: RegularSimplex, state: FlowState, steps: int, listed: bool | None = None) -> Trajectory:
    """``steps`` bounces from ``state`` on lists (``listed``) or arrays, by default the faster at N."""
    if listed is None:
        listed = s.n + 1 <= _LIST_LOOP_MAX_FACETS
    return _generated(s.n + 1 if listed else None)(s, state, steps)


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
