"""Hyperbolic geometry in the hyperboloid (Minkowski) model.

Points live on the upper sheet of the unit hyperboloid ``<x,x> = -1`` in a
Minkowski ambient space with signature ``(-, +, ..., +)``, timelike
coordinate first.  In this model distances, geodesics, reflections and
perpendicular feet are all closed-form Minkowski linear algebra, which is
why it is the single internal representation throughout the package.  The
Poincare ball appears only as an export chart (`simplex.disk_coords`).

Every operation that produces a point renormalizes it back onto the
hyperboloid, so rounding error cannot accumulate multiplicatively along a
computation chain.

The facet band `FACET_TOL` and the rule that classifies a point by its facet
margins live here too, the rule once, as the two masks that `facet_hits`
takes of a table and `classify_margins` of one row: the orbit certificate
and the billiard flow both classify by them, and this is the one module that
both import and that imports nothing of the package.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

# Representation invariants (unit norms, tangency) must hold to REP_TOL.
REP_TOL = 1e-12


def _as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a flat coordinate vector, got shape {v.shape}")
    return v


def mink_inner(x, y) -> float:
    """Minkowski inner product ``-x0*y0 + sum(xi*yi)``, timelike coordinate first."""
    xv = _as_vector(x)
    yv = _as_vector(y)
    if xv.shape != yv.shape:
        raise ValueError(f"dimension mismatch: {xv.shape} vs {yv.shape}")
    return mink_dot(xv, yv)


def mink_dot(x: np.ndarray, y: np.ndarray) -> float:
    """`mink_inner` of two flat float64 arrays of equal length, without re-checking them.

    The spacelike part is one BLAS ``ddot``, the ``cblas_ddot`` that 1-D
    ``.dot`` and 1-D ``@`` both call, and the timelike term is a Python float
    product, which rounds as a numpy scalar's does without making one.  So
    it is the numpy-scalar ``-x[0] * y[0] + x[1:] @ y[1:]`` bit for bit
    (`tests/test_geometry.py` pins it), but for which of two NaNs survives
    and the sign of a zero product of two-entry vectors, which ``.dot``
    multiplies as scalars.  Use it on data that is already validated
    (`HPoint` coordinates, `Hyperplane` normals, vertex rows): the results
    match `mink_inner` bit for bit, minus its re-checks.  For stacks of
    vectors, use `mink_dots`, `mink_pairs` or `mink_table`.
    """
    return -x.item(0) * y.item(0) + float(x[1:].dot(y[1:]))


# The stacked products below are `mink_dot` for every row or pair of rows, bit
# for bit: the timelike term first, as there, plus one ``np.vecdot`` over the
# spacelike columns.  numpy's float64 ``vecdot`` loop calls, for every row or
# pair, the same ``ddot`` that `mink_dot` does.  Never write one as a 2-D
# product such as ``ys[:, 1:] @ x[1:]`` or ``xs[:, 1:] @ ys[:, 1:].T``: that is
# one ``gemv`` or ``gemm``, which rounds differently in the last bit for most
# rows and moves every pinned residual downstream.  numpy does not document the
# routing; `tests/test_geometry.py` pins it on C, Fortran, reversed, strided and
# broadcast stacks of vectors of three or more entries, with NaN, infinities,
# signed zeros and subnormals.  Where two NaNs meet in one product, which of
# them survives is not pinned.

def mink_dots(x: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """`mink_dot` of x with every row of the ``(k, len(x))`` stack ys: one ``vecdot``."""
    return -x.item(0) * ys[:, 0] + np.vecdot(ys[:, 1:], x[1:])


def mink_pairs(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """`mink_dot` of row i of xs with row i of ys, for every i: one ``vecdot``.

    Either stack may be a broadcast view of one vector.
    """
    return -xs[:, 0] * ys[:, 0] + np.vecdot(xs[:, 1:], ys[:, 1:])


def mink_table(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """``(p, q)`` table of `mink_dot` over every row of xs against every row of ys:
    one ``vecdot`` over the broadcast ``(p, 1, L)`` and ``(1, q, L)`` spacelike parts."""
    return np.multiply.outer(-xs[:, 0], ys[:, 0]) + np.vecdot(xs[:, None, 1:], ys[None, :, 1:])


def safe_arccosh(c: float) -> float:
    """arccosh that forgives arguments within ``REP_TOL`` below 1, and no more."""
    if c < 1.0:
        if c < 1.0 - REP_TOL:
            raise ValueError(f"arccosh argument {c!r} below 1 beyond tolerance")
        return 0.0
    return float(np.arccosh(c))


@dataclass(frozen=True, eq=False)
class HPoint:
    """A point on the upper sheet of the unit hyperboloid.

    The on-sheet check scales its tolerance with x0^2: evaluating <x,x>
    cancels two terms of that size, so a fixed absolute tolerance would
    reject perfectly normalized points far from the basepoint.
    """

    coords: np.ndarray

    def __post_init__(self):
        v = np.array(_as_vector(self.coords), dtype=np.float64, copy=True)
        v.setflags(write=False)
        object.__setattr__(self, "coords", v)
        check_on_sheet(v)

    @classmethod
    def from_vector(cls, v) -> "HPoint":
        """Rescale a timelike vector onto the upper sheet (the canonical renormalization)."""
        return cls(to_sheet(_as_vector(v)))

    @classmethod
    def basepoint(cls, ambient_dim: int) -> "HPoint":
        """The point (1, 0, ..., 0)."""
        v = np.zeros(ambient_dim)
        v[0] = 1.0
        return cls(v)


def check_on_sheet(v: np.ndarray) -> None:
    """The `HPoint` invariant: on the unit hyperboloid, on its upper sheet.  NaN fails,
    and so do infinite coordinates and an x0 whose square, the tolerance's scale, overflows."""
    check_sheet_products(mink_dot(v, v), v.item(0))


def check_sheet_products(q: float, v0: float) -> None:
    """`check_on_sheet` of a vector with ``<v,v> = q`` and timelike coordinate v0."""
    if not abs(q + 1.0) <= REP_TOL * max(1.0, v0 * v0) < math.inf:
        raise ValueError(f"not on the unit hyperboloid: <x,x> = {q!r}")
    if not v0 > 0.0:
        raise ValueError("timelike coordinate must be positive (upper sheet)")


def to_sheet(w: np.ndarray) -> np.ndarray:
    """A timelike vector rescaled to ``<w,w> = -1``; raises unless it is future-pointing."""
    q = mink_dot(w, w)
    if q >= 0.0:
        raise ValueError(f"cannot normalize non-timelike vector (<v,v> = {q!r})")
    w = w / math.sqrt(-q)
    if w.item(0) < 0.0:
        raise ValueError("timelike vector points into the lower sheet")
    return w


# Row-wise forms of the point operations, for ``(k, m)`` coordinate stacks.
# Each row gets the arithmetic of the one-point function bit for bit, and
# each check raises that function's error, with the values of the first row
# that fails it.  A pass runs each check over all rows before the next, so
# where different rows fail different checks, the earlier check is raised.

def check_on_sheet_rows(x: np.ndarray) -> None:
    """`check_on_sheet` for every row of x."""
    q = mink_pairs(x, x)
    tol = REP_TOL * np.maximum(1.0, x[:, 0] * x[:, 0])
    bad = (~((np.abs(q + 1.0) <= tol) & (tol < math.inf))).nonzero()[0]
    if bad.size:
        raise ValueError(f"not on the unit hyperboloid: <x,x> = {float(q[bad[0]])!r}")
    if not (x[:, 0] > 0.0).all():
        raise ValueError("timelike coordinate must be positive (upper sheet)")


def check_unit_normal_rows(u: np.ndarray) -> None:
    """`Hyperplane`'s unit-spacelike check, for every row of u.

    The tolerance scales like `HPoint`'s: cancellation in <u,u> grows as u0^2.
    """
    q = mink_pairs(u, u)
    bad = (~(np.abs(q - 1.0) <= REP_TOL * np.maximum(1.0, u[:, 0] * u[:, 0]))).nonzero()[0]
    if bad.size:
        raise ValueError(f"normal must be unit spacelike: <u,u> = {float(q[bad[0]])!r}")


def reflect_rows(normals: np.ndarray, x: np.ndarray) -> np.ndarray:
    """`reflect` of row i of x across the hyperplane with normal row i, for every i."""
    w = (2.0 * mink_pairs(x, normals))[:, None] * normals
    np.subtract(x, w, out=w)
    return from_vector_rows(w, mink_pairs(w, w))


def from_vector_rows(w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The coordinates of `HPoint.from_vector` of every row of w: `to_sheet`, then
    `check_on_sheet`.  q is ``mink_pairs(w, w)``, which the caller has already
    computed."""
    bad = (q >= 0.0).nonzero()[0]
    if bad.size:
        raise ValueError(f"cannot normalize non-timelike vector (<v,v> = {float(q[bad[0]])!r})")
    x = w / np.sqrt(-q)[:, None]
    if (x[:, 0] < 0.0).any():
        raise ValueError("timelike vector points into the lower sheet")
    check_on_sheet_rows(x)
    return x


def unit_tangent_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`unit_tangent` at row i of a toward row i of b, for every i."""
    w = mink_pairs(a, b)[:, None] * a
    w += b  # b + <a,b> a: the sum is the same either way round
    q = mink_pairs(w, w)
    if (q <= 0.0).any():
        raise ValueError("points coincide; tangent direction undefined")
    w /= np.sqrt(q)[:, None]
    return w


def dist_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`dist` between row i of a and row i of b, for every i, taking the same route per row."""
    c = -mink_pairs(a, b)
    near = c < 1.0 + 1e-6
    d = np.arccosh(np.where(near, 1.0, c))
    if near.any():
        d[near] = [2.0 * math.asinh(0.5 * h) for h in chord_dist_rows(a[near], b[near]).tolist()]
    return d


def chord_dist_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`chord_dist` between row i of a and row i of b, for every i."""
    d = a - b
    return np.sqrt(np.maximum(mink_pairs(d, d), 0.0))


@dataclass(frozen=True, eq=False)
class Hyperplane:
    """Totally geodesic codimension-one subspace, stored as a unit spacelike normal.

    The hyperplane is the set of points Minkowski-orthogonal to ``normal``;
    the normal's sign fixes an orientation via the signed margin ``<P, u>``.
    """

    normal: np.ndarray

    def __post_init__(self):
        u = np.array(_as_vector(self.normal), dtype=np.float64, copy=True)
        u.setflags(write=False)
        object.__setattr__(self, "normal", u)
        check_unit_normal_rows(u[None])

    def margin(self, p: HPoint) -> float:
        """Signed incidence margin ``<P, u>``; zero exactly on the hyperplane."""
        return mink_inner(p.coords, self.normal)


def unit_tangent(a: HPoint, b: HPoint) -> np.ndarray:
    """Unit tangent vector at A pointing along the geodesic toward B."""
    w = b.coords + mink_inner(a.coords, b.coords) * a.coords
    q = mink_inner(w, w)
    # <w,w> = sinh^2 d(A,B), so q <= 0 only when the points coincide
    if q <= 0.0:
        raise ValueError("points coincide; tangent direction undefined")
    return w / np.sqrt(q)


def tangent_part(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The unit vector along the part of ``v`` tangent to the sheet at ``x``."""
    w = v + mink_dot(x, v) * x
    q = mink_dot(w, w)
    if q <= 0.0:
        raise ValueError("vector has no spacelike tangential component")
    return w / math.sqrt(q)


def check_unit_tangent(x: np.ndarray, d: np.ndarray) -> None:
    """The unit-tangent invariants of direction d at x: ``<d,d> = 1`` and ``<x,d> = 0``.

    Both tolerances scale like `HPoint`'s: far from the basepoint each
    product cancels terms of size d0^2 and x0*d0.  As there, non-finite
    coordinates and overflowing scales fail.
    """
    check_tangent_products(mink_dot(d, d), mink_dot(x, d), x.item(0), d.item(0))


def check_tangent_products(q: float, t: float, x0: float, d0: float) -> None:
    """`check_unit_tangent` of a direction with ``<d,d> = q``, ``<x,d> = t`` and
    timelike coordinates x0 and d0."""
    if not abs(q - 1.0) <= REP_TOL * max(1.0, d0 * d0) < math.inf:
        raise ValueError(f"direction must be unit spacelike: <v,v> = {q!r}")
    check_tangency_product(t, x0, d0)


def check_tangency_product(t: float, x0: float, d0: float) -> None:
    """The ``<x,d> = 0`` half of `check_tangent_products`."""
    if not abs(t) <= REP_TOL * max(1.0, abs(x0 * d0)) < math.inf:
        raise ValueError(f"direction must be tangent to base point: <x,v> = {t!r}")


def dist(a: HPoint, b: HPoint) -> float:
    """Hyperbolic distance ``arccosh(-<A,B>)``, or ``2 asinh(chord/2)`` where
    ``-<A,B> < 1 + 1e-6`` and arccosh would round distances below ~1e-8 to 0."""
    c = -mink_dot(a.coords, b.coords)
    if c < 1.0 + 1e-6:
        return 2.0 * math.asinh(0.5 * chord_dist(a, b))
    return safe_arccosh(c)


def chord_dist(a: HPoint, b: HPoint) -> float:
    """Minkowski norm of A - B, equal to 2 sinh(d/2).

    Agrees with `dist` to third order for nearby points and, unlike the
    arccosh route, resolves separations all the way down to rounding level
    (arccosh flattens near 1 and cannot see below ~1e-8).  The residual
    metric of choice whenever two points are expected to coincide.
    """
    d = a.coords - b.coords
    return float(np.sqrt(max(mink_dot(d, d), 0.0)))


def geodesic_point(a: HPoint, b: HPoint, s: float) -> HPoint:
    """The point at arclength ``s`` from A along the geodesic through A toward B.

    ``s`` may be negative (behind A) or exceed d(A,B) (beyond B); the
    geodesic is parametrized by arclength in both directions.
    """
    u = unit_tangent(a, b)
    return HPoint.from_vector(np.cosh(s) * a.coords + np.sinh(s) * u)


def segment_defect(p: HPoint, a: HPoint, b: HPoint) -> float:
    """Triangle-inequality defect ``d(A,P) + d(P,B) - d(A,B)``.

    Non-negative always; zero exactly when P lies on the segment [A, B].
    """
    return dist(a, p) + dist(p, b) - dist(a, b)


def reflect(h: Hyperplane, p: HPoint) -> HPoint:
    """Reflect a point across the hyperplane: ``P - 2<P,u>u`` (isometric involution)."""
    return HPoint.from_vector(p.coords - 2.0 * h.margin(p) * h.normal)


def foot_of_perpendicular(h: Hyperplane, p: HPoint) -> HPoint:
    """Nearest point of the hyperplane to P; satisfies ``sinh d(P, foot) = |<P,u>|``."""
    return HPoint.from_vector(p.coords - h.margin(p) * h.normal)


def angle_at(p: HPoint, a: HPoint, b: HPoint) -> float:
    """Angle at P between the geodesics toward A and toward B, in [0, pi]."""
    c = mink_inner(unit_tangent(p, a), unit_tangent(p, b))
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


# The facet band of every boundary classification, the orbit's and the flow's alike.
FACET_TOL = 1e-9


class Region(enum.Enum):
    INTERIOR = "interior"
    FACET_INTERIOR = "facet-interior"
    LOWER_BOUNDARY = "lower-boundary"
    OUTSIDE = "outside"


def _band(margins: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The facet band's two masks of a margin array: below -tol, and within tol of 0.
    A NaN margin is in neither, like +inf."""
    return margins < -tol, np.abs(margins) <= tol


def classify_margins(margins: list[float], tol: float = FACET_TOL) -> tuple[Region, int | None]:
    """Region of a point with these facet margins, and its facet if on exactly one.

    Outside if any margin is below -tol; interior if all are above tol;
    on the relative interior of facet j if only margin j vanishes; on the
    lower-dimensional boundary (edges, vertices, corners) if two or more
    margins vanish simultaneously.  A NaN margin counts as neither below
    -tol nor vanishing, like +inf.  This is `facet_hits`' rule on one row.
    """
    below, near = _band(np.asarray(margins, dtype=np.float64), tol)
    if below.any():
        return Region.OUTSIDE, None
    hits = near.nonzero()[0].tolist()
    if not hits:
        return Region.INTERIOR, None
    if len(hits) == 1:
        return Region.FACET_INTERIOR, hits[0]
    return Region.LOWER_BOUNDARY, None


def facet_hits(margins: np.ndarray, tol: float = FACET_TOL) -> np.ndarray:
    """Per row of a ``(k, n+1)`` margin table, the facet whose relative interior holds
    the point (`classify_margins` gives `Region.FACET_INTERIOR`), or -1."""
    below, near = _band(margins, tol)
    hit = ~below.any(axis=1) & (near.sum(axis=1) == 1)
    return np.where(hit, near.argmax(axis=1), -1)
