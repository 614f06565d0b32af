"""Center-of-mass calculus for weighted points in hyperbolic space.

Two point masses (X, x) and (Y, y) combine to a mass at the unique point Z
of the segment [X, Y] where the sinh-weighted distances balance,

    x sinh d(X,Z) = y sinh d(Y,Z),

carrying total weight  z = x cosh d(X,Z) + y cosh d(Y,Z).

In the hyperboloid model this law is linear: the combined location is the
renormalized weighted Minkowski sum x X + y Y and the combined weight is
the Minkowski magnitude of that sum.  The law is commutative and associative,
so a fold of any number of masses is one sequential sum plus one
normalization.  `fold_sum` makes the sum as
``np.add.reduce(w[:, None] * X, axis=0, initial=0.0)`` over a stack.
Not ``w @ X``: gemv rounds differently and moves every pinned residual.  numpy
reduces axis 0 of a C-contiguous stack row by row, the order of the loop
``s = 0; s = s + w_k X_k`` (signed zeros included); as numpy does not document
this, a test pins it.  `centroids` normalizes a stack of such sums, one per
row, and holds a fold's zero-mass, finite-weight and on-sheet checks;
`centroid_fold` is the two on one row.

A cell needs one fold per bounce point, facet or vertex.  `omit_one_folds`
and `pair_folds` run all of them at once on a ``(p, m)`` accumulator, so that
row j gets exactly the sequential sum `fold_sum` makes for fold j, without
ever holding a ``(p, k, m)`` stack.  `pair_folds` takes one ``acc += w_k X_k``
step per mass.
Row j of `omit_one_folds` is ``((0 + t_0) + ... + t_(j-1)) + t_(j+1) + ... +
t_(p-1)`` with t_k = w_k X_k: its prefix is row j of one ``np.add.accumulate``
along axis 0 of ``[+0.0, t_0, ..., t_(p-2)]``, which adds row by row in that
order (a test pins it, as for ``add.reduce``), and only the suffix terms are
then added one step at a time.  Each row gets the same additions in the same
order as its own loop, for half the work of one step per mass and row.
`combine_intrinsic` solves the two-mass balance on the segment directly, as an
independent cross-check of the same operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import HPoint, chord_dist, dist, from_vector_rows, geodesic_point, mink_pairs


@dataclass(frozen=True, eq=False)
class PointMass:
    """A location on the hyperboloid with a non-negative weight."""

    location: HPoint
    weight: float

    def __post_init__(self):
        w = float(self.weight)
        if not math.isfinite(w) or w < 0.0:
            raise ValueError(f"weight must be finite and non-negative, got {w!r}")
        object.__setattr__(self, "weight", w)


# `combine_intrinsic` bisects until its bracket is no wider than this.
BISECT_WIDTH = 1e-14


def combine_intrinsic(p: PointMass, q: PointMass) -> PointMass:
    """Combine two point masses by bisecting the sinh balance on the segment.

    Solves  f(t) = x sinh t - y sinh(d - t) = 0  for t in [0, d], where
    d = d(X, Y); f is strictly increasing with f(0) <= 0 <= f(d), so plain
    bisection to bracket width ``BISECT_WIDTH`` suffices.  Deliberately avoids the
    linear form used by `centroid_fold` so the two can check each other.
    """
    x, y = p.weight, q.weight
    if x == 0.0 and y == 0.0:
        raise ValueError("total mass is zero; combination undefined")
    # coincidence is decided on the chord norm: arccosh cannot resolve
    # separations below ~1e-8, so d > 0 does not mean the points differ
    if chord_dist(p.location, q.location) < 1e-12:
        return PointMass(p.location, x + y)
    d = dist(p.location, q.location)
    if x == 0.0:
        return PointMass(q.location, y)
    if y == 0.0:
        return PointMass(p.location, x)

    def f(t: float) -> float:
        return x * math.sinh(t) - y * math.sinh(d - t)

    lo, hi = 0.0, d
    while hi - lo > BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if f(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    t = 0.5 * (lo + hi)
    z = x * math.cosh(t) + y * math.cosh(d - t)
    return PointMass(geodesic_point(p.location, q.location, t), z)


# A squared total mass below the least normal double has lost its low bits to
# underflow, and its square root no longer scales the sum onto the sheet: such
# a fold has too little mass to square and is refused as a zero one.
_LEAST_SQUARED_MASS = float(np.finfo(np.float64).tiny)


def fold_sum(weights, coords) -> np.ndarray:
    """A fold's sequential sum ``((0 + w_0 X_0) + w_1 X_1) + ...``, its weights checked."""
    x = np.ascontiguousarray(coords, dtype=np.float64)
    w = _stack_weights(weights, x)
    return np.add.reduce(w[:, None] * x, axis=0, initial=0.0)


def centroid_fold(weights, coords) -> PointMass:
    """Centroid of the masses ``weights[k]`` at the points ``coords[k]``.

    ``coords`` is a ``(k, m)`` stack of points on the upper sheet, not
    re-checked; two rows are the two-mass law.  Zero weights are legal and
    do not move the centroid; at least one weight must be positive.
    """
    x, z = centroids(fold_sum(weights, coords)[None])
    return PointMass(HPoint(x[0]), z.item(0))


def omit_one_folds(weights, coords) -> tuple[np.ndarray, np.ndarray]:
    """Row j: `centroid_fold` of ``weights[k]`` at ``coords[k]`` over every k except j.

    Returns the ``(p, m)`` stack of centroid locations and their p weights,
    bit for bit those of the p separate folds.
    """
    w = _stack_weights(weights, coords)
    terms = w[:, None] * coords
    # row j's prefix ((0 + t_0) + ...) + t_(j-1), every row at once; then its suffix
    head = np.zeros(coords.shape)
    head[1:] = terms[:-1]
    acc = np.add.accumulate(head, axis=0)
    for r in range(1, len(terms)):
        acc[:r] += terms[r]
    return centroids(acc)


def pair_folds(wa, xa, wb, xb) -> tuple[np.ndarray, np.ndarray]:
    """Row j: `centroid_fold` of ``wa[j]`` at ``xa[j]`` and ``wb[j]`` at ``xb[j]``, for every j.

    Returns the ``(p, m)`` stack of centroid locations and their p weights.
    """
    _check_weights(np.concatenate((wa, wb)))
    acc = wa[:, None] * xa
    acc += 0.0  # the fold starts from +0.0
    acc += wb[:, None] * xb
    return centroids(acc)


def _stack_weights(weights, coords: np.ndarray) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if coords.ndim != 2 or w.shape != coords.shape[:1]:
        raise ValueError(f"need p weights and a (p, m) stack, got {w.shape} and {coords.shape}")
    _check_weights(w)
    return w


def _check_weights(w: np.ndarray) -> None:
    if not all(0.0 <= v < math.inf for v in w.tolist()):
        raise ValueError(f"weights must be finite and non-negative, got {w}")


def centroids(acc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The centroid location and weight of each row of summed masses, with a fold's checks."""
    with np.errstate(over="ignore", invalid="ignore"):  # a square past the doubles fails below
        q = mink_pairs(acc, acc)
    m2 = -q
    if (m2 < _LEAST_SQUARED_MASS).any():
        raise ValueError("total mass is zero; centroid undefined")
    z = np.sqrt(m2)
    bad = (~np.isfinite(z)).nonzero()[0]
    if bad.size:
        raise ValueError(f"weight must be finite and non-negative, got {float(z[bad[0]])!r}")
    return from_vector_rows(acc, q), z


def scale_masses(items: Sequence[PointMass], factor: float) -> list[PointMass]:
    """Multiply every weight by a positive factor.

    The centroid location is unchanged; its weight scales by the same
    factor (the combination law is homogeneous in the weights).
    """
    if not (factor > 0.0) or not math.isfinite(factor):
        raise ValueError(f"scale factor must be positive and finite, got {factor!r}")
    return [PointMass(pm.location, factor * pm.weight) for pm in items]
