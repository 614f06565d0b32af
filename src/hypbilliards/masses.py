"""Center-of-mass calculus for weighted points in hyperbolic space.

Two point masses (X, x) and (Y, y) combine to a mass at the unique point Z
of the segment [X, Y] where the sinh-weighted distances balance,

    x sinh d(X,Z) = y sinh d(Y,Z),

carrying total weight  z = x cosh d(X,Z) + y cosh d(Y,Z).

In the hyperboloid model this law is linear: the combined location is the
renormalized weighted Minkowski sum x X + y Y and the combined weight is
the Minkowski magnitude of that sum.  The operation is commutative and
associative, so `centroid_fold` evaluates any number of masses, two
included, as a single weighted sum.  `combine_intrinsic` solves the
two-mass balance equation on the segment directly and exists as an
independent cross-check of the same operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .geometry import HPoint, chord_dist, dist, geodesic_point, mink_inner


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


def centroid_fold(items: Iterable[PointMass]) -> PointMass:
    """Centroid of finitely many point masses.

    The combination law is associative, so every bracketing of pairwise
    combinations gives the same result, and it is computed in one shot from
    the total weighted sum; a list of two is the two-mass law.  Zero-weight
    entries are legal and do not move the centroid; at least one weight
    must be positive.
    """
    pms = list(items)
    if not pms:
        raise ValueError("need at least one point mass")
    s = np.zeros(pms[0].location.ambient_dim)
    for pm in pms:
        s = s + pm.weight * pm.location.coords
    m2 = -mink_inner(s, s)
    if m2 <= 0.0:
        raise ValueError("total mass is zero; centroid undefined")
    return PointMass(HPoint.from_vector(s), math.sqrt(m2))


def scale_masses(items: Sequence[PointMass], factor: float) -> list[PointMass]:
    """Multiply every weight by a positive factor.

    The centroid location is unchanged; its weight scales by the same
    factor (the combination law is homogeneous in the weights).
    """
    if not (factor > 0.0) or not math.isfinite(factor):
        raise ValueError(f"scale factor must be positive and finite, got {factor!r}")
    return [PointMass(pm.location, factor * pm.weight) for pm in items]
