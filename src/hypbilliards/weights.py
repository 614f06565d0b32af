"""Bounce-weight sequences for the periodic orbit construction.

The bounce points of the (n+1)-periodic orbit are centroids of weighted
vertex masses.  The weight profile (w_0, ..., w_{n+1}) must vanish at the
ends, equal 1 next to the ends, stay positive in between, and satisfy the
inhomogeneous three-term relation

    multiplier * w_j = w_{j-1} + w_{j+1} + shift,      1 <= j <= n,

with shift = 2 / (n - 1 + 1/cosh a).  Writing the multiplier as 2*y, the
admissible y > 1 is the nontrivial root of a scalar function g built from
the rational function h below (y = 1 is always a root and is rejected: it
gives multiplier 2, not > 2).  With xi = y + sqrt(y^2 - 1) the closed-form
profile is

    w_j = shift/(multiplier - 2) * (1 - (xi^(j-s) + xi^(s-j)) / (xi^s + xi^(-s))),

s = (n+1)/2, which is symmetric (w_j = w_{n+1-j}) and unimodal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class RootBracketError(RuntimeError):
    """The scalar root search failed to bracket a sign change."""


def pair_mass_constant(n: int, cosh_edge: float) -> float:
    """The constant ``2 / (n - 1 + 1/cosh a)``.

    Geometrically: placing this weight on each of n vertices of a facet
    balances unit masses at the opposite vertex and at its mirror image
    across the facet.  It reappears as the shift of the weight recurrence.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if cosh_edge < 1.0:
        raise ValueError(f"cosh of an edge length must be >= 1, got {cosh_edge!r}")
    return 2.0 / (n - 1.0 + 1.0 / cosh_edge)


def eval_h(x: float, n: int) -> float:
    """``(x^((n-1)/2) + x^-((n-1)/2)) / (x^((n+1)/2) + x^-((n+1)/2))``.

    Equals 1 at x = 1 and decays like 1/x; strictly decreasing on x > 1.
    """
    if x <= 0.0:
        raise ValueError(f"need x > 0, got {x!r}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    p = 0.5 * (n - 1)
    q = 0.5 * (n + 1)
    return (x**p + x**-p) / (x**q + x**-q)


def eval_g(y: float, n: int, edge: float) -> float:
    """Root function whose zero above 1 fixes the recurrence multiplier.

    g(y) = h(y + sqrt(y^2 - 1)) - 1 + (y - 1) * (n - 1 + 1/cosh a).
    g(1) = 0 with negative slope 1/cosh a - 1, and g -> +infinity, so the
    relevant root is the smallest y > 1 with g(y) = 0.
    """
    if y < 1.0:
        raise ValueError(f"need y >= 1, got {y!r}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if edge <= 0.0:
        raise ValueError(f"need a positive edge length, got {edge!r}")
    xi = y + math.sqrt(y * y - 1.0)
    return eval_h(xi, n) - 1.0 + (y - 1.0) * (n - 1.0 + 1.0 / math.cosh(edge))


# The root scan of `solve_y0` starts at y = 1 + START_OFFSET and gives up above MAX_Y.
START_OFFSET = 1e-6
MAX_Y = 2.0**60


def solve_y0(n: int, edge: float) -> float:
    """Smallest root of g above 1, by bracket scan and bisection to machine width.

    Starts the scan at ``1 + START_OFFSET``; if g is already non-negative
    there the offset is halved until the search lands inside the negative
    dip next to 1 (the dip is shallow for small edges).  The upper bracket
    end comes from doubling the offset until g turns positive.  Raises
    `RootBracketError` when no dip is found above offset 1e-15 or no sign
    change occurs below ``MAX_Y``.
    """

    def g(y: float) -> float:
        return eval_g(y, n, edge)

    off = START_OFFSET
    while g(1.0 + off) >= 0.0:
        off *= 0.5
        if off < 1e-15:
            raise RootBracketError(
                f"no negative dip of g found near 1 (n={n}, edge={edge}); root too close to 1"
            )
    lo = 1.0 + off
    hi = lo
    while g(hi) <= 0.0:
        off *= 2.0
        hi = 1.0 + off
        if hi > MAX_Y:
            raise RootBracketError(f"no sign change of g below {MAX_Y} (n={n}, edge={edge})")
    # bisect until the bracket cannot be split at float resolution
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        v = g(mid)
        if v > 0.0:
            hi = mid
        elif v < 0.0:
            lo = mid
        else:
            return mid
    return lo if abs(g(lo)) <= abs(g(hi)) else hi


@dataclass(frozen=True, eq=False)
class MassSequence:
    """Solved weight profile for one (n, edge) cell.

    ``weights`` has length n+2 with exact zeros at both ends; ``multiplier``
    is 2*root and ``char_root`` = root + sqrt(root^2 - 1) is the growth rate
    of the homogeneous solutions of the recurrence (char_root + 1/char_root
    = multiplier).
    """

    n: int
    edge: float
    shift: float
    root: float
    multiplier: float
    char_root: float
    weights: np.ndarray

    def __post_init__(self):
        w = np.array(np.asarray(self.weights, dtype=np.float64), copy=True)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        if w.shape != (self.n + 2,):
            raise ValueError(f"expected {self.n + 2} weights, got shape {w.shape}")

    def weight(self, j: int) -> float:
        if not 0 <= j <= self.n + 1:
            raise IndexError(f"weight index {j} outside 0..{self.n + 1}")
        return float(self.weights[j])

    def recurrence_residuals(self) -> np.ndarray:
        """Residuals multiplier*w_j - w_{j-1} - w_{j+1} - shift for j = 1..n."""
        w = self.weights
        return self.multiplier * w[1:-1] - w[:-2] - w[2:] - self.shift


def forward_weights(multiplier: float, shift: float, n: int) -> np.ndarray:
    """Weights regenerated by running the recurrence forward from w_0 = 0, w_1 = 1.

    An independent route to the same profile: no closed form, just
    w_{j+1} = multiplier*w_j - w_{j-1} - shift.  Mild error growth (the
    recurrence has a char_root^j growing mode) makes this a cross-check,
    not the production path.
    """
    w = np.zeros(n + 2)
    if n + 2 > 1:
        w[1] = 1.0
    for j in range(1, n + 1):
        w[j + 1] = multiplier * w[j] - w[j - 1] - shift
    return w


def build_sequence(n: int, edge: float) -> MassSequence:
    """Solve the root problem for one cell and evaluate the closed-form weights."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if edge <= 0.0:
        raise ValueError(f"need a positive edge length, got {edge!r}")
    shift = pair_mass_constant(n, math.cosh(edge))
    try:
        root = solve_y0(n, edge)
    except RootBracketError:
        if n == 2:
            # for n = 2 the admissible profile is known outright: w = (0,1,1,0)
            # forces multiplier = 1 + shift by the j = 1 relation
            multiplier = 1.0 + shift
            root = 0.5 * multiplier
            char_root = root + math.sqrt(root * root - 1.0)
            return MassSequence(n, edge, shift, root, multiplier, char_root,
                                np.array([0.0, 1.0, 1.0, 0.0]))
        raise
    multiplier = 2.0 * root
    char_root = root + math.sqrt(root * root - 1.0)
    s = 0.5 * (n + 1)
    denom = char_root**s + char_root**-s
    j = np.arange(n + 2, dtype=np.float64)
    w = shift / (multiplier - 2.0) * (1.0 - (char_root ** (j - s) + char_root ** (s - j)) / denom)
    w[0] = 0.0
    w[n + 1] = 0.0
    return MassSequence(n, edge, shift, root, multiplier, char_root, w)
