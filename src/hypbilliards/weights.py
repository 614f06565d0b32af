"""Bounce-weight sequences for the periodic orbit construction.

The bounce points of the (n+1)-periodic orbit are centroids of weighted
vertex masses.  The weight profile (w_0, ..., w_{n+1}) must vanish at the
ends, equal 1 next to the ends, stay positive in between, and satisfy the
inhomogeneous three-term relation

    multiplier * w_j = w_{j-1} + w_{j+1} + shift,      1 <= j <= n,

with shift = 2 / (n - 1 + 1/cosh a).  Write N = n + 1 and the multiplier as
2 cosh(theta).  The solution that vanishes at j = 0 and j = N is the sinh
product

    w_j = shift * sinh(j theta/2) sinh((N-j) theta/2) / (2 sinh^2(theta/2) cosh(N theta/2)),

symmetric and unimodal; w_1 = 1 fixes theta > 0 as the root of

    F(theta) = 1/2 sum_{j=1..n} (1 - q^j)(1 - q^(N-j)) / (1 + q^N) - sinh^2(a/2)/cosh a,

q = e^(-theta).  Every term of the sum lies in [0, 1] and grows with theta,
so F rises from F(0) < 0 to n/2 - sinh^2(a/2)/cosh a > 0 and the root is
unique.  No term cancels against another, the factors 1 - q^j come from
``expm1``, and a last Newton step in decimal arithmetic leaves theta within
about half an ulp of the root.  The paper's form of the same condition, the
root y = cosh(theta) > 1 of `eval_g`, cancels badly near y = 1; it stays as
a cross-check.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

# Longest edge whose cosh is a finite double.
MAX_EDGE = math.acosh(sys.float_info.max)


def check_edge_length(edge: float) -> None:
    """Raise `ValueError` unless the edge is positive and finite with a finite cosh."""
    if not (edge > 0.0) or not math.isfinite(edge):
        raise ValueError(f"need a positive finite edge length, got {edge!r}")
    if edge > MAX_EDGE:
        raise ValueError(f"edge length {edge!r} exceeds {MAX_EDGE!r}, where cosh overflows")


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
    """The paper's root function, whose zero above 1 is cosh(theta).

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


def solve_theta(n: int, edge: float) -> float:
    """The root theta > 0 of F (module docstring), by bracketed Newton steps.

    Starts from the small-edge asymptote theta_0 = sqrt(24 r / (N (N^2 - 1))),
    r = sinh^2(a/2)/cosh a, which is exact as a -> 0.  A Newton step that
    leaves the bracket [lo, hi] around the root is replaced by bisection, and
    `_polish` takes the last step.  Raises `ValueError` for a bad edge, and
    for an edge so short that r is not a normal double (a below about 3e-154).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    check_edge_length(edge)
    half = math.sinh(0.5 * edge)
    r = half * half / (1.0 + 2.0 * half * half)  # cosh a = 1 + 2 sinh^2(a/2)
    if r < sys.float_info.min:
        raise ValueError(
            f"edge length {edge!r} is too short: sinh^2(a/2)/cosh a = {r!r} underflows")
    big = n + 1
    theta = math.sqrt(24.0 * r / (big * (big * big - 1.0)))
    # F(3) > 0 for every n and edge: at q = e^-3 the j = 1 and j = n terms are equal and
    # (1 - q)(1 - q^n)/(1 + q^N) > 0.94, so half the sum is > 0.94 > 1/2 > r
    lo, hi = 0.0, 3.0
    while True:
        f, slope = _theta_equation(theta, n, r)
        if f < 0.0:
            lo = theta
        else:
            hi = theta
        step = theta - f / slope  # theta itself when f = 0
        if abs(step - theta) <= 4.0 * sys.float_info.epsilon * theta:
            return _polish(theta, n, edge, slope)
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
            if not lo < step < hi:  # the bracket is two adjacent doubles
                return _polish(theta, n, edge, slope)
        theta = step


def _polish(theta: float, n: int, edge: float, slope: float) -> float:
    """One Newton step with F to about 20 digits, in decimal arithmetic: in doubles, the
    rounding of sinh(a/2) and of the sum leaves theta up to 1.2 eps off.  The precision
    covers the digits that 1 - q^j and e^a - 1 cancel when theta and a are small."""
    big = n + 1
    with localcontext() as ctx:
        ctx.prec = 28 - 3 * min(0, math.frexp(theta)[1]) // 10
        e, q = Decimal(edge).exp(), (-Decimal(theta)).exp()
        powers = [Decimal(1)]  # q^j
        for _ in range(big):
            powers.append(powers[-1] * q)
        total = sum((1 - powers[j]) * (1 - powers[big - j]) for j in range(1, big))
        f = total / (2 * (1 + powers[big])) - (e - 1) ** 2 / (2 * (e * e + 1))
    return theta - float(f) / slope


def _theta_equation(theta: float, n: int, r: float) -> tuple[float, float]:
    """F(theta) and F'(theta), with 1 - q^j from ``expm1``.

    d(1 - q^j)/dtheta = j q^j and d(1 + q^N)/dtheta = -N q^N; the two factors
    of each term contribute alike over the symmetric sum.
    """
    big = n + 1
    rise = [-math.expm1(-j * theta) for j in range(big)]  # 1 - q^j
    tail = math.exp(-big * theta)  # q^N
    den = 1.0 + tail
    total = math.fsum([rise[j] * rise[big - j] for j in range(1, big)])
    slope = math.fsum([j * (1.0 - rise[j]) * rise[big - j] for j in range(1, big)])
    return 0.5 * total / den - r, slope / den + 0.5 * big * tail * total / (den * den)


def solve_y0(n: int, edge: float) -> float:
    """The root of `eval_g` above 1, as cosh of `solve_theta`."""
    return math.cosh(solve_theta(n, edge))


@dataclass(frozen=True, eq=False)
class MassSequence:
    """Solved weight profile for one (n, edge) cell.

    ``weights`` has length n+2 with exact zeros at both ends, and ``theta`` is
    the root of F.  Everything else is read off n, the edge and theta, so it
    cannot disagree with them: ``root`` is cosh(theta), ``multiplier`` is
    2 cosh(theta), ``char_root`` = e^theta is the growth rate of the
    homogeneous solutions of the recurrence (char_root + 1/char_root =
    multiplier) and ``shift`` is `pair_mass_constant` of n and cosh a.
    """

    n: int
    edge: float
    theta: float
    weights: np.ndarray

    def __post_init__(self):
        w = np.array(np.asarray(self.weights, dtype=np.float64), copy=True)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        if w.shape != (self.n + 2,):
            raise ValueError(f"expected {self.n + 2} weights, got shape {w.shape}")

    @property
    def root(self) -> float:
        return math.cosh(self.theta)

    @property
    def multiplier(self) -> float:
        return 2.0 * self.root

    @property
    def char_root(self) -> float:
        return math.exp(self.theta)

    @property
    def shift(self) -> float:
        return pair_mass_constant(self.n, math.cosh(self.edge))

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
    """Solve for theta and evaluate the sinh-product weights of one cell."""
    theta = solve_theta(n, edge)
    shift = pair_mass_constant(n, math.cosh(edge))
    big = n + 1
    # sinh(j theta/2) / sinh(theta/2), about j for small theta; the product of
    # two such ratios is formed first, so that w_j and w_{N-j} are the same double
    unit = math.sinh(0.5 * theta)
    ratio = [math.sinh(0.5 * j * theta) / unit for j in range(big + 1)]
    scale = 0.5 * shift / math.cosh(0.5 * big * theta)
    w = [scale * (ratio[j] * ratio[big - j]) for j in range(big + 1)]
    return MassSequence(n, edge, theta, np.array(w))
