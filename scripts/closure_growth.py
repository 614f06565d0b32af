#!/usr/bin/env python3
"""Instability of the closed orbit under the billiard map.

Two experiments on one (n, edge) cell:

1. Flow the exact orbit for 1, 2, 4, ... periods and record the return
   error.  It starts at rounding level and grows geometrically: the orbit
   exists but is dynamically unstable, so long closed runs amplify noise.

2. Launch a slightly misaimed trajectory next to the orbit and track its
   separation from the true bounce points.  The log-linear part of the
   separation curve gives the per-bounce expansion factor, an effective
   Lyapunov multiplier of the bounce map along the orbit.
"""

import argparse
import math
import sys

import numpy as np

from hypbilliards.flow import iterate, run_closure, state_toward
from hypbilliards.geometry import chord_dist_rows, geodesic_point
from hypbilliards.orbit import construct_orbit, orbit_edge_lengths
from hypbilliards.simplex import build
from hypbilliards.weights import build_sequence


def separation_curve(s, orb, offset: float, bounces: int) -> np.ndarray:
    """Per-bounce distance between a misaimed trajectory and the orbit."""
    target = geodesic_point(orb.point(1), orb.point(2), offset)
    state = state_toward(orb.point(0), target, last_facet=0)
    traj = iterate(s, state, bounces)
    ahead = np.take(orb.coords, np.arange(1, len(traj) + 1), axis=0, mode="wrap")
    return chord_dist_rows(traj.points, ahead)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dim", type=int, default=3)
    ap.add_argument("--edge", type=float, default=1.0)
    ap.add_argument("--max-periods", type=int, default=64)
    ap.add_argument("--offset", type=float, default=1e-9,
                    help="initial aiming error (distance past the first bounce point)")
    ap.add_argument("--bounces", type=int, default=40,
                    help="length of the separation experiment")
    args = ap.parse_args()
    if args.dim < 2:
        ap.error("need --dim >= 2")

    s = build(args.dim, args.edge)
    orb = construct_orbit(s, build_sequence(args.dim, args.edge))
    side = float(orbit_edge_lengths(orb).mean())
    print(f"n = {args.dim}, edge = {args.edge:g}, orbit side = {side:.6g}\n")

    print("periods   return error")
    p = 1
    while p <= args.max_periods:
        err = run_closure(s, orb, periods=p).error
        print(f"{p:7d}   {err:.3e}")
        if err > 1e-2:
            print("(stopping: noise has been amplified to macroscopic size)")
            break
        p *= 2

    sep = separation_curve(s, orb, args.offset, args.bounces)
    usable = (sep > 0) & (sep < 1e-2)  # below saturation at the simplex scale
    idx = np.nonzero(usable)[0]
    print(f"\nseparation after misaiming by {args.offset:g}:")
    for i in range(0, len(sep), max(1, len(sep) // 10)):
        print(f"  bounce {i:3d}: {sep[i]:.3e}")
    if len(idx) >= 4:
        slope = np.polyfit(idx, np.log(sep[idx]), 1)[0]
        print(f"\nper-bounce expansion factor ~ {math.exp(slope):.4g} "
              f"(exponent {slope / side:.4g} per unit length)")
    else:
        print("\n(not enough pre-saturation points for a growth fit; "
              "lower --offset or --bounces)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
