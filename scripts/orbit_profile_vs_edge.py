#!/usr/bin/env python3
"""How the closed orbit deforms as the edge length varies, at fixed dimension.

For each edge length on a log grid this prints the recurrence multiplier,
the orbit side length, the circumradius, the facet-center polygon's mirror
defect, and the flow closure error.  Near a -> 0 the multiplier collapses
toward 2 (the weight profile flattens and the root solver runs out of
room); for large a everything grows like the edge itself.
"""

import argparse
import csv
import sys

import numpy as np

from hypbilliards.flow import closure_error
from hypbilliards.geometry import dist
from hypbilliards.orbit import construct_orbit, midpoint_trajectory_defect, orbit_edge_lengths
from hypbilliards.simplex import build
from hypbilliards.weights import RootBracketError, build_sequence

COLUMNS = ["edge", "multiplier", "orbit_side", "circumradius", "midpoint_defect", "closure"]


def profile_row(n: int, a: float) -> dict | None:
    s = build(n, a)
    try:
        seq = build_sequence(n, a)
    except RootBracketError:
        return None
    orb = construct_orbit(s, seq)
    return {
        "edge": a,
        "multiplier": seq.multiplier,
        "orbit_side": float(orbit_edge_lengths(orb).mean()),
        "circumradius": dist(s.vertex(0), s.circumcenter),
        "midpoint_defect": midpoint_trajectory_defect(s),
        "closure": closure_error(s, orb),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dim", type=int, default=3)
    ap.add_argument("--min-edge", type=float, default=0.05)
    ap.add_argument("--max-edge", type=float, default=4.0)
    ap.add_argument("--points", type=int, default=14)
    ap.add_argument("--csv", default=None, help="also write the table here")
    args = ap.parse_args()
    if args.dim < 2:
        ap.error("need --dim >= 2")

    edges = np.geomspace(args.min_edge, args.max_edge, args.points)
    rows = []
    print(f"n = {args.dim}")
    print(" ".join(f"{c:>16}" for c in COLUMNS))
    for a in edges:
        row = profile_row(args.dim, float(a))
        if row is None:
            print(f"{a:16.6g}  (root solver found no multiplier above 2)")
            continue
        rows.append(row)
        print(" ".join(f"{row[c]:16.6g}" for c in COLUMNS))

    lam = np.array([r["multiplier"] for r in rows])
    print(f"\nmultiplier range: {lam.min():.6g} .. {lam.max():.6g} "
          f"(always above 2; approaches 2 as the edge shrinks)")

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=COLUMNS)
            w.writeheader()
            w.writerows(rows)
        print(f"wrote {len(rows)} rows to {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
