"""Closed billiard orbits in regular hyperbolic simplices.

Everything runs in the hyperboloid model.  `simplex.build` places a regular
n-simplex with its circumcenter at the basepoint; `weights.build_sequence`
solves the scalar root problem for the bounce-weight profile;
`orbit.construct_orbit` turns profile plus simplex into the closed
(n+1)-bounce orbit; `flow` re-traces the orbit with a geodesic billiard
simulator that shares none of the center-of-mass algebra; `report` bundles
the residual gates and serialization, and `cli` exposes all of it as a
command-line tool.
"""

from .geometry import (
    HPoint,
    Hyperplane,
    angle_at,
    chord_dist,
    dist,
    foot_of_perpendicular,
    geodesic_point,
    mink_inner,
    reflect,
    segment_defect,
)
from .masses import PointMass, centroid_fold, combine_intrinsic, scale_masses
from .simplex import RegularSimplex, build, classify_point, metrics
from .weights import MassSequence, build_sequence, eval_g, eval_h, solve_y0
from .orbit import BilliardOrbit, construct_orbit, midpoint_trajectory_defect, orthic_points, verify_orbit
from .flow import FlowState, closure_error, iterate, next_collision, reflect_at
from .report import Tolerances, evaluate_cell, run_sweep

__version__ = "0.1.0"

__all__ = [
    "HPoint", "Hyperplane",
    "angle_at", "chord_dist", "dist", "foot_of_perpendicular", "geodesic_point",
    "mink_inner", "reflect", "segment_defect",
    "PointMass", "centroid_fold", "combine_intrinsic", "scale_masses",
    "RegularSimplex", "build", "classify_point", "metrics",
    "MassSequence", "build_sequence", "eval_g", "eval_h", "solve_y0",
    "BilliardOrbit", "construct_orbit", "midpoint_trajectory_defect",
    "orthic_points", "verify_orbit",
    "FlowState", "closure_error", "iterate", "next_collision", "reflect_at",
    "Tolerances", "evaluate_cell", "run_sweep",
    "__version__",
]
