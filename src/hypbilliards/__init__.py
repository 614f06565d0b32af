"""Closed billiard orbits in regular hyperbolic simplices.

Everything runs in the hyperboloid model.  `simplex.build` places a regular
n-simplex with its circumcenter at the basepoint; `weights.build_sequence`
solves the scalar root problem for the bounce-weight profile;
`orbit.construct_orbit` turns profile plus simplex into the closed
(n+1)-bounce orbit; `flow` re-traces the orbit with a geodesic billiard
simulator that shares none of the center-of-mass algebra; `report` bundles
the residual gates, grid sweeps (their cells spread over forked processes by
`forked`) and serialization, and `cli` exposes all of it as a command-line
tool.

The package namespace is empty: callers import the submodules
(``from hypbilliards.simplex import build``), so importing one loads only
what it imports itself, and `flow` loads `geometry` alone.
"""
