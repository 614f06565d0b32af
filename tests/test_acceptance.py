"""Acceptance suite: one test per top-level guarantee of the package.

Each test sweeps its whole parameter family internally, so `pytest -v`
reports exactly one pass/fail line per guarantee.  Tolerances are part of
the contract and are not to be loosened here; if a gate fails, the library
is wrong, not the gate.
"""

import math
from functools import lru_cache

import numpy as np

from hypbilliards.flow import closure_error, iterate, state_toward
from hypbilliards.geometry import chord_dist, geodesic_point, reflect
from hypbilliards.masses import PointMass, combine_intrinsic, scale_masses
from hypbilliards.orbit import (
    construct_orbit,
    midpoint_trajectory_defect,
    orthic_points,
    verify_orbit,
)
from hypbilliards.simplex import (
    CircumradiusStep,
    build,
    centroid_weight_formula,
    circumradius_step_residual,
    cosh_sq_circumradius,
    cosh_sq_vertex_to_facet_center,
    metrics,
    vertex_reflection_identity_residual,
)
from hypbilliards.weights import build_sequence, eval_g, forward_weights

from conftest import fold, random_hpoint, random_hyperplane

GRID = [(n, a) for n in range(2, 9) for a in (0.5, 1.0, 2.0)]

MIDPOINT_DEFECT_3_1 = 0.5791188882995495  # frozen once from this implementation


@lru_cache(maxsize=None)
def cell(n, a):
    s = build(n, a)
    seq = build_sequence(n, a)
    return s, seq, construct_orbit(s, seq)


def test_criterion_01_closed_orbit_exists_on_grid():
    """(n+1)-periodic orbit through every facet interior, verified two ways."""
    for n, a in GRID:
        s, _, orb = cell(n, a)
        ver = verify_orbit(s, orb)
        assert ver.clean_facets, (n, a)
        res = ver.max_residuals()
        assert res["incidence"] < 1e-10, (n, a, res)
        assert res["collinearity"] < 1e-9, (n, a, res)
        assert res["centroid_dist"] < 1e-9, (n, a, res)
        assert res["centroid_mass_rel"] < 1e-9, (n, a, res)
        assert closure_error(s, orb) < 1e-8, (n, a)


def test_criterion_02_measurement_identities():
    """Measured circumradius and vertex-to-facet-center distances match the
    closed forms to 1e-10 relative, including the degenerate segment case."""
    for n, a in GRID + [(1, 0.5), (1, 1.0), (1, 2.0)]:
        s = build(n, a)
        m = metrics(s)
        c = math.cosh(a)
        vc = np.cosh(m.vertex_center) ** 2 / cosh_sq_circumradius(n, c) - 1.0
        vf = (np.cosh(m.vertex_facet_center) ** 2
              / cosh_sq_vertex_to_facet_center(n, c) - 1.0)
        assert np.max(np.abs(vc)) < 1e-10, (n, a)
        assert np.max(np.abs(vf)) < 1e-10, (n, a)


def test_criterion_03_centroid_mass_formula():
    """Folding unit vertex masses collects weight sqrt((n+1)(n cosh a + 1))."""
    for n, a in GRID + [(1, 1.0)]:
        s = build(n, a)
        w = fold([PointMass(s.vertex(j), 1.0) for j in range(n + 1)]).weight
        assert abs(w / centroid_weight_formula(n, math.cosh(a)) - 1.0) < 1e-10, (n, a)


def test_criterion_04_vertex_reflection_identity():
    """Vertex plus its facet mirror image balances the weighted facet vertices."""
    for n, a in GRID:
        s, _, _ = cell(n, a)
        res = vertex_reflection_identity_residual(s)
        for j in range(n + 1):
            assert res[j] < 1e-10, (n, a, j)


def test_criterion_05_circumradius_step_identity():
    """Dimension-step identity between consecutive circumradii, 1e-12 relative."""
    for n in range(1, 11):
        for zeta in (1.0 + 1e-6, 1.5, 2.0, 5.0, 10.0):
            args = CircumradiusStep(n, zeta)
            scale = math.cosh(args.next_radius) ** 2
            assert abs(circumradius_step_residual(args)) < 1e-12 * scale, (n, zeta)


def test_criterion_06_mass_sequence_properties():
    """Root residual, multiplier bound, boundary and interior weight structure,
    recurrence residual, and the independent forward-recurrence oracle."""
    for n, a in GRID:
        _, seq, _ = cell(n, a)
        assert abs(eval_g(seq.root, n, a)) < 1e-13, (n, a)
        assert seq.theta > 0.0, (n, a)  # multiplier > 2 in exact arithmetic
        w = seq.weights
        assert w[0] == 0.0 and w[n + 1] == 0.0, (n, a)
        assert abs(w[1] - 1.0) < 1e-10 and abs(w[n] - 1.0) < 1e-10, (n, a)
        assert np.all(w[1:-1] > 0.0), (n, a)
        assert np.max(np.abs(seq.recurrence_residuals())) < 1e-10, (n, a)
        assert np.max(np.abs(forward_weights(seq.multiplier, seq.shift, n) - w)) < 1e-8, (n, a)


def test_criterion_07_center_of_mass_oracle_equivalence():
    """Closed-form combination against intrinsic bisection on 1000 random
    pairs, plus the algebraic laws of the operation, all at 1e-10."""
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        m = int(rng.integers(2, 6))
        p = PointMass(random_hpoint(rng, m), float(rng.uniform(0.05, 20.0)))
        q = PointMass(random_hpoint(rng, m), float(rng.uniform(0.05, 20.0)))
        u, v = fold([p, q]), combine_intrinsic(p, q)
        assert chord_dist(u.location, v.location) < 1e-10
        assert abs(u.weight - v.weight) / u.weight < 1e-10

    for _ in range(100):
        m = int(rng.integers(2, 6))
        pa = PointMass(random_hpoint(rng, m), float(rng.uniform(0.1, 10.0)))
        pb = PointMass(random_hpoint(rng, m), float(rng.uniform(0.1, 10.0)))
        pc = PointMass(random_hpoint(rng, m), float(rng.uniform(0.1, 10.0)))
        ab, ba = fold([pa, pb]), fold([pb, pa])
        assert chord_dist(ab.location, ba.location) < 1e-10
        assert abs(ab.weight - ba.weight) / ab.weight < 1e-10
        left = fold([fold([pa, pb]), pc])
        right = fold([pa, fold([pb, pc])])
        assert chord_dist(left.location, right.location) < 1e-10
        assert abs(left.weight - right.weight) / left.weight < 1e-10
        factor = float(rng.uniform(0.1, 10.0))
        sa, sb = scale_masses([pa, pb], factor)
        scaled = fold([sa, sb])
        assert chord_dist(scaled.location, ab.location) < 1e-10
        assert abs(scaled.weight - factor * ab.weight) / scaled.weight < 1e-10
        h = random_hyperplane(rng, m)
        mirrored = fold([
            PointMass(reflect(h, pa.location), pa.weight),
            PointMass(reflect(h, pb.location), pb.weight),
        ])
        assert chord_dist(mirrored.location, reflect(h, ab.location)) < 1e-10
        assert abs(mirrored.weight - ab.weight) / ab.weight < 1e-10


def test_criterion_08_triangle_orbit_is_orthic():
    """For n = 2 the bounce points are the altitude feet of the triangle."""
    for a in (0.5, 1.0, 2.0):
        s, _, orb = cell(2, a)
        feet = orthic_points(s)
        ver = verify_orbit(s, orb)
        for j, k in enumerate(ver.facet_of):
            assert chord_dist(orb.point(j), feet[k]) < 1e-9, a


def test_criterion_09_facet_center_polygon_fails_above_two():
    """The facet-center polygon visibly breaks the mirror law for n >= 3."""
    for n in range(3, 9):
        defect = midpoint_trajectory_defect(build(n, 1.0))
        assert defect > 1e-3, n
    frozen = midpoint_trajectory_defect(build(3, 1.0))
    assert abs(frozen - MIDPOINT_DEFECT_3_1) < 1e-9


def test_criterion_10_flow_invariant_drift():
    """A generic 1000-bounce trajectory keeps all state invariants below 1e-8."""
    s, _, orb = cell(3, 1.0)
    target = geodesic_point(orb.point(1), orb.point(2), 0.3)
    state = state_toward(orb.point(0), target)
    traj = iterate(s, state, 1000)
    assert len(traj) == 1000
    assert traj.max_drift < 1e-8
