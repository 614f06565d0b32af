"""The stacked cell certificates against the per-point loops of `loop_reference`, bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_reference as ref
from conftest import facet_plane
from hypbilliards import report
from hypbilliards.geometry import HPoint, mink_dot, reflect
from hypbilliards.orbit import BilliardOrbit, construct_orbit, midpoint_defects, verify_orbit
from hypbilliards.simplex import build, max_edge, metrics, vertex_reflection_identity_residual
from hypbilliards.weights import build_sequence

DIMS = [*range(2, 13), 16, 32, 64, 128]


def same(a, b) -> bool:
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


def assert_same_verification(got, want):
    for field in ("facet_of", "facet_ok", "incidence", "collinearity", "centroid_dist",
                  "centroid_mass_rel", "angle_defect"):
        g, w = getattr(got, field), getattr(want, field)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), field


def assert_cell_matches_loops(n, a):
    s = build(n, a)
    assert same([s.vertex(j).coords for j in range(n + 1)], s.vertex_coords)
    assert same(s.center_coords, [c.coords for c in ref.facet_centers(s)])

    m = metrics(s)
    vc, vf = ref.metrics(s)
    assert same(m.vertex_center, vc) and same(m.vertex_facet_center, vf)

    res = vertex_reflection_identity_residual(s)
    assert same(res, [ref.vertex_reflection_identity_residual(s, j) for j in range(n + 1)])
    assert same(midpoint_defects(s), ref.midpoint_defects(s))

    seq = build_sequence(n, a)
    orb = construct_orbit(s, seq)
    points, masses = ref.construct_orbit(s, seq)
    assert same(orb.coords, [p.coords for p in points])
    assert same(orb.masses, masses)
    assert_same_verification(verify_orbit(s, orb), ref.verify_orbit(s, orb))

    doc = report.simplex_document(s)
    assert [f["vertex_indices"] for f in doc["facets"]] == [
        [k for k in range(n + 1) if k != j] for j in range(n + 1)]
    checks = doc["checks"]
    assert (checks["min_opposite_margin"], checks["right_angle"]) == ref.simplex_checks(s)
    return s, orb


@pytest.mark.parametrize("n", DIMS)
def test_cell_matches_per_point_loops(n):
    for a in (0.5, 1.3, 2.0):
        assert_cell_matches_loops(n, a)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 12), a=st.floats(0.3, 5.0))
def test_cell_matches_per_point_loops_over_edges(n, a):
    assert_cell_matches_loops(n, a)


@pytest.mark.parametrize("n,a", [(3, 1e-3), (8, 1e-3)])
def test_short_sides_take_the_chord_route(n, a):
    """Sides shorter than ~1.4e-3 make `dist` use its chord route inside the collinearity."""
    _, orb = assert_cell_matches_loops(n, a)
    assert -mink_dot(orb.coords[0], orb.coords[1]) < 1.0 + 1e-6


@pytest.mark.parametrize("n", [2, 3, 8, 32, 128])
@pytest.mark.parametrize("a", [1e-6, 1e-3, 20.0, "top"])
def test_orbit_matches_per_point_folds_at_extreme_edges(n, a):
    """The shifted sums against one fold per bounce point, out to just under `max_edge`,
    where the folds overflow from n = 5 up: both sides then raise the same error."""
    a = math.nextafter(max_edge(n), 0.0) if a == "top" else a
    s, seq = build(n, a), build_sequence(n, a)
    try:
        points, masses = ref.construct_orbit(s, seq)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            construct_orbit(s, seq)
        assert str(got.value) == str(err)
        return
    orb = construct_orbit(s, seq)
    assert same(orb.coords, [p.coords for p in points])
    assert same(orb.masses, masses)


def off_facet_orbits(n, a):
    """Closed polygons that miss the facet interiors, so `verify_orbit` falls back
    to the facet of the smallest margin."""
    s = build(n, a)
    orb = construct_orbit(s, build_sequence(n, a))

    def polygon(coords, masses=orb.masses):
        return BilliardOrbit(coords, masses, orb.multiplier)

    points = [orb.point(j) for j in range(n + 1)]
    swapped = orb.coords.copy()
    swapped[:, [1, 2]] = swapped[:, [2, 1]]
    mirrored = [reflect(facet_plane(s, 0), p).coords for p in points]
    pulled = [HPoint.from_vector(p.coords + 0.3 * s.circumcenter.coords).coords for p in points]
    corners = list(s.vertex_coords)
    return s, [
        polygon(swapped),  # the vertex-swap image
        polygon(s.center_coords, np.ones(n + 1)),  # the facet-center polygon
        polygon(mirrored),  # outside the simplex
        polygon(pulled),  # in the interior
        polygon(corners),  # on the lower-dimensional boundary
    ]


@pytest.mark.parametrize("n,a", [(3, 1.0), (4, 1.0), (8, 0.5), (32, 2.0)])
def test_off_facet_polygons_match_per_point_loops(n, a):
    s, orbits = off_facet_orbits(n, a)
    fallback = 0
    for orb in orbits:
        got = verify_orbit(s, orb)
        assert_same_verification(got, ref.verify_orbit(s, orb))
        fallback += int(np.count_nonzero(~got.facet_ok))
    assert fallback > 0


def test_zero_target_mass_raises_like_the_loop():
    s = build(3, 1.0)
    orb = construct_orbit(s, build_sequence(3, 1.0))
    masses = orb.masses.copy()
    masses[2] = 0.0
    broken = BilliardOrbit(orb.coords, masses, orb.multiplier)
    with pytest.raises(ZeroDivisionError):
        ref.verify_orbit(s, broken)
    with pytest.raises(ZeroDivisionError):
        verify_orbit(s, broken)


def test_breakdown_cell_raises_the_loop_error():
    """At (3, 40) the mirror image of a vertex rounds to a spacelike vector."""
    s = build(3, 40.0)
    with pytest.raises(ValueError) as want:
        ref.vertex_reflection_identity_residual(s, 0)
    with pytest.raises(ValueError) as got:
        vertex_reflection_identity_residual(s)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("cannot normalize non-timelike vector")

