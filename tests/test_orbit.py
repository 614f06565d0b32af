"""Tests for orbit construction and geometric verification."""

import math

import numpy as np
import pytest

from hypbilliards.geometry import HPoint, angle_at, chord_dist, dist, geodesic_point
from hypbilliards.orbit import (
    BilliardOrbit,
    construct_orbit,
    midpoint_defects,
    midpoint_trajectory_defect,
    orbit_edge_lengths,
    orthic_points,
    specular_defects,
    verify_orbit,
)
from hypbilliards.simplex import build
from hypbilliards.weights import build_sequence

from conftest import facet_center, facet_vertices, random_hpoint, random_hyperplane

CELLS = [(n, a) for n in range(2, 9) for a in (0.5, 1.0, 2.0)]

MIDPOINT_DEFECT_3_1 = 0.5791188882995495  # frozen from this construction


def make_orbit(n, a):
    s = build(n, a)
    return s, construct_orbit(s, build_sequence(n, a))


@pytest.mark.parametrize("n,a", CELLS)
def test_orbit_hits_each_facet_once(n, a):
    s, orb = make_orbit(n, a)
    assert orb.period == n + 1
    ver = verify_orbit(s, orb)
    assert ver.clean_facets
    assert sorted(ver.facet_of.tolist()) == list(range(n + 1))


@pytest.mark.parametrize("n,a", CELLS)
def test_orbit_residuals_small(n, a):
    s, orb = make_orbit(n, a)
    res = verify_orbit(s, orb).max_residuals()
    assert res["incidence"] < 1e-12
    assert res["collinearity"] < 1e-12
    assert res["centroid_dist"] < 1e-12
    assert res["centroid_mass_rel"] < 1e-13
    assert res["angle_defect"] < 1e-6


@pytest.mark.parametrize("n,a", CELLS)
def test_orbit_symmetry(n, a):
    """All bounce masses agree and all polygon sides have the same length."""
    _, orb = make_orbit(n, a)
    assert orb.masses.max() - orb.masses.min() == 0.0
    lengths = orbit_edge_lengths(orb)
    assert lengths.max() - lengths.min() < 1e-12
    assert np.all(lengths > 0.1 * a / (n + 1))


def test_construct_orbit_mismatch_raises():
    s = build(3, 1.0)
    with pytest.raises(ValueError):
        construct_orbit(s, build_sequence(3, 2.0))
    with pytest.raises(ValueError):
        construct_orbit(s, build_sequence(4, 1.0))


def reversed_orbit(orb):
    """The same closed polygon traversed backwards (P_0, P_n, ..., P_1)."""
    idx = [(-j) % orb.period for j in range(orb.period)]
    return BilliardOrbit(orb.coords[idx], orb.masses[idx], orb.multiplier)


def specular_defect(h, prev_pt, at, next_pt):
    """`specular_defects` of one path prev -> at -> next off the hyperplane h."""
    rows = (x[None] for x in (h.normal, prev_pt.coords, at.coords, next_pt.coords))
    return float(specular_defects(*rows)[0])


def test_reversed_orbit_verifies_identically():
    s, orb = make_orbit(4, 1.0)
    rev = reversed_orbit(orb)
    assert rev.point(0).coords.tobytes() == orb.point(0).coords.tobytes()
    assert rev.point(1).coords.tobytes() == orb.point(-1).coords.tobytes()
    res_f = verify_orbit(s, orb).max_residuals()
    res_r = verify_orbit(s, rev).max_residuals()
    assert verify_orbit(s, rev).clean_facets
    for key in res_f:
        assert res_r[key] < 10.0 * res_f[key] + 1e-13


def test_vertex_swap_image_verifies():
    """Swapping two spacelike axes is a simplex symmetry; the image polygon
    is again a verified orbit."""
    s, orb = make_orbit(3, 1.0)
    swapped = orb.coords.copy()
    swapped[:, [1, 2]] = swapped[:, [2, 1]]
    image = BilliardOrbit(swapped, orb.masses, orb.multiplier)
    ver = verify_orbit(s, image)
    assert ver.clean_facets
    res = ver.max_residuals()
    assert res["collinearity"] < 1e-12 and res["centroid_dist"] < 1e-12


def test_verification_measures_rather_than_assumes():
    # the facet-center polygon lies on the facets but breaks the mirror law
    s = build(4, 1.0)
    fake = BilliardOrbit(s.center_coords, np.ones(5), 2.5)
    ver = verify_orbit(s, fake)
    assert ver.clean_facets
    assert ver.max_residuals()["angle_defect"] > 1e-3


def test_orthic_feet_match_triangle_orbit():
    for a in (0.5, 1.0, 2.0):
        s, orb = make_orbit(2, a)
        feet = orthic_points(s)
        ver = verify_orbit(s, orb)
        for j, k in enumerate(ver.facet_of):
            assert chord_dist(orb.point(j), feet[k]) < 1e-9


def test_orthic_feet_are_facet_centers_for_triangles():
    s = build(2, 1.5)
    feet = orthic_points(s)
    for j in range(3):
        assert chord_dist(feet[j], facet_center(s, j)) < 1e-12


def test_orthic_feet_right_angles():
    s = build(2, 1.0)
    feet = orthic_points(s)
    for j in range(3):
        for k in facet_vertices(s, j):
            ang = angle_at(feet[j], s.vertex(j), s.vertex(k))
            assert ang == pytest.approx(math.pi / 2.0, abs=1e-9)


def test_orthic_rejects_other_dimensions():
    with pytest.raises(ValueError):
        orthic_points(build(3, 1.0))


def test_midpoint_polygon_is_orbit_only_for_triangles():
    assert midpoint_trajectory_defect(build(2, 1.0)) < 1e-6
    for n in range(3, 9):
        assert midpoint_trajectory_defect(build(n, 1.0)) > 1e-3


def test_midpoint_defect_frozen_value_and_constancy():
    d = midpoint_defects(build(3, 1.0))
    assert d.max() - d.min() < 1e-12  # same defect at every corner by symmetry
    assert midpoint_trajectory_defect(build(3, 1.0)) == pytest.approx(
        MIDPOINT_DEFECT_3_1, abs=1e-9
    )


def test_specular_defect_zero_on_mirror_pairs():
    """Mirroring the straight continuation of the incoming ray gives defect zero."""
    rng = np.random.default_rng(21)
    for _ in range(20):
        h = random_hyperplane(rng, 3)
        prev = random_hpoint(rng, 3)
        # project a random point onto the mirror to act as the bounce point
        q = random_hpoint(rng, 3)
        at = HPoint.from_vector(q.coords - h.margin(q) * h.normal)
        if chord_dist(at, prev) < 1e-3:
            continue
        ext = geodesic_point(prev, at, dist(prev, at) + 0.7)
        nxt = HPoint.from_vector(ext.coords - 2.0 * h.margin(ext) * h.normal)
        assert specular_defect(h, prev, at, nxt) < 1e-6
        # aiming at the image of the source runs straight through the mirror
        image = HPoint.from_vector(prev.coords - 2.0 * h.margin(prev) * h.normal)
        assert specular_defect(h, prev, at, image) == pytest.approx(math.pi, abs=1e-6)


def test_orbit_cyclic_accessors_and_validation():
    _, orb = make_orbit(3, 1.0)
    assert orb.point(4).coords.tobytes() == orb.coords[0].tobytes()
    assert orb.point(-1).coords.tobytes() == orb.coords[3].tobytes()
    assert orb.mass(7) == orb.mass(3)
    assert not orb.masses.flags.writeable
    with pytest.raises(ValueError):
        BilliardOrbit(orb.coords, np.ones(3), orb.multiplier)
    total = orbit_edge_lengths(orb).sum()
    assert total == pytest.approx(4.0 * dist(orb.point(0), orb.point(1)), rel=1e-12)


def test_orbit_coords_are_a_checked_read_only_copy():
    _, orb = make_orbit(3, 1.0)
    coords, masses = orb.coords.copy(), orb.masses.copy()
    copy = BilliardOrbit(coords, masses, orb.multiplier)
    coords[0, 0] += 1.0
    masses[0] += 1.0
    assert copy.coords.tobytes() == orb.coords.tobytes()
    assert copy.masses.tobytes() == orb.masses.tobytes()
    assert not copy.coords.flags.writeable and not copy.masses.flags.writeable
    assert copy.coords.shape == (4, 5) and copy.period == 4


def test_orbit_rejects_a_row_off_the_sheet_like_hpoint():
    _, orb = make_orbit(3, 1.0)
    bad = orb.coords.copy()
    bad[2, 0] += 1e-3
    with pytest.raises(ValueError) as got:
        BilliardOrbit(bad, orb.masses, orb.multiplier)
    with pytest.raises(ValueError) as want:
        HPoint(bad[2])
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("not on the unit hyperboloid: <x,x> = ")
    lower = orb.coords.copy()
    lower[1] = -lower[1]
    with pytest.raises(ValueError, match="upper sheet"):
        BilliardOrbit(lower, orb.masses, orb.multiplier)


def test_orbit_rejects_a_flat_stack_and_a_wrong_mass_count():
    _, orb = make_orbit(3, 1.0)
    with pytest.raises(ValueError, match="stack of bounce points"):
        BilliardOrbit(orb.coords[0], orb.masses[:1], orb.multiplier)
    with pytest.raises(ValueError, match="one mass per bounce point"):
        BilliardOrbit(orb.coords, orb.masses[:3], orb.multiplier)
    with pytest.raises(ValueError, match="one mass per bounce point"):
        BilliardOrbit(orb.coords, np.ones((4, 1)), orb.multiplier)
