"""Tests for regular-simplex construction, measurements, and classification."""

import ast
import inspect
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import facet_center, facet_plane, facet_vertices, hyperplane_through
from hypbilliards import geometry as geometry_mod
from hypbilliards import simplex as simplex_mod
from hypbilliards.geometry import (
    HPoint,
    Hyperplane,
    Region,
    angle_at,
    classify_margins,
    dist,
    mink_dot,
    mink_inner,
    reflect,
    segment_defect,
)
from hypbilliards.simplex import (
    CircumradiusStep,
    RegularSimplex,
    build,
    centroid_weight_formula,
    circumradius_step_residual,
    classify_point,
    cosh_sq_circumradius,
    cosh_sq_vertex_to_facet_center,
    disk_coords,
    helmert_basis,
    max_edge,
    metrics,
    simplex_directions,
    vertex_reflection_identity_residual,
)
from hypbilliards.orbit import construct_orbit
from hypbilliards.report import simplex_document
from hypbilliards.weights import build_sequence

GRID = [(n, a) for n in (1, 2, 3, 5, 8) for a in (0.5, 1.0, 2.0)]


def test_simplex_directions_geometry():
    for n in (1, 2, 4, 9):
        e = simplex_directions(n)
        g = e @ e.T
        assert np.allclose(np.diag(g), 1.0, atol=1e-14)
        off = g[~np.eye(n + 1, dtype=bool)]
        assert np.allclose(off, -1.0 / n, atol=1e-14)
        assert np.allclose(e.sum(axis=0), 0.0, atol=1e-13)
    with pytest.raises(ValueError):
        simplex_directions(0)


def test_helmert_basis_orthonormal_and_centered():
    for n in (1, 3, 6):
        h = helmert_basis(n)
        assert np.allclose(h @ h.T, np.eye(n), atol=1e-14)
        assert np.allclose(h @ np.ones(n + 1), 0.0, atol=1e-14)


@pytest.mark.parametrize("n,a", GRID)
def test_build_pairwise_distances_equal_edge(n, a):
    s = build(n, a)
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            assert dist(s.vertex(i), s.vertex(j)) == pytest.approx(a, abs=1e-12)


@pytest.mark.parametrize("n,a", GRID)
def test_build_circumcenter_equidistant(n, a):
    s = build(n, a)
    ds = [dist(s.vertex(j), s.circumcenter) for j in range(n + 1)]
    assert max(ds) - min(ds) < 1e-14
    assert ds[0] ** 2 == pytest.approx(
        math.asinh(math.sqrt(n * (math.cosh(a) - 1) / (n + 1))) ** 2, rel=1e-10
    )


@pytest.mark.parametrize("n,a", GRID)
def test_build_facet_incidence_and_orientation(n, a):
    s = build(n, a)
    for j in range(n + 1):
        h = facet_plane(s, j)
        for k in range(n + 1):
            m = h.margin(s.vertex(k))
            if k == j:
                assert m > 0.1 * math.tanh(a)  # opposite vertex well inside
            else:
                assert abs(m) < 1e-13
        assert h.margin(s.circumcenter) > 0.0


def test_build_rejects_bad_arguments():
    for n, a in [(0, 1.0), (-2, 1.0), (3, 0.0), (3, -1.0), (3, math.inf)]:
        with pytest.raises(ValueError):
            build(n, a)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [1, 2, 3, 18, 128])
def test_build_and_metrics_up_to_max_edge(n):
    """The per-n edge bound is the last edge whose centroid sums stay finite."""
    a = max_edge(n)
    s = build(n, a)
    metrics(s)
    with pytest.raises(ValueError, match=f"exceeds {a!r}, the longest edge of a regular {n}-simplex"):
        build(n, math.nextafter(a, math.inf))


def test_max_edge_shrinks_with_dimension():
    assert max_edge(1) == pytest.approx(36.7368, abs=1e-4)  # cosh a = 1/eps
    bounds = [max_edge(n) for n in range(2, 129)]
    assert bounds == sorted(bounds, reverse=True)
    assert bounds[0] == pytest.approx(708.684, abs=1e-3)
    assert bounds[-1] == pytest.approx(700.764, abs=1e-3)


def test_cyclic_accessors_and_slice_vector():
    s = build(3, 1.0)
    assert s.ambient_dim == 5
    assert s.vertex(4).coords.tobytes() == s.vertex_coords[0].tobytes()
    assert s.vertex(-1).coords.tobytes() == s.vertex_coords[3].tobytes()
    assert s.circumcenter.coords.tobytes() == np.array([1.0, 0.0, 0.0, 0.0, 0.0]).tobytes()
    ones = s.slice_vector()
    assert ones[0] == 0.0 and np.all(ones[1:] == 1.0)
    for v in s.vertex_coords:
        assert abs(mink_inner(v, ones)) < 1e-13


@pytest.mark.parametrize("n,a", GRID)
def test_measurements_match_closed_forms(n, a):
    s = build(n, a)
    m = metrics(s)
    ca = math.cosh(a)
    assert np.allclose(
        np.cosh(m.vertex_center) ** 2, cosh_sq_circumradius(n, ca), rtol=1e-12
    )
    assert np.allclose(
        np.cosh(m.vertex_facet_center) ** 2,
        cosh_sq_vertex_to_facet_center(n, ca),
        rtol=1e-12,
    )
    assert m.centroid_weight == pytest.approx(
        centroid_weight_formula(n, ca), rel=1e-13
    )


def test_closed_form_values_dim_two_cosh_two():
    # n = 2 with cosh a = 2: the three formulas take simple rational/surd values
    assert cosh_sq_circumradius(2, 2.0) == pytest.approx(5.0 / 3.0, rel=1e-15)
    assert cosh_sq_vertex_to_facet_center(2, 2.0) == pytest.approx(8.0 / 3.0, rel=1e-15)
    assert centroid_weight_formula(2, 2.0) == pytest.approx(math.sqrt(15.0), rel=1e-15)


def test_centroid_weight_segment_case():
    # n = 1: folding unit masses at both endpoints gives 2 cosh(a/2)
    for a in (0.3, 1.0, 2.5):
        assert centroid_weight_formula(1, math.cosh(a)) == pytest.approx(
            2.0 * math.cosh(a / 2.0), rel=1e-14
        )


@pytest.mark.parametrize("n,a", GRID)
def test_vertex_reflection_identity(n, a):
    s = build(n, a)
    res = vertex_reflection_identity_residual(s)
    for j in range(n + 1):
        assert res[j] < 1e-12


def test_classify_interior_and_facets():
    s = build(3, 1.0)
    region, facet, margins = classify_point(s, s.circumcenter.coords)
    assert region is Region.INTERIOR and facet is None
    assert min(margins) > 0.0
    assert margins == geometry_mod.mink_dots(s.circumcenter.coords, s.normal_coords).tolist()
    for j in range(4):
        assert classify_point(s, facet_center(s, j).coords)[:2] == (Region.FACET_INTERIOR, j)


def test_classify_vertices_and_outside():
    s = build(3, 1.0)
    # a vertex lies on the n facets it belongs to: lower-dimensional boundary
    assert classify_point(s, s.vertex_coords[1])[:2] == (Region.LOWER_BOUNDARY, None)
    out = reflect(facet_plane(s, 0), s.circumcenter)
    assert classify_point(s, out.coords)[:2] == (Region.OUTSIDE, None)
    # for a segment each facet is a single vertex
    s1 = build(1, 1.0)
    assert classify_point(s1, s1.vertex_coords[0])[:2] == (Region.FACET_INTERIOR, 1)


def test_facet_band_is_one_constant():
    """Every classification is at the one facet band, `FACET_TOL` itself: the margin
    classifiers default to it, and the point and orbit classifiers take no band, so
    the orbit certificate cannot classify at another band than the flow.  The band and
    its rule are written in one module of the package, `geometry`."""
    from hypbilliards.orbit import verify_orbit
    from hypbilliards.report import Tolerances

    defaults = [inspect.signature(fn).parameters["tol"].default
                for fn in (classify_margins, geometry_mod.facet_hits)]
    assert all(d is geometry_mod.FACET_TOL for d in defaults)
    assert list(inspect.signature(classify_point).parameters) == ["s", "x"]
    assert list(inspect.signature(verify_orbit).parameters) == ["s", "orbit"]
    s = build(2, 1.0)
    with pytest.raises(TypeError):
        classify_point(s, s.circumcenter.coords, tol=0.3)
    assert Tolerances().classify is geometry_mod.FACET_TOL == 1e-9

    band = {"FACET_TOL", "Region", "classify_margins", "facet_hits"}
    defined = []
    for path in sorted(Path(geometry_mod.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                name = node.id
            else:
                continue
            if name in band:
                defined.append((name, path.stem))
    assert sorted(defined) == sorted((name, "geometry") for name in band)


def classify_margins_reference(margins, tol=1e-9):
    """`classify_margins`'s rule as one generator and one comprehension: the oracle."""
    if any(m < -tol for m in margins):
        return Region.OUTSIDE, None
    near = [j for j, m in enumerate(margins) if abs(m) <= tol]
    if not near:
        return Region.INTERIOR, None
    if len(near) == 1:
        return Region.FACET_INTERIOR, near[0]
    return Region.LOWER_BOUNDARY, None


TOL = 1e-9
# margins around the thresholds, both zeros, NaN and the infinities, so that
# lists often hold ties, several near entries and a NaN first or second
margin_values = st.one_of(
    st.sampled_from([0.0, -0.0, TOL, -TOL, math.nextafter(TOL, 1.0), math.nextafter(-TOL, -1.0),
                     5e-324, 1e-17, 0.5, -0.5, math.nan, math.inf, -math.inf]),
    st.floats(allow_subnormal=True),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(margin_values, max_size=8), st.sampled_from([TOL, 0.0, 0.5, -1.0, math.inf, math.nan]))
@example([math.nan, 0.0, 1.0], TOL)
@example([0.0, math.nan, 0.0], TOL)
@example([1.0, math.nan, -0.0, 0.0], TOL)
@example([math.nan, math.nan], TOL)
@example([TOL, -TOL], TOL)
@example([], TOL)
@example([math.nan, -1e-10], math.inf)
def test_classify_margins_matches_the_reference_rule(margins, tol):
    assert classify_margins(margins, tol) == classify_margins_reference(margins, tol)


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 8).flatmap(
           lambda m: st.lists(st.lists(margin_values, min_size=m, max_size=m), min_size=1, max_size=4)),
       st.sampled_from([TOL, 0.0, 0.5, -1.0, math.inf, math.nan]))
@example([[math.nan, 0.0, 1.0], [0.0, math.nan, 0.0]], TOL)
@example([[1.0, math.nan, -0.0, 0.0], [TOL, 1.0, 1.0, 1.0]], TOL)
@example([[TOL, -TOL]], TOL)
@example([[math.nan, -1e-10]], math.inf)
def test_facet_hits_matches_the_reference_rule(table, tol):
    """Row i of `facet_hits` reads the reference's facet where the reference puts the
    point on a facet's relative interior, and -1 elsewhere: each row alone, as a
    one-row table, and the rows together."""
    want = []
    for row in table:
        region, facet = classify_margins_reference(row, tol)
        want.append(facet if region is Region.FACET_INTERIOR else -1)
    assert [geometry_mod.facet_hits(np.array([row]), tol).tolist() for row in table] == [[k] for k in want]
    assert geometry_mod.facet_hits(np.array(table), tol).tolist() == want


def test_facet_centers_make_right_angles():
    """The vertex-to-opposite-facet-center segment meets the facet orthogonally."""
    for n in (2, 4, 6):
        s = build(n, 1.5)
        for j in (0, n):
            for k in facet_vertices(s, j):
                ang = angle_at(facet_center(s, j), s.vertex(j), s.vertex(k))
                assert ang == pytest.approx(math.pi / 2.0, abs=1e-9)


def test_circumcenter_on_vertex_to_facet_center_segment():
    for n in (2, 3, 7):
        s = build(n, 0.8)
        for j in range(n + 1):
            assert segment_defect(s.circumcenter, facet_center(s, j), s.vertex(j)) < 1e-12


def test_closed_form_normals_match_fitted_hyperplanes():
    """Facet hyperplanes rederived from vertex incidence agree with the closed form."""
    for n in (1, 2, 4, 7):
        for a in (0.5, 2.0):
            s = build(n, a)
            for j in range(n + 1):
                pts = [s.vertex(k) for k in facet_vertices(s, j)]
                fit = hyperplane_through(pts, orthogonal_to=(s.slice_vector(),))
                u, v = s.normal_coords[j], fit.normal
                assert min(np.abs(u - v).max(), np.abs(u + v).max()) < 1e-12


def test_circumradius_step_identity_residual():
    for n in range(1, 11):
        for zeta in (1.0 + 1e-6, 1.5, 2.0, 5.0, 10.0):
            args = CircumradiusStep(n, zeta)
            scale = math.cosh(args.next_radius) ** 2
            assert abs(circumradius_step_residual(args)) < 1e-12 * max(1.0, scale)


def test_circumradius_step_geometric_cross_check():
    """The identity's three lengths are realized by an actual simplex pair."""
    n, a = 3, 1.2
    zeta = math.cosh(a)
    big = build(n + 1, a)
    args = CircumradiusStep(n, zeta)
    assert dist(big.vertex(0), big.circumcenter) == pytest.approx(
        args.next_radius, abs=1e-12
    )
    assert dist(big.vertex(0), facet_center(big, 0)) == pytest.approx(
        args.apex_to_base_center, abs=1e-12
    )
    small = build(n, a)
    assert dist(small.vertex(0), small.circumcenter) == pytest.approx(
        args.base_radius, abs=1e-12
    )


def test_circumradius_step_rejects_bad_arguments():
    with pytest.raises(ValueError):
        CircumradiusStep(0, 2.0)
    with pytest.raises(ValueError):
        CircumradiusStep(3, 0.5)


def test_disk_coords_center_and_radius():
    s = build(3, 1.0)
    assert np.allclose(disk_coords(s, s.circumcenter.coords[None]), 0.0, atol=1e-15)
    r = dist(s.vertex(0), s.circumcenter)
    for v in map(s.vertex, range(4)):
        assert np.linalg.norm(disk_coords(s, v.coords[None])) == pytest.approx(
            math.tanh(r / 2.0), abs=1e-13
        )
    with pytest.raises(ValueError):
        disk_coords(s, build(2, 1.0).circumcenter.coords[None])
    with pytest.raises(ValueError):
        disk_coords(s, s.circumcenter.coords)  # one point is a one-row stack


@pytest.mark.parametrize("n,a", GRID)
def test_coordinate_stacks_hold_vertices_and_normals(n, a):
    """The stacks hold checked points and unit normals; one-point views wrap rows."""
    s = build(n, a)
    for j in range(n + 1):
        assert s.vertex(j).coords.tobytes() == s.vertex_coords[j].tobytes()
        assert Hyperplane(s.normal_coords[j]).normal.tobytes() == s.normal_coords[j].tobytes()
        assert HPoint(s.center_coords[j]).coords.tobytes() == s.center_coords[j].tobytes()
    for stack in (s.vertex_coords, s.normal_coords, s.center_coords):
        assert stack.shape == (n + 1, n + 2)
        assert not stack.flags.writeable


def test_build_checks_each_stack_on_the_sheet_once(monkeypatch):
    """The vertex stack in `build`, the center stack where its folds make it."""
    shapes = []
    real = geometry_mod.check_on_sheet_rows

    def counting(x):
        shapes.append(x.shape)
        real(x)

    monkeypatch.setattr(geometry_mod, "check_on_sheet_rows", counting)
    monkeypatch.setattr(simplex_mod, "check_on_sheet_rows", counting)
    build(128, 1.3)
    assert shapes == [(129, 130), (129, 130)]


@pytest.mark.parametrize("n", [*range(2, 20), 32, 64, 128])
def test_stacked_disk_coords_match_per_point_gemv_bitwise(n):
    """The stacked matmul is one ``gemv`` per row, the call the per-point chart makes."""
    s = build(n, 1.0)
    orb = construct_orbit(s, build_sequence(n, 1.0))
    stack = np.concatenate(
        (orb.coords, s.vertex_coords, s.center_coords, s.circumcenter.coords[None]))
    ref = np.array([helmert_basis(n) @ x[1:] / (1.0 + x[0]) for x in stack])
    assert disk_coords(s, stack).tobytes() == ref.tobytes()
    assert disk_coords(s, orb.point(0).coords[None]).tobytes() == ref[:1].tobytes()
    assert disk_coords(s, stack[:0]).shape == (0, n)


@pytest.mark.parametrize("n,a", GRID)
def test_simplex_data_stays_on_slice(n, a):
    s = build(n, a)
    pts = [*map(HPoint, s.vertex_coords), *map(HPoint, s.center_coords), s.circumcenter]
    for p in pts:
        assert abs(mink_dot(p.coords, s.slice_vector())) < 1e-12


def test_dataclass_shape():
    s = build(2, 1.0)
    assert isinstance(s, RegularSimplex)
    assert s.vertex_coords.shape == s.normal_coords.shape == s.center_coords.shape == (3, 4)
    assert simplex_document(s)["facets"][1]["vertex_indices"] == [0, 2]
