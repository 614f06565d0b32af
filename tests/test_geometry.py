import math

import numpy as np
import pytest
from hypothesis import example, given, settings

from conftest import (hpoint_pairs, hpoint_triples, hyperplane_through, lift, random_hpoint,
                      random_hyperplane, to_poincare_ball)
from hypbilliards.geometry import (
    HPoint,
    Hyperplane,
    angle_at,
    chord_dist,
    dist,
    foot_of_perpendicular,
    geodesic_point,
    check_on_sheet,
    check_on_sheet_rows,
    check_unit_normal_rows,
    check_unit_tangent,
    chord_dist_rows,
    dist_rows,
    from_vector_rows,
    mink_dot,
    mink_inner,
    mink_pairs,
    reflect_rows,
    to_sheet,
    unit_tangent_rows,
    reflect,
    safe_arccosh,
    segment_defect,
    tangent_part,
    unit_tangent,
)
from hypbilliards.flow import state_toward
from hypbilliards.simplex import build


def test_mink_inner_examples():
    assert mink_inner([1.0, 0.0, 0.0], [1.0, 0.0, 0.0]) == -1.0
    assert mink_inner([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]) == 0.0
    assert mink_inner([2.0, 1.0, 3.0], [1.0, 4.0, 1.0]) == pytest.approx(-2 + 4 + 3)
    with pytest.raises(ValueError):
        mink_inner([1.0, 0.0], [1.0, 0.0, 0.0])


def test_safe_arccosh_clamps_and_rejects():
    assert safe_arccosh(1.0) == 0.0
    assert safe_arccosh(1.0 - 1e-13) == 0.0
    assert safe_arccosh(math.cosh(2.0)) == pytest.approx(2.0, abs=1e-14)
    with pytest.raises(ValueError):
        safe_arccosh(0.9)


def test_hpoint_validation():
    HPoint([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        HPoint([2.0, 0.0, 0.0])  # not on the sheet
    with pytest.raises(ValueError):
        HPoint([-1.0, 0.0, 0.0])  # lower sheet
    with pytest.raises(ValueError):
        HPoint([[1.0, 0.0, 0.0]])  # not a flat vector


def test_hpoint_from_vector_normalizes():
    p = HPoint.from_vector([2.0, 0.0, 0.0])
    assert p.coords[0] == 1.0
    with pytest.raises(ValueError):
        HPoint.from_vector([0.0, 1.0, 0.0])  # spacelike
    with pytest.raises(ValueError):
        HPoint.from_vector([-2.0, 0.0, 0.0])  # lower sheet


def test_coords_are_read_only():
    p = HPoint.basepoint(3)
    with pytest.raises(ValueError):
        p.coords[0] = 5.0


def test_dist_examples():
    a = HPoint.basepoint(3)
    b = HPoint([math.cosh(1.0), math.sinh(1.0), 0.0])
    assert dist(a, a) == 0.0
    assert dist(a, b) == pytest.approx(1.0, abs=1e-14)
    c = HPoint([math.cosh(2.5), 0.0, math.sinh(2.5)])
    assert dist(a, c) == pytest.approx(2.5, abs=1e-13)


@given(hpoint_pairs())
def test_dist_symmetric_and_nonnegative(pair):
    a, b = pair
    assert dist(a, b) == dist(b, a)
    assert dist(a, b) >= 0.0


@given(hpoint_triples())
@example((lift([0.0, 1.0]), lift([1.5, 1e-8]), lift([1.5, 0.0])))
def test_triangle_inequality(triple):
    a, b, c = triple
    assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-10


@given(hpoint_pairs())
def test_chord_dist_matches_sinh_half(pair):
    a, b = pair
    d = dist(a, b)
    # the arccosh reference carries absolute noise ~eps*x0*y0/sinh(d), which
    # blows up near coincidence; gate with a matching floor on top of rel
    floor = 1e-13 * a.coords[0] * b.coords[0] / max(d, 1e-7)
    expected = 2.0 * math.sinh(d / 2.0)
    assert chord_dist(a, b) == pytest.approx(expected, rel=1e-9, abs=floor)


def test_chord_dist_resolves_tiny_separations():
    a = HPoint.basepoint(3)
    b = geodesic_point(a, HPoint([math.cosh(1), math.sinh(1), 0]), 1e-12)
    # the arccosh route cannot see 1e-12; the chord route can
    assert chord_dist(a, b) == pytest.approx(1e-12, rel=1e-3)


def test_geodesic_endpoints_and_midpoint():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = random_hpoint(rng, 3), random_hpoint(rng, 3)
        d = dist(a, b)
        if d < 1e-8:
            continue
        assert chord_dist(geodesic_point(a, b, 0.0), a) < 1e-12
        assert chord_dist(geodesic_point(a, b, d), b) < 1e-10
        mid = geodesic_point(a, b, d / 2)
        assert dist(a, mid) == pytest.approx(d / 2, abs=1e-10)
        assert dist(mid, b) == pytest.approx(d / 2, abs=1e-10)


def test_geodesic_extends_past_endpoints():
    a = HPoint.basepoint(3)
    b = HPoint([math.cosh(1.0), math.sinh(1.0), 0.0])
    behind = geodesic_point(a, b, -1.0)
    assert behind.coords[1] == pytest.approx(-math.sinh(1.0), abs=1e-14)
    beyond = geodesic_point(a, b, 3.0)
    assert dist(a, beyond) == pytest.approx(3.0, abs=1e-13)


def test_geodesic_coincident_points_rejected():
    a = HPoint.basepoint(3)
    with pytest.raises(ValueError):
        geodesic_point(a, a, 0.5)
    with pytest.raises(ValueError):
        unit_tangent(a, a)


def test_segment_defect():
    a = HPoint.basepoint(4)
    b = HPoint([math.cosh(2.0), math.sinh(2.0), 0.0, 0.0])
    on = geodesic_point(a, b, 0.7)
    off = HPoint([math.cosh(1.0), 0.0, math.sinh(1.0), 0.0])
    assert abs(segment_defect(on, a, b)) < 1e-12
    assert segment_defect(a, a, b) == 0.0
    assert segment_defect(off, a, b) > 0.1


def test_hyperplane_validation():
    Hyperplane([0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        Hyperplane([0.0, 2.0, 0.0])  # not unit
    with pytest.raises(ValueError):
        Hyperplane([2.0, 1.0, 0.0])  # timelike


def test_reflect_fixes_plane_points():
    h = Hyperplane([0.0, 0.0, 1.0])
    p = HPoint([math.cosh(1.3), math.sinh(1.3), 0.0])
    assert chord_dist(reflect(h, p), p) < 1e-15


def test_reflect_involution_and_isometry():
    rng = np.random.default_rng(1)
    for _ in range(100):
        h = random_hyperplane(rng, 3)
        a, b = random_hpoint(rng, 3), random_hpoint(rng, 3)
        assert chord_dist(reflect(h, reflect(h, a)), a) < 1e-10
        assert dist(reflect(h, a), reflect(h, b)) == pytest.approx(dist(a, b), abs=1e-10)


def test_hyperplane_through_basic_example():
    a = HPoint.basepoint(3)
    b = HPoint([math.cosh(1.0), math.sinh(1.0), 0.0])
    h = hyperplane_through([a, b])
    assert np.allclose(np.abs(h.normal), [0.0, 0.0, 1.0], atol=1e-12)
    assert abs(h.margin(a)) < 1e-12
    assert abs(h.margin(b)) < 1e-12


def test_hyperplane_through_rank_errors():
    a = HPoint.basepoint(3)
    b = HPoint([math.cosh(1.0), math.sinh(1.0), 0.0])
    with pytest.raises(ValueError):
        hyperplane_through([a, a])  # rank deficient
    c = HPoint([math.cosh(1.0), 0.0, math.sinh(1.0)])
    d = HPoint([math.cosh(1.0), 0.0, -math.sinh(1.0)])
    with pytest.raises(ValueError):
        hyperplane_through([a, b, c, d])  # overdetermined
    with pytest.raises(ValueError):
        hyperplane_through([], orthogonal_to=[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])  # timelike complement
    with pytest.raises(ValueError):
        hyperplane_through([])


def test_hyperplane_through_random_incidence():
    rng = np.random.default_rng(2)
    for _ in range(30):
        pts = [random_hpoint(rng, 4) for _ in range(4)]
        h = hyperplane_through(pts)
        for p in pts:
            assert abs(h.margin(p)) < 1e-10


def test_foot_of_perpendicular():
    rng = np.random.default_rng(3)
    for _ in range(100):
        h = random_hyperplane(rng, 3)
        p = random_hpoint(rng, 3)
        q = foot_of_perpendicular(h, p)
        assert abs(h.margin(q)) < 1e-12
        # the drop distance satisfies sinh d = |margin|
        assert math.sinh(dist(p, q)) == pytest.approx(abs(h.margin(p)), rel=1e-9, abs=1e-9)


def test_foot_is_nearest_plane_point():
    rng = np.random.default_rng(4)
    h = Hyperplane([0.0, 0.0, 0.0, 1.0])
    p = random_hpoint(rng, 3)
    q = foot_of_perpendicular(h, p)
    for _ in range(200):
        sp = rng.normal(0, 2, 3)
        other = lift([sp[0], sp[1], 0.0])
        assert dist(p, other) >= dist(p, q) - 1e-12


def test_angle_at_right_angle():
    p = HPoint.basepoint(3)
    a = HPoint([math.cosh(1.0), math.sinh(1.0), 0.0])
    b = HPoint([math.cosh(0.7), 0.0, math.sinh(0.7)])
    assert angle_at(p, a, b) == pytest.approx(math.pi / 2, abs=1e-12)
    assert angle_at(p, a, a) == 0.0
    # right-angle form of the law of cosines
    assert math.cosh(dist(a, b)) == pytest.approx(math.cosh(1.0) * math.cosh(0.7), rel=1e-12)


def test_angle_at_law_of_cosines():
    rng = np.random.default_rng(5)
    for _ in range(100):
        p, a, b = (random_hpoint(rng, 3) for _ in range(3))
        da, db, dab = dist(p, a), dist(p, b), dist(a, b)
        if min(da, db) < 1e-3:
            continue
        gamma = angle_at(p, a, b)
        lhs = math.cosh(dab)
        rhs = math.cosh(da) * math.cosh(db) - math.sinh(da) * math.sinh(db) * math.cos(gamma)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_tangent_part_projects():
    p = HPoint([math.cosh(1.0), math.sinh(1.0), 0.0])
    d = tangent_part(p.coords, np.array([5.0, 2.0, 1.0]))
    assert abs(mink_inner(d, d) - 1.0) < 1e-12
    assert abs(mink_inner(p.coords, d)) < 1e-12
    check_unit_tangent(p.coords, d)
    with pytest.raises(ValueError, match="no spacelike tangential component"):
        tangent_part(p.coords, p.coords)


@given(hpoint_pairs())
@settings(max_examples=50)
def test_unit_tangent_reaches_target(pair):
    a, b = pair
    d = dist(a, b)
    if d < 1e-6:
        return
    v = state_toward(a, b).direction
    reached = HPoint.from_vector(math.cosh(d) * a.coords + math.sinh(d) * v)
    assert chord_dist(reached, b) < 1e-9


def test_to_poincare_ball_examples():
    assert np.allclose(to_poincare_ball(HPoint.basepoint(3)), [0.0, 0.0])
    t = 1.8
    p = HPoint([math.cosh(t), math.sinh(t), 0.0])
    assert to_poincare_ball(p)[0] == pytest.approx(math.tanh(t / 2), abs=1e-14)


def test_to_poincare_ball_distance_roundtrip():
    # ball-model distance formula as an independent oracle for the chart
    rng = np.random.default_rng(6)
    for _ in range(200):
        a, b = random_hpoint(rng, 3), random_hpoint(rng, 3)
        u, v = to_poincare_ball(a), to_poincare_ball(b)
        assert np.linalg.norm(u) < 1.0 and np.linalg.norm(v) < 1.0
        cosh_d = 1 + 2 * np.sum((u - v) ** 2) / ((1 - u @ u) * (1 - v @ v))
        assert cosh_d == pytest.approx(math.cosh(dist(a, b)), rel=1e-9)


def _rowwise(x, ys):
    return np.array([mink_dot(x, y) for y in ys])


def test_mink_dots_matches_mink_dot_bitwise():
    """`mink_pairs` of one vector against a stack, either way round: numpy runs
    ``vecdot`` as one ``ddot`` per row; it does not document that routing, so pin it
    by bytes on fresh, read-only and column-sliced stacks."""
    rng = np.random.default_rng(7)
    for length in range(3, 131):
        x = rng.standard_normal(length)
        for k in (length - 1, length):
            fresh = rng.standard_normal((k, length))
            frozen = fresh.copy()
            frozen.setflags(write=False)
            wide = rng.standard_normal((k, length + 3))
            for ys in (fresh, frozen, wide[:, 2:2 + length], wide[:, :length]):
                ref = _rowwise(x, ys).tobytes()
                assert mink_pairs(x, ys).tobytes() == ref, (length, k)
                assert mink_pairs(ys, x).tobytes() == ref, (length, k)


@pytest.mark.parametrize("n", [*range(2, 20), 32, 64, 128])
def test_mink_dots_on_simplex_stacks_bitwise(n):
    s = build(n, 1.0)
    for ys in (s.vertex_coords, s.normal_coords):
        for x in (*s.vertex_coords, *s.normal_coords, s.center_coords[0]):
            assert mink_pairs(x, ys).tobytes() == _rowwise(x, ys).tobytes()


def test_mink_pairs_and_table_match_mink_dot_bitwise():
    """`mink_pairs` of two row-paired ``(k, L)`` stacks and the all-pairs table of
    ``(p, 1, L)`` against ``(1, q, L)``: numpy runs each ``vecdot`` as one ``ddot``
    per pair, undocumented, so pin it."""
    rng = np.random.default_rng(11)
    for length in range(3, 131):
        p = length - 1
        xs = rng.standard_normal((p, length))
        wide = rng.standard_normal((p, length + 3))
        for ys in (rng.standard_normal((p, length)), wide[:, 1:1 + length],
                   np.broadcast_to(xs[0], xs.shape)):
            ref = np.array([mink_dot(x, y) for x, y in zip(xs, ys)])
            assert mink_pairs(xs, ys).tobytes() == ref.tobytes(), length
            assert mink_pairs(ys, xs).tobytes() == ref.tobytes(), length
        ys = rng.standard_normal((length, length))
        ref = np.array([[mink_dot(x, y) for y in ys] for x in xs[:3]])
        assert mink_pairs(xs[:3, None], ys[None]).tobytes() == ref.tobytes(), length
        assert mink_pairs(ys[:, None], xs[None, :3]).tobytes() == ref.T.tobytes(), length


def _float(bits):
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


# NaN of both signs, and with a payload of both signs
_NANS = (math.nan, -math.nan, _float(0x7FF8000000000ABC), _float(0xFFF4000000000123))
# infinities, signed zeros, subnormals, the least normal and a square that overflows
_EXTREMES = (math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, -1e-310, 2.2250738585072014e-308,
             1e308)
_TAME = (0.0, -0.0, 5e-324, -5e-324, -1e-310)  # no NaN or infinity to meet another NaN


def _sprinkle(rng, row, values):
    hit = rng.random(row.shape) < 0.3
    row[hit] = rng.choice(values, hit.sum())


def _special_pairs(rng, k, length):
    """Row-paired ``(k, length)`` stacks holding every value above.  A pair with a NaN
    holds only that one, with tame values around it: where two NaNs meet in one
    product, which of them survives is not pinned."""
    xs, ys = rng.standard_normal((2, k, length))
    for i in range(k):
        if i % 3 == 1:
            _sprinkle(rng, xs[i], _EXTREMES)
            _sprinkle(rng, ys[i], _EXTREMES)
        elif i % 3 == 2:
            _sprinkle(rng, xs[i], _TAME)
            _sprinkle(rng, ys[i], _TAME)
            (xs, ys)[i % 2][i, rng.integers(length)] = _NANS[i % len(_NANS)]
    return xs, ys


def _layouts(xs, ys):
    """The same row pairs as C, Fortran, row-reversed and column-strided stacks."""
    yield xs, ys
    yield np.asfortranarray(xs), np.asfortranarray(ys)
    yield xs[::-1], ys[::-1]
    wide = np.zeros((2, len(xs), 2 * xs.shape[1]))
    wide[0, :, ::2], wide[1, :, ::2] = xs, ys
    yield wide[0, :, ::2], wide[1, :, ::2]


@pytest.mark.parametrize("length", [*range(3, 20), 33, 64, 129, 130])
def test_mink_products_match_mink_dot_bitwise_on_extreme_values(length):
    """`mink_pairs` against the per-row `mink_dot`, byte for byte, on NaN, infinities,
    signed zeros and subnormals, with no rows, one row and more, in C, Fortran,
    reversed, strided and broadcast stacks: row-paired stacks, one vector against a
    stack, and the table of ``(p, 1, L)`` against ``(1, q, L)``."""
    rng = np.random.default_rng(length)
    with np.errstate(all="ignore"):  # the extremes overflow and make NaN on purpose
        for k in sorted({0, 1, 2, length - 1, length}):
            pairs = _special_pairs(rng, k, length)
            tame = rng.standard_normal(length)
            _sprinkle(rng, tame, _TAME)
            for xs, ys in _layouts(*pairs):
                ref = np.array([mink_dot(x, y) for x, y in zip(xs, ys)], dtype=np.float64)
                assert mink_pairs(xs, ys).tobytes() == ref.tobytes(), (length, k)
                one = np.broadcast_to(tame, ys.shape)
                ref = np.array([mink_dot(tame, y) for y in ys], dtype=np.float64)
                assert mink_pairs(one, ys).tobytes() == ref.tobytes(), (length, k)
                assert mink_pairs(tame, ys).tobytes() == ref.tobytes(), (length, k)
                # every row of xs meets every row of a NaN-free, finite ys
                finite = np.where(np.isfinite(ys), ys, 0.5)
                table = np.array([[mink_dot(x, y) for y in finite] for x in xs],
                                 dtype=np.float64).reshape(k, k)
                got = mink_pairs(xs[:, None], finite[None])
                assert got.tobytes() == table.tobytes(), (length, k)
                got = mink_pairs(xs[:1, None], finite[None])
                assert got.tobytes() == table[:1].tobytes(), (length, k)
            for x in _NANS:  # a NaN in x meets a tame stack
                t = np.array(tame)
                t[k % length] = x
                clean = np.array([tame] * k).reshape(k, length)
                ref = np.array([mink_dot(t, y) for y in clean], dtype=np.float64)
                assert mink_pairs(t, clean).tobytes() == ref.tobytes(), (length, k)


@pytest.mark.parametrize("n", [*range(2, 13), 16, 32, 64, 128])
def test_mink_pairs_and_table_on_simplex_stacks_bitwise(n):
    s = build(n, 1.0)
    stacks = (s.vertex_coords, s.normal_coords, s.center_coords)
    for xs in stacks:
        for ys in stacks:
            ref = np.array([mink_dot(x, y) for x, y in zip(xs, ys)])
            assert mink_pairs(xs, ys).tobytes() == ref.tobytes()
            table = np.array([[mink_dot(x, y) for y in ys] for x in xs])
            assert mink_pairs(xs[:, None], ys[None]).tobytes() == table.tobytes()


def test_row_operations_match_point_operations_bitwise():
    rng = np.random.default_rng(12)
    for m in (3, 4, 9, 33, 130):
        a = np.array([random_hpoint(rng, m - 1).coords for _ in range(6)])
        b = np.array([random_hpoint(rng, m - 1).coords for _ in range(6)])
        b[1] = a[1]  # coincident: `dist` takes its chord route
        b[2] = HPoint.from_vector(a[2] + 1e-7 * b[2]).coords  # near: chord route
        normals = np.array([random_hyperplane(rng, m - 1).normal for _ in range(6)])
        pa, pb = [HPoint(x) for x in a], [HPoint(x) for x in b]
        d = dist_rows(a, b)
        assert d[1] == 0.0 and 0.0 < d[2] and -mink_dot(a[2], b[2]) < 1.0 + 1e-6
        assert d.tobytes() == np.array([dist(x, y) for x, y in zip(pa, pb)]).tobytes()
        assert chord_dist_rows(a, b).tobytes() == np.array(
            [chord_dist(x, y) for x, y in zip(pa, pb)]).tobytes()
        keep = [0, 2, 3, 4, 5]
        assert unit_tangent_rows(a[keep], b[keep]).tobytes() == np.array(
            [unit_tangent(pa[i], pb[i]) for i in keep]).tobytes()
        assert reflect_rows(normals, a).tobytes() == np.array(
            [reflect(Hyperplane(u), x).coords for u, x in zip(normals, pa)]).tobytes()
        w = 1.7 * a + 0.4 * b
        assert from_vector_rows(w, mink_pairs(w, w)).tobytes() == np.array(
            [HPoint.from_vector(x).coords for x in w]).tobytes()


@pytest.mark.parametrize("n,a", [(3, 1e-7), (8, 1e-8), (64, 1e-7), (8, 1.0)])
def test_dist_rows_on_broadcast_operands_bitwise(n, a):
    """`dist_rows` of a pair table and of one vertex against the stack, on broadcast
    operands, byte for byte against `dist_rows` on the gathered rows.  At a <= 1e-7
    every pair takes the chord route; at a = 1 only the diagonal does."""
    vc = build(n, a).vertex_coords
    i, j = np.indices((n + 1, n + 1)).reshape(2, -1)
    table = dist_rows(vc[:, None], vc[None])
    assert (table.diagonal() == 0.0).all()
    assert table.tobytes() == dist_rows(vc[i], vc[j]).tobytes()
    assert dist_rows(vc[1], vc).tobytes() == dist_rows(vc[[1] * (n + 1)], vc).tobytes()
    if a <= 1e-7:
        assert (-mink_pairs(vc[:, None], vc[None]) < 1.0 + 1e-6).all()


def test_row_checks_raise_the_point_errors():
    rng = np.random.default_rng(13)
    a = np.array([random_hpoint(rng, 3).coords for _ in range(4)])
    with pytest.raises(ValueError, match="points coincide; tangent direction undefined"):
        unit_tangent_rows(a, a[[0, 1, 1, 3]])
    bad = a.copy()
    bad[2, 0] *= 1.5
    with pytest.raises(ValueError) as rows_err:
        check_on_sheet_rows(bad)
    with pytest.raises(ValueError) as point_err:
        check_on_sheet(bad[2])
    assert str(rows_err.value) == str(point_err.value)
    with pytest.raises(ValueError, match="upper sheet"):
        check_on_sheet_rows(np.array([a[0], -a[1]]))
    spacelike = a.copy()
    spacelike[3, 0] = 0.0
    with pytest.raises(ValueError) as rows_err:
        from_vector_rows(spacelike, mink_pairs(spacelike, spacelike))
    with pytest.raises(ValueError) as point_err:
        to_sheet(spacelike[3])
    assert str(rows_err.value) == str(point_err.value)
    assert str(rows_err.value).startswith("cannot normalize non-timelike vector (<v,v> = ")
    with pytest.raises(ValueError, match="lower sheet"):
        lower = np.array([a[0], -a[1]])
        from_vector_rows(lower, mink_pairs(lower, lower))


def test_normal_row_check_raises_the_hyperplane_error():
    rng = np.random.default_rng(15)
    u = np.array([random_hyperplane(rng, 3).normal for _ in range(4)])
    check_unit_normal_rows(u)
    t = 1e7  # far from the basepoint the tolerance scales with u0^2
    check_unit_normal_rows(np.array([[t, math.sqrt(1.0 + t * t), 0.0, 0.0]]))
    bad = u.copy()
    bad[1] *= 1.01
    bad[3] *= 2.0
    with pytest.raises(ValueError) as rows_err:
        check_unit_normal_rows(bad)
    q = mink_inner(bad[1], bad[1])
    assert str(rows_err.value) == f"normal must be unit spacelike: <u,u> = {q!r}"
    with pytest.raises(ValueError) as point_err:
        Hyperplane(bad[1])
    assert str(point_err.value) == str(rows_err.value)


def test_infinite_or_overflowing_normal_is_not_unit_spacelike():
    """The normal check refuses what the sheet check refuses: an infinite entry, whose
    <u,u> and tolerance are both infinite, and a u0 whose square, the tolerance's scale,
    overflows (numpy's overflow warning silenced, as where warnings are not errors)."""
    with pytest.raises(ValueError, match=r"^normal must be unit spacelike: <u,u> = -inf$"):
        Hyperplane(np.array([np.inf, 0.0, 0.0]))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="normal must be unit spacelike"):
        check_unit_normal_rows(np.array([[1e200, 0.0, 0.0]]))


def test_nan_fails_every_point_check():
    """A NaN at any coordinate of a point, direction, normal or row fails its check:
    each check is written as ``not (value <= tol)``, which NaN leaves true."""
    x = np.array([math.cosh(0.5), math.sinh(0.5), 0.0])
    d = np.array([0.0, 0.0, 1.0])  # unit, tangent at x, and a unit normal
    check_unit_tangent(x, d)
    for i in range(3):
        bad_x, bad_d = x.copy(), d.copy()
        bad_x[i] = bad_d[i] = math.nan
        for check in (HPoint, check_on_sheet, lambda v: check_on_sheet_rows(np.array([x, v]))):
            with pytest.raises(ValueError, match=r"not on the unit hyperboloid: <x,x> = nan$"):
                check(bad_x)
        with pytest.raises(ValueError, match=r"unit spacelike: <v,v> = nan$"):
            check_unit_tangent(x, bad_d)
        with pytest.raises(ValueError, match=r"tangent to base point: <x,v> = nan$"):
            check_unit_tangent(bad_x, d)
        with pytest.raises(ValueError, match=r"normal must be unit spacelike: <u,u> = nan$"):
            check_unit_normal_rows(np.array([d, bad_d]))


# The numpy-scalar forms that `mink_dot`, `to_sheet` and `tangent_part` had
# before their timelike term became a Python float product.  The pins below
# rest on numpy's routing: a 1-D ``ndarray.dot`` and a 1-D ``@`` both call
# ``cblas_ddot``, so the spacelike sum is the same call either way, and the
# remaining product, sum and square root are single IEEE operations.
def _old_mink_dot(x, y):
    return float(-x[0] * y[0] + x[1:] @ y[1:])


def _old_to_sheet(w):
    return w / np.sqrt(-_old_mink_dot(w, w))


def _old_tangent_part(x, v):
    w = v + _old_mink_dot(x, v) * x
    return w / np.sqrt(_old_mink_dot(w, w))


def _bits(v) -> bytes:
    return np.asarray(v, dtype=np.float64).tobytes()


def test_scalar_path_matches_numpy_scalar_forms_bitwise():
    rng = np.random.default_rng(21)
    for length in range(2, 131):
        for _ in range(8):
            scale = 10.0 ** rng.uniform(-3.0, 3.0, size=length)
            x, y = scale * rng.standard_normal(length), rng.standard_normal(length)
            assert _bits(mink_dot(x, y)) == _bits(_old_mink_dot(x, y)), length
            w = x.copy()
            w[0] = math.sqrt(1.0 + x[1:] @ x[1:]) * rng.uniform(1.0, 3.0)
            assert _bits(to_sheet(w)) == _bits(_old_to_sheet(w)), length
            p = to_sheet(w)
            d = tangent_part(p, y)
            assert _bits(d) == _bits(_old_tangent_part(p, y)), length
            check_unit_tangent(p, d)


def test_scalar_path_signed_zeros_bitwise():
    zeros = (0.0, -0.0)
    for x0, y0, a, c in zip(*(np.array(np.meshgrid(zeros, (1.0, -1.0, *zeros), zeros,
                                                   (1.0, -1.0, *zeros))).reshape(4, -1))):
        for tail in ([0.0], [-0.0], [0.0, -0.0]):
            x, y = np.array([x0, a, *tail]), np.array([y0, c, *tail])
            assert _bits(mink_dot(x, y)) == _bits(_old_mink_dot(x, y)), (x, y)
            assert _bits(mink_dot(y, x)) == _bits(_old_mink_dot(y, x)), (x, y)
    # the one exception: numpy's ``.dot`` multiplies one-entry vectors as
    # scalars, so at length 2 a zero spacelike product keeps its sign, where
    # ``ddot`` adds it to a +0.0 start; every point of a simplex has n + 2 >= 3
    x, y = np.array([0.0, 0.0]), np.array([1.0, -1.0])
    assert (mink_dot(x, y), _old_mink_dot(x, y)) == (0.0, 0.0)
    assert _bits(mink_dot(x, y)) == _bits(-0.0) and _bits(_old_mink_dot(x, y)) == _bits(0.0)


def test_scalar_path_inf_and_nan_bitwise():
    """Where one operand of each scalar operation is NaN, or none is, the bytes match.

    Not pinned: a product or sum of two NaNs with different bits, such as
    ``-x0 * x0`` for a NaN x0.  Which of the two NaNs comes out depends on
    the order in which the compiler passed the operands, in numpy's build
    and in Python's, so both forms give a NaN but not always the same one.
    The `to_sheet` and `tangent_part` cases avoid such pairs: they differ
    from the old forms only in the scalar operations.
    """
    nan, inf = math.nan, math.inf

    def two_nans(a, b):
        return math.isnan(a) and math.isnan(b) and _bits(a) != _bits(b)

    specials = (0.0, -0.0, 1.5, -2.0, inf, -inf, nan, -nan)
    pinned = 0
    with np.errstate(invalid="ignore"):
        for x0, y0, a, c in zip(*(np.array(np.meshgrid(*[specials] * 4)).reshape(4, -1))):
            x, y = np.array([x0, a, 1.0]), np.array([y0, c, 2.0])
            old, new = _old_mink_dot(x, y), mink_dot(x, y)
            if two_nans(-x0, y0) or two_nans(-x0 * y0, float(x[1:] @ y[1:])):
                assert math.isnan(old) and math.isnan(new), (x, y)
            else:
                assert _bits(new) == _bits(old), (x, y)
                pinned += 1
    assert pinned > 0.6 * len(specials) ** 4
    with np.errstate(invalid="ignore"):
        for w in ([inf, 1.0, 2.0], [3.0, 1.0, nan], [3.0, -nan, 1.0], [inf, inf, 0.0]):
            w = np.array(w)
            assert _bits(to_sheet(w)) == _bits(_old_to_sheet(w)), w
        x = lift([0.3, -0.4]).coords
        for v in ([0.0, inf, 1.0], [0.0, 1.0, -inf], [1.0, 0.5, -inf]):
            v = np.array(v)
            assert _bits(tangent_part(x, v)) == _bits(_old_tangent_part(x, v)), v
