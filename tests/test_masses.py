"""Tests for the hyperbolic center-of-mass calculus."""

import dataclasses
import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypbilliards.geometry import HPoint, chord_dist, dist, geodesic_point, mink_dot, reflect
from hypbilliards.masses import (
    PointMass,
    centroid_fold,
    combine_intrinsic,
    cyclic_folds,
    omit_one_folds,
    pair_folds,
    scale_masses,
)
from hypbilliards.orbit import construct_orbit
from hypbilliards.simplex import build
from hypbilliards.weights import build_sequence

from conftest import fold, hpoint_pairs, hpoint_triples, random_hpoint, random_hyperplane

weight = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)


def test_pointmass_rejects_bad_weights():
    p = random_hpoint(np.random.default_rng(0), 3)
    for w in (-1.0, -1e-300, math.inf, math.nan):
        with pytest.raises(ValueError):
            PointMass(p, w)
    assert PointMass(p, 0.0).weight == 0.0


def test_combine_same_location_adds_weights():
    p = random_hpoint(np.random.default_rng(1), 3)
    z = fold([PointMass(p, 2.0), PointMass(p, 3.5)])
    assert chord_dist(z.location, p) < 1e-14
    assert z.weight == pytest.approx(5.5, rel=1e-14)


def test_combine_zero_weight_returns_other():
    rng = np.random.default_rng(2)
    a, b = random_hpoint(rng, 3), random_hpoint(rng, 3)
    z = fold([PointMass(a, 0.0), PointMass(b, 1.25)])
    assert chord_dist(z.location, b) < 1e-12
    assert z.weight == pytest.approx(1.25, rel=1e-12)


def test_combine_equal_masses_meet_at_midpoint():
    """Equal weights balance at the geodesic midpoint with weight 2x cosh(d/2)."""
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = random_hpoint(rng, 4), random_hpoint(rng, 4)
        x = float(rng.uniform(0.1, 5.0))
        z = fold([PointMass(a, x), PointMass(b, x)])
        d = dist(a, b)
        mid = geodesic_point(a, b, 0.5 * d)
        assert chord_dist(z.location, mid) < 1e-10
        assert z.weight == pytest.approx(2.0 * x * math.cosh(0.5 * d), rel=1e-12)


def test_combine_satisfies_balance_equations():
    """The output sits where x sinh d(X,Z) = y sinh d(Y,Z) and carries the
    cosh-weighted total."""
    rng = np.random.default_rng(4)
    for _ in range(200):
        m = int(rng.integers(2, 6))
        a, b = random_hpoint(rng, m), random_hpoint(rng, m)
        x, y = rng.uniform(0.05, 20.0, 2)
        z = fold([PointMass(a, x), PointMass(b, y)])
        da, db = dist(a, z.location), dist(b, z.location)
        assert x * math.sinh(da) - y * math.sinh(db) == pytest.approx(
            0.0, abs=1e-9 * (x + y)
        )
        assert z.weight == pytest.approx(
            x * math.cosh(da) + y * math.cosh(db), rel=1e-10
        )
        # Z lies on the segment [A, B]
        assert da + db == pytest.approx(dist(a, b), abs=1e-8)


def test_combine_matches_intrinsic_bisection():
    rng = np.random.default_rng(5)
    worst_loc, worst_w = 0.0, 0.0
    for _ in range(300):
        m = int(rng.integers(2, 6))
        a, b = random_hpoint(rng, m), random_hpoint(rng, m)
        x, y = rng.uniform(0.05, 20.0, 2)
        u = fold([PointMass(a, x), PointMass(b, y)])
        v = combine_intrinsic(PointMass(a, x), PointMass(b, y))
        worst_loc = max(worst_loc, chord_dist(u.location, v.location))
        worst_w = max(worst_w, abs(u.weight - v.weight) / u.weight)
    assert worst_loc < 1e-10
    assert worst_w < 1e-12


def test_intrinsic_same_point_adds_weights():
    p = random_hpoint(np.random.default_rng(6), 3)
    z = combine_intrinsic(PointMass(p, 1.0), PointMass(p, 2.0))
    assert z.location is p
    assert z.weight == 3.0


def test_intrinsic_zero_weight_endpoints():
    rng = np.random.default_rng(7)
    a, b = random_hpoint(rng, 3), random_hpoint(rng, 3)
    assert combine_intrinsic(PointMass(a, 0.0), PointMass(b, 2.0)).location is b
    assert combine_intrinsic(PointMass(a, 2.0), PointMass(b, 0.0)).location is a


def test_zero_total_mass_raises():
    rng = np.random.default_rng(8)
    a, b = random_hpoint(rng, 3), random_hpoint(rng, 3)
    with pytest.raises(ValueError):
        fold([PointMass(a, 0.0), PointMass(b, 0.0)])
    with pytest.raises(ValueError):
        combine_intrinsic(PointMass(a, 0.0), PointMass(b, 0.0))


@settings(deadline=None)
@given(hpoint_pairs(), weight, weight)
def test_combine_commutative(pair, x, y):
    a, b = pair
    u = fold([PointMass(a, x), PointMass(b, y)])
    v = fold([PointMass(b, y), PointMass(a, x)])
    assert chord_dist(u.location, v.location) < 1e-10
    assert u.weight == pytest.approx(v.weight, rel=1e-12)


@settings(deadline=None)
@given(hpoint_triples(), weight, weight, weight)
def test_combine_associative(triple, x, y, z):
    a, b, c = triple
    pa, pb, pc = PointMass(a, x), PointMass(b, y), PointMass(c, z)
    u = fold([fold([pa, pb]), pc])
    v = fold([pa, fold([pb, pc])])
    assert chord_dist(u.location, v.location) < 1e-9
    assert u.weight == pytest.approx(v.weight, rel=1e-10)


def _random_masses(rng, k, m):
    return [
        PointMass(random_hpoint(rng, m), float(rng.uniform(0.1, 10.0)))
        for _ in range(k)
    ]


def test_fold_equals_pairwise_combination():
    rng = np.random.default_rng(9)
    for _ in range(20):
        items = _random_masses(rng, 5, 3)
        u = fold(items)
        v = reduce(lambda p, q: fold([p, q]), items)
        assert chord_dist(u.location, v.location) < 1e-11
        assert u.weight == pytest.approx(v.weight, rel=1e-12)


def test_fold_permutation_invariant():
    rng = np.random.default_rng(10)
    items = _random_masses(rng, 6, 4)
    u = fold(items)
    for _ in range(10):
        perm = rng.permutation(len(items))
        v = fold([items[i] for i in perm])
        assert chord_dist(u.location, v.location) < 1e-12
        assert u.weight == pytest.approx(v.weight, rel=1e-13)


def test_fold_singleton_and_zero_entries():
    rng = np.random.default_rng(11)
    items = _random_masses(rng, 4, 3)
    single = fold(items[:1])
    assert chord_dist(single.location, items[0].location) < 1e-14
    assert single.weight == pytest.approx(items[0].weight, rel=1e-14)
    # zero-weight entries leave the centroid untouched
    padded = items + [PointMass(random_hpoint(rng, 3), 0.0)]
    u, v = fold(items), fold(padded)
    assert chord_dist(u.location, v.location) < 1e-14
    assert u.weight == v.weight


def test_fold_empty_raises():
    with pytest.raises(ValueError):
        fold([])


def test_scaling_moves_weight_not_location():
    rng = np.random.default_rng(12)
    items = _random_masses(rng, 5, 3)
    u = fold(items)
    for factor in (0.25, 3.0, 1e4):
        v = fold(scale_masses(items, factor))
        assert chord_dist(u.location, v.location) < 1e-12
        assert v.weight == pytest.approx(factor * u.weight, rel=1e-12)


def test_scale_masses_invalid_factor_raises():
    items = _random_masses(np.random.default_rng(13), 2, 3)
    for factor in (0.0, -2.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            scale_masses(items, factor)


def test_combination_commutes_with_isometries():
    """Reflecting the inputs then combining equals combining then reflecting."""
    rng = np.random.default_rng(14)
    for _ in range(50):
        m = int(rng.integers(2, 6))
        h = random_hyperplane(rng, m)
        a, b = random_hpoint(rng, m), random_hpoint(rng, m)
        x, y = rng.uniform(0.1, 10.0, 2)
        direct = fold([PointMass(reflect(h, a), x), PointMass(reflect(h, b), y)])
        pushed = fold([PointMass(a, x), PointMass(b, y)])
        assert chord_dist(direct.location, reflect(h, pushed.location)) < 1e-9
        assert direct.weight == pytest.approx(pushed.weight, rel=1e-10)


def _loop_fold(w, x):
    """The sequential sum `centroid_fold` must reproduce bit for bit."""
    s = np.zeros(x.shape[1])
    for k in range(len(w)):
        s = s + w[k] * x[k]
    return s


@pytest.mark.parametrize("n", [*range(2, 20), 32, 64, 128])
def test_fold_matches_sequential_sum_bitwise(n):
    """numpy's axis-0 reduction order is undocumented; pin it on the stacks the package folds.

    Compared by bytes, so a -0.0 where the loop has 0.0 counts as a difference.
    """
    for a in (0.5, 1.0, 2.0, 7.3):
        s = build(n, a)
        seq = build_sequence(n, a)
        stacks = [(np.ones(n), np.delete(s.vertex_coords, j, axis=0)) for j in range(n + 1)]
        stacks += [(seq.weights[:-1], np.roll(s.vertex_coords, -j, axis=0)) for j in range(n + 1)]
        for w, x in stacks:
            got = centroid_fold(w, x)
            ref = _loop_fold(w, x)
            assert got.location.coords.tobytes() == HPoint.from_vector(ref).coords.tobytes()
            assert got.weight == math.sqrt(-mink_dot(ref, ref))


def test_fold_starts_from_positive_zero():
    """Like the loop, the sum starts at +0.0, so a column of -0.0 sums to +0.0."""
    w, x = np.array([1.0]), np.array([[1.0, -0.0, 0.0]])
    got = centroid_fold(w, x).location.coords
    assert got.tobytes() == HPoint.from_vector(_loop_fold(w, x)).coords.tobytes()
    assert math.copysign(1.0, got[1]) == 1.0


def _assert_rows_are_folds(got, folds):
    """Each row of a stacked fold against its own `centroid_fold`, by bytes."""
    x, z = got
    assert x.shape == (len(folds), folds[0][1].shape[1]) and z.shape == (len(folds),)
    for j, (w, coords) in enumerate(folds):
        ref = centroid_fold(w, coords)
        assert x[j].tobytes() == ref.location.coords.tobytes(), j
        assert z[j].tobytes() == np.float64(ref.weight).tobytes(), j


@pytest.mark.parametrize("n", [*range(2, 13), 16, 32, 64, 128])
def test_stacked_folds_match_centroid_fold_bitwise(n):
    """The rolled, omit-one and two-mass accumulations give row j the sum of fold j."""
    for a in (0.5, 1.0, 2.0, 7.3):
        s = build(n, a)
        vc, p = s.vertex_coords, n + 1
        w = build_sequence(n, a).weights[:-1]
        _assert_rows_are_folds(cyclic_folds(w, vc),
                               [(w, np.roll(vc, -j, axis=0)) for j in range(p)])
        for u in (np.ones(p), np.full(p, 0.731), w):
            _assert_rows_are_folds(omit_one_folds(u, vc),
                                   [(np.delete(u, j), np.delete(vc, j, axis=0)) for j in range(p)])
        wa, wb = np.roll(w, 1) + 0.5, np.roll(w, -1)
        ca, cb = np.roll(vc, 1, axis=0), s.center_coords
        _assert_rows_are_folds(pair_folds(wa, ca, wb, cb),
                               [((wa[j], wb[j]), np.array((ca[j], cb[j]))) for j in range(p)])


def test_stacked_folds_start_from_positive_zero():
    """Like `centroid_fold`, each row starts at +0.0, so a column of -0.0 sums to +0.0."""
    x = np.array([[1.0, -0.0, 0.0], [1.0, -0.0, 0.0], [1.0, -0.0, 0.0]])
    w = np.array([0.0, 1.0, 2.0])
    for got in (cyclic_folds(w, x), omit_one_folds(w + 1.0, x), pair_folds(w, x, w + 1.0, x)):
        assert got[0].tobytes() == np.tile(centroid_fold(w + 1.0, x).location.coords, (3, 1)).tobytes()
        assert all(math.copysign(1.0, v) == 1.0 for v in got[0][:, 1])


def test_stacked_folds_keep_the_fold_checks():
    vc = build(3, 1.0).vertex_coords
    for bad in (-1e-3, math.nan, math.inf):
        w = np.array([1.0, bad, 1.0, 1.0])
        for fold_all in (cyclic_folds, omit_one_folds):
            with pytest.raises(ValueError, match="weights must be finite and non-negative"):
                fold_all(w, vc)
        with pytest.raises(ValueError, match="weights must be finite and non-negative"):
            pair_folds(w, vc, np.ones(4), vc)
    with pytest.raises(ValueError, match="total mass is zero"):
        pair_folds(np.zeros(4), vc, np.zeros(4), vc)
    with pytest.raises(ValueError, match="need p weights"):
        omit_one_folds(np.ones(3), vc)


@pytest.mark.parametrize("n", [2, 3, 8, 32, 128])
def test_accumulate_is_sequential_row_by_row(n):
    """`omit_one_folds` takes its prefixes from ``np.add.accumulate`` along axis 0, whose
    order numpy does not document either: pin row i as the loop's sum after step i."""
    rng = np.random.default_rng(n)
    for a in (0.5, 2.0, 7.3):
        terms = build_sequence(n, a).weights[:-1, None] * build(n, a).vertex_coords
        wild = rng.normal(0.0, 1.0, terms.shape) * 10.0 ** rng.integers(-12, 12, terms.shape)
        wild[:, 1] = -0.0
        for x in (terms, wild, np.vstack((np.zeros(terms.shape[1]), terms[:-1]))):
            rows = [x[0]]
            for row in x[1:]:
                rows.append(rows[-1] + row)
            assert np.add.accumulate(x, axis=0).tobytes() == np.array(rows).tobytes()


def test_omit_one_folds_of_one_and_two_masses():
    vc = build(1, 1.0).vertex_coords
    with pytest.raises(ValueError, match="total mass is zero"):
        omit_one_folds(np.ones(1), vc[:1])
    w = np.array([0.7, 2.5])
    _assert_rows_are_folds(omit_one_folds(w, vc), [(w[1:], vc[1:]), (w[:1], vc[:1])])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_omit_one_folds_match_centroid_folds_on_random_stacks(data):
    """Weights with exact zeros of both signs and points with -0.0 columns, row by
    row against `centroid_fold` by bytes; a row with no mass left, or with too little
    to square, raises in both."""
    p, m = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 4))
    w = np.array(data.draw(st.lists(st.sampled_from([0.0, -0.0]) | st.floats(0.0, 1e3),
                                    min_size=p, max_size=p)))
    space = np.array(data.draw(st.lists(st.lists(st.floats(-20.0, 20.0), min_size=m, max_size=m),
                                        min_size=p, max_size=p)))
    space[:, data.draw(st.lists(st.booleans(), min_size=m, max_size=m))] = -0.0
    x = np.column_stack((np.sqrt(1.0 + (space * space).sum(axis=1)), space))
    folds = [(np.delete(w, j), np.delete(x, j, axis=0)) for j in range(p)]
    try:
        for fold_j in folds:
            centroid_fold(*fold_j)
    except ValueError as err:
        assert str(err).startswith("total mass is zero")
        with pytest.raises(ValueError, match="total mass is zero"):
            omit_one_folds(w, x)
    else:
        _assert_rows_are_folds(omit_one_folds(w, x), folds)


@pytest.mark.parametrize("bad", [-1e-3, math.nan])
def test_construct_orbit_rejects_bad_interior_weight(bad):
    seq = build_sequence(5, 1.0)
    w = seq.weights.copy()
    w[3] = bad
    with pytest.raises(ValueError, match="finite and non-negative"):
        construct_orbit(build(5, 1.0), dataclasses.replace(seq, weights=w))
