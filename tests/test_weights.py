"""Tests for the bounce-weight recurrence: root solving and closed-form profiles."""

import dataclasses
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from hypbilliards import weights as weights_mod
from hypbilliards.weights import (
    MAX_EDGE,
    MassSequence,
    build_sequence,
    eval_g,
    eval_h,
    forward_weights,
    pair_mass_constant,
    solve_theta,
    solve_y0,
)

CELLS = [(n, a) for n in range(2, 9) for a in (0.5, 1.0, 2.0)]
EPS = sys.float_info.epsilon

# frozen solver outputs for the (n=3, edge=1) cell, cross-checked once
# against an independent root finder and the forward recurrence
Y0_3_1 = 1.0399759609082369
ALPHA2_3_1 = 1.3246803928712716


def test_pair_mass_constant_values():
    assert pair_mass_constant(1, math.cosh(1.0)) == pytest.approx(
        2.0 * math.cosh(1.0), rel=1e-15
    )
    assert pair_mass_constant(3, math.cosh(1.0)) == pytest.approx(
        0.7552715289452023, abs=1e-15
    )
    # weights shrink with dimension, grow with edge
    assert pair_mass_constant(5, 2.0) < pair_mass_constant(3, 2.0)
    assert pair_mass_constant(3, 3.0) > pair_mass_constant(3, 2.0)


def test_pair_mass_constant_rejects_bad_arguments():
    with pytest.raises(ValueError):
        pair_mass_constant(0, 2.0)
    with pytest.raises(ValueError):
        pair_mass_constant(3, 0.5)


def test_eval_h_fixed_values():
    for n in (1, 2, 3, 8):
        assert eval_h(1.0, n) == 1.0
    assert eval_h(2.0, 1) == pytest.approx(0.8, rel=1e-15)


def test_eval_h_decreasing_and_decaying():
    for n in (2, 3, 6):
        xs = np.linspace(1.0, 8.0, 40)
        hs = [eval_h(float(x), n) for x in xs]
        assert all(a > b for a, b in zip(hs, hs[1:]))
        assert eval_h(1e6, n) < 2e-6


def test_eval_h_rejects_bad_arguments():
    with pytest.raises(ValueError):
        eval_h(0.0, 3)
    with pytest.raises(ValueError):
        eval_h(-1.0, 3)
    with pytest.raises(ValueError):
        eval_h(2.0, 0)


def test_eval_g_zero_and_slope_at_one():
    """g(1) = 0 and the one-sided slope at 1 is 1/cosh a - 1 < 0."""
    for n in (2, 3, 6):
        for a in (0.5, 1.0, 2.0):
            assert eval_g(1.0, n, a) == pytest.approx(0.0, abs=1e-15)
            eps = 1e-8
            slope = eval_g(1.0 + eps, n, a) / eps
            assert slope == pytest.approx(1.0 / math.cosh(a) - 1.0, rel=1e-4)
            assert slope < 0.0


def test_eval_g_rejects_bad_arguments():
    with pytest.raises(ValueError):
        eval_g(0.5, 3, 1.0)
    with pytest.raises(ValueError):
        eval_g(1.5, 1, 1.0)
    with pytest.raises(ValueError):
        eval_g(1.5, 3, 0.0)


def test_solve_y0_residuals_on_grid():
    for n, a in CELLS + [(3, 1e-4), (3, 10.0)]:
        y0 = solve_y0(n, a)
        assert 1.0 < y0 < 2.0
        assert abs(eval_g(y0, n, a)) < 1e-13


def test_solve_y0_frozen_regression():
    assert solve_y0(3, 1.0) == pytest.approx(Y0_3_1, abs=1e-14)


def test_solve_y0_tiny_edge_raises():
    # theta ~ 3e-10 at edge 1e-9 solves, though cosh(theta) rounds to 1; below
    # a ~ 3e-154, sinh^2(a/2)/cosh a is no longer a normal double
    assert solve_theta(3, 1e-9) == pytest.approx(1e-9 * math.sqrt(6.0 / 60.0), rel=1e-15)
    assert solve_y0(3, 1e-9) == 1.0
    with pytest.raises(ValueError, match="edge length 1e-200 is too short"):
        solve_y0(3, 1e-200)


@pytest.mark.parametrize("n,a", CELLS + [(3, 1e-5), (16, 1e-3), (128, 1.0), (128, 700.0)])
def test_sequence_profile_shape(n, a):
    seq = build_sequence(n, a)
    w = seq.weights
    assert w.shape == (n + 2,)
    assert w[0] == 0.0 and w[n + 1] == 0.0
    assert abs(w[1] - 1.0) < 1e-10 and abs(w[n] - 1.0) < 1e-10
    assert np.all(w[1:-1] > 0.0)
    # symmetric, bit for bit, and unimodal
    assert np.array_equal(w, w[::-1])
    mid = (n + 2) // 2
    assert np.all(np.diff(w[:mid]) > -1e-12)
    assert seq.multiplier > 2.0
    assert np.abs(seq.recurrence_residuals()).max() < 1e-10


def test_sequence_characteristic_root_identities():
    seq = build_sequence(4, 1.0)
    assert seq.multiplier == pytest.approx(2.0 * seq.root, rel=1e-15)
    assert seq.char_root + 1.0 / seq.char_root == pytest.approx(
        seq.multiplier, rel=1e-14
    )
    assert seq.char_root > 1.0


def test_sequence_frozen_regression():
    seq = build_sequence(3, 1.0)
    assert seq.root == pytest.approx(Y0_3_1, abs=1e-14)
    assert seq.multiplier == pytest.approx(2.0799519218164737, abs=1e-14)
    assert seq.char_root == pytest.approx(1.3255455658507282, abs=1e-13)
    assert seq.shift == pytest.approx(0.7552715289452023, abs=1e-14)
    assert seq.weight(2) == pytest.approx(ALPHA2_3_1, abs=1e-12)


@pytest.mark.parametrize("n,a", CELLS)
def test_forward_recurrence_reproduces_profile(n, a):
    seq = build_sequence(n, a)
    fw = forward_weights(seq.multiplier, seq.shift, n)
    assert np.abs(fw - seq.weights).max() < 1e-8


def test_two_dimensional_profile():
    """For n = 2 the profile is (0, 1, 1, 0) and the multiplier is 1 + shift."""
    for a in (0.5, 1.0, 2.0):
        seq = build_sequence(2, a)
        assert np.abs(seq.weights - np.array([0.0, 1.0, 1.0, 0.0])).max() < 1e-10
        assert seq.multiplier == pytest.approx(1.0 + seq.shift, abs=1e-10)


def test_build_sequence_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_sequence(1, 1.0)
    with pytest.raises(ValueError):
        build_sequence(3, -1.0)


def test_mass_sequence_validation_and_accessors():
    seq = build_sequence(3, 1.0)
    assert seq.weight(0) == 0.0
    assert seq.weight(4) == 0.0
    with pytest.raises(IndexError):
        seq.weight(5)
    with pytest.raises(IndexError):
        seq.weight(-1)
    with pytest.raises(ValueError):
        MassSequence(3, 1.0, seq.theta, np.zeros(4))
    assert not seq.weights.flags.writeable


def test_mass_sequence_reads_everything_off_theta():
    """A sequence holds n, the edge, theta and the weights; its other numbers are read
    off them by the expressions `build_sequence` used to store, bit for bit."""
    assert [f.name for f in dataclasses.fields(MassSequence)] == ["n", "edge", "theta", "weights"]
    for n in (2, 3, 8, 32, 128):
        for a in (1e-7, 0.01, 0.5, 1.0, 2.0, 20.0):
            seq = build_sequence(n, a)
            root = math.cosh(seq.theta)
            got = (seq.root, seq.multiplier, seq.char_root, seq.shift)
            want = (root, 2.0 * root, math.exp(seq.theta), pair_mass_constant(n, math.cosh(a)))
            assert list(map(float.hex, got)) == list(map(float.hex, want)), (n, a)


@pytest.mark.parametrize("edge", [math.nan, math.inf, -math.inf, 0.0])
def test_build_sequence_rejects_edges_before_solving(monkeypatch, edge):
    def never(*args):
        raise AssertionError("the Newton loop ran")

    monkeypatch.setattr(weights_mod, "_theta_equation", never)
    with pytest.raises(ValueError, match=f"need a positive finite edge length, got {edge!r}"):
        build_sequence(3, edge)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_build_sequence_edge_limits():
    with pytest.raises(ValueError, match=f"edge length 800.0 exceeds {MAX_EDGE!r}, where cosh"):
        build_sequence(3, 800.0)
    # sinh^2(a/2) underflows to 0 here; the check comes before any division
    with pytest.raises(ValueError, match="edge length 1e-200 is too short"):
        build_sequence(3, 1e-200)
    for n in (2, 3, 128):
        for a in (1e-150, MAX_EDGE):
            w = build_sequence(n, a).weights
            assert np.all(np.isfinite(w)) and np.all(w[1:-1] > 0.0)


@pytest.mark.parametrize("n", [2, 3, 8, 32, 128])
def test_euclidean_limit(n):
    """As a -> 0 the weights tend to j(N-j)/n, with an O(a^2) correction."""
    big = n + 1
    j = np.arange(big + 1)
    flat = j * (big - j) / n
    for a in (1e-2, 1e-3, 1e-6, 1e-9, 1e-12):
        w = build_sequence(n, a).weights
        err = np.max(np.abs(w - flat) / np.maximum(flat, 1.0))
        assert err <= a * a / 100.0 + 4.0 * EPS, (a, err)


ORACLE_DIMS = [2, 3, 8, 32, 128]
ORACLE_EDGES = np.geomspace(1e-12, 700.0, 31).tolist()


@pytest.fixture(scope="module")
def oracle():
    """The 50-digit `Oracle` of ``scripts/repin_audit.py``."""
    pytest.importorskip("mpmath")
    path = Path(__file__).resolve().parent.parent / "scripts" / "repin_audit.py"
    spec = importlib.util.spec_from_file_location("repin_audit", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Oracle


@pytest.mark.parametrize("n", ORACLE_DIMS)
def test_theta_and_weights_match_oracle(n, oracle):
    """theta to 2 ulp and every weight to 4 eps relative, against 50-digit mpmath,
    on a log grid of a in [1e-12, 700]."""
    for a in ORACLE_EDGES:
        exact = oracle(n, a)
        theta = solve_theta(n, a)
        assert abs(theta - exact.theta) <= 2 * math.ulp(theta), (a, theta)
        seq = build_sequence(n, a)
        for j in range(1, n + 1):
            w = exact.weights[j]
            assert abs(seq.weight(j) - w) <= 4 * EPS * w, (a, j)
        assert abs(eval_g(seq.root, n, a)) < 1e-13


@pytest.mark.parametrize("n,a", [(2, 1.0), (8, 1e-3), (128, 2.0), (3, 20.0)])
def test_sequence_holds_theta_itself(n, a):
    """theta is the solver's root, not the log of char_root, which would round it."""
    seq = build_sequence(n, a)
    assert seq.theta == solve_theta(n, a)
    assert seq.root == math.cosh(seq.theta) and seq.char_root == math.exp(seq.theta)
