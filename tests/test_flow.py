"""Tests for the geodesic billiard-flow simulator."""

import ast
import functools
import math
import inspect
import os
import subprocess
import sys
import traceback
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

import flow_reference
import loop_reference
from conftest import facet_center, facet_plane, lift
from hypbilliards import flow as flow_mod
from hypbilliards import geometry
from hypbilliards.cli import _perturbed, main
from hypbilliards.flow import (
    GRAZE_TOL,
    FlowState,
    NonSmoothHitError,
    Trajectory,
    iterate,
    launch_state,
    next_collision,
    reflect_at,
    run_closure,
    closure_error,
    state_toward,
    step,
)
from hypbilliards.geometry import (FACET_TOL, HPoint, Region, check_tangent_products,
                                  check_unit_tangent, chord_dist, classify_margins, dist,
                                  geodesic_point, mink_dot, mink_pairs, reflect, tangent_part,
                                  unit_tangent)
from hypbilliards.orbit import BilliardOrbit, construct_orbit, orbit_edge_lengths
from hypbilliards.simplex import build, classify_point
from hypbilliards.weights import build_sequence


def make_orbit(n, a):
    s = build(n, a)
    return s, construct_orbit(s, build_sequence(n, a))


# Launches that fail, each as (simplex, state); the tests below and the cross-loop
# test share them.
def _outside_launch():
    """From the mirror image of the circumcenter across facet 0."""
    s = build(3, 1.0)
    return s, state_toward(reflect(facet_plane(s, 0), s.circumcenter), s.vertex(0))


def _outside_two_launch():
    """From a point outside facets 1 and 2, facet 2 the further."""
    s = build(3, 1.0)
    e = s.vertex_coords[:, 1:] / np.linalg.norm(s.vertex_coords[0, 1:])
    return s, state_toward(lift(-2.0 * e[1] - 3.0 * e[2]), s.circumcenter)


def _off_slice_launch():
    """1e-8 off the simplex slice."""
    s, eps = build(3, 1.0), 1e-8
    x = HPoint(np.array([math.sqrt(1.0 + eps * eps), eps, 0.0, 0.0, 0.0]))
    return s, FlowState(x, np.array([0.0, 0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0))


def _far_launch(a, frac):
    """At n = 2, from ``frac`` of the way from the circumcenter to vertex 0 toward
    facet 0's center."""
    s = build(2, a)
    c, v = s.circumcenter, s.vertex(0)
    return s, state_toward(geodesic_point(c, v, frac * dist(c, v)), facet_center(s, 0))


def _corner_launch():
    """From the circumcenter straight at vertex 0."""
    s = build(3, 1.0)
    return s, state_toward(s.circumcenter, s.vertex(0))


def _second_bounce_corner_launch():
    """At the mirror image of vertex 0 across facet 0: off facet 0, then into vertex 0."""
    s = build(3, 1.0)
    return s, state_toward(s.circumcenter, reflect(facet_plane(s, 0), s.vertex(0)))


def _leaving_launch(n):
    """At facet 0's center, leaving the simplex through it: no forward crossing."""
    s = build(n, 1.0)
    w, arrive = _arrival_at_facet_center(s, 0)[:2]
    return s, FlowState(HPoint(w), arrive)


def test_next_hit_unit_cases():
    # facet 1 is always a clean crossing at t = 0.9, so each case shows
    # whether facet 0's crossing is taken or skipped
    t1 = math.tanh(0.9)

    def hit0(mu, nu):
        k, t = next_collision([mu, t1], [nu, -1.0])
        return k == 0, t

    # stationary (nu = 0) or receding: no hit
    assert hit0(0.5, 0.0) == (False, pytest.approx(0.9, rel=1e-12))
    assert not hit0(0.5, 0.3)[0]
    # margin too large to ever cross: asymptotic approach
    for mu, nu in ((1.0, -0.5), (2.0, -2.0)):
        assert not hit0(mu, nu)[0]
        with pytest.raises(ValueError, match="no forward facet crossing"):
            next_collision([mu, 0.5], [nu, 0.0])
    # clean crossing at t = atanh(mu) for nu = -1
    took, t = hit0(math.tanh(0.7), -1.0)
    assert took and t == pytest.approx(0.7, rel=1e-12)
    # no floor: a state 1e-12 inside a facet and moving out of it hits that facet at once
    took, t = hit0(1e-12, -1.0)
    assert took and t == pytest.approx(1e-12, rel=1e-9)
    # sitting exactly on the facet and leaving: not a forward hit
    assert not hit0(0.0, -1.0)[0]
    assert not hit0(-1e-12, -1.0)[0]


def test_next_hit_tie_goes_to_lower_index():
    mu = math.tanh(0.4)
    assert next_collision([0.9, mu, mu], [0.0, -1.0, -1.0])[0] == 1
    assert next_collision([mu, mu], [-1.0, -1.0])[0] == 0


def test_iterate_names_first_facet_outside():
    """A start with two margins below -FACET_TOL is rejected on entry, naming the
    first of them, not the most negative."""
    s, st = _outside_two_launch()
    mus = classify_point(s, st.position.coords)[2]
    assert mus[0] > 0.0 and mus[3] > 0.0 and mus[2] < mus[1] < -FACET_TOL
    with pytest.raises(ValueError) as exc:
        iterate(s, st, 1)
    assert str(exc.value) == f"state is outside the simplex (margin {mus[1]} at facet 1)"


def test_next_collision_center_to_facet_center():
    s = build(3, 1.0)
    w = facet_center(s, 2)
    tr = iterate(s, state_toward(s.circumcenter, w), 1)
    assert tr.facets.tolist() == [2]
    assert chord_dist(HPoint(tr.points[0]), w) < 1e-12
    assert tr.arclengths[0] == pytest.approx(dist(s.circumcenter, w), rel=1e-12)
    region, facet, margins = classify_point(s, tr.points[0])
    assert (region, facet) == (Region.FACET_INTERIOR, 2)
    assert abs(margins[2]) < 1e-12 and min(margins[:2] + margins[3:]) > 1e-3


def test_next_collision_rejects_outside_state():
    s, st = _outside_launch()
    assert classify_point(s, st.position.coords)[0] is Region.OUTSIDE
    with pytest.raises(ValueError, match="state is outside the simplex"):
        iterate(s, st, 1)


def _arrival_at_facet_center(s, j):
    """Facet j's center, the direction arriving there along the geodesic from the
    circumcenter, and the margins of both against every facet."""
    w = facet_center(s, j)
    t = dist(s.circumcenter, w)
    x, v = s.circumcenter.coords, state_toward(s.circumcenter, w).direction
    arrive = tangent_part(w.coords, math.sinh(t) * x + math.cosh(t) * v)
    normals = s.normal_coords
    return w.coords, arrive, mink_pairs(w.coords, normals), mink_pairs(arrive, normals)


def _gram(s):
    """The normals' timelike coordinate p and off-diagonal Gram entry beta."""
    p = s.normal_coords[0, 0]
    return p, -p * p - (1.0 + p * p) / s.n


def test_reflect_at_matches_the_ambient_mirror():
    """Margins and v0 mirrored by `reflect_at` are those of the ambient d - 2<d,u>u."""
    for n in (2, 3, 8):
        s = build(n, 1.0)
        p, beta = _gram(s)
        st = state_toward(s.circumcenter, geodesic_point(s.circumcenter, facet_center(s, 1), 0.5))
        d, u = st.direction, s.normal_coords[1]
        nu, v0 = reflect_at(mink_pairs(d, s.normal_coords), d[0], 1, p, beta)
        image = d - 2.0 * mink_dot(d, u) * u
        assert np.abs(nu - mink_pairs(image, s.normal_coords)).max() < 1e-14
        assert abs(v0 - image[0]) < 1e-14


def test_reflect_at_involution():
    s = build(3, 1.0)
    p, beta = _gram(s)
    x, arrive, mus, nus = _arrival_at_facet_center(s, 0)
    before = nus.copy()
    out, out0 = reflect_at(nus, arrive[0], 0, p, beta)
    assert nus.tobytes() == before.tobytes()  # the input is not mirrored in place
    back, back0 = reflect_at(out, out0, 0, p, beta)
    assert np.abs(back - nus).max() < 1e-12 and abs(back0 - arrive[0]) < 1e-12
    # the perpendicular arrival just reverses
    assert np.abs(out + nus).max() < 1e-9 and abs(out0 + arrive[0]) < 1e-9


def test_reflect_at_rejects_bad_input():
    s = build(3, 1.0)
    p, beta = _gram(s)
    x = _arrival_at_facet_center(s, 0)[0]
    # direction inside the facet plane: grazing
    inside = state_toward(HPoint(x), s.vertex(1)).direction
    with pytest.raises(NonSmoothHitError, match="grazing incidence at facet 0"):
        reflect_at(mink_pairs(inside, s.normal_coords), inside[0], 0, p, beta)


def test_flow_retraces_constructed_orbit():
    s, orb = make_orbit(3, 1.0)
    st = launch_state(orb)
    assert classify_point(s, st.position.coords)[1] == 0
    tr = iterate(s, st, 4)
    assert tr.facets.tolist() == [1, 2, 3, 0]
    for i, x in enumerate(tr.points):
        assert chord_dist(HPoint(x), orb.point(i + 1)) < 1e-9
    assert np.abs(tr.arclengths - orbit_edge_lengths(orb)).max() < 1e-9
    assert chord_dist(tr.final_state.position, orb.point(0)) < 1e-12
    assert tr.max_drift < 1e-12
    assert tr.total_length == pytest.approx(float(orbit_edge_lengths(orb).sum()), rel=1e-9)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_closure_error_small_on_grid(n, a):
    s, orb = make_orbit(n, a)
    assert closure_error(s, orb) < 1e-8


def test_closure_multiple_periods():
    s, orb = make_orbit(3, 1.0)
    r = run_closure(s, orb, periods=3)
    assert len(r.trajectory) == 12
    assert r.trajectory.facets.tolist() == [1, 2, 3, 0] * 3
    assert r.error < 1e-10
    assert r.error == max(r.position_error, r.direction_error)


def test_perturbed_launch_does_not_close():
    """Aiming 0.01 past the first bounce point breaks closure by orders more."""
    s, orb = make_orbit(3, 1.0)
    target = geodesic_point(orb.point(1), orb.point(2), 0.01)
    st = state_toward(orb.point(0), target)
    tr = iterate(s, st, 4)
    assert chord_dist(tr.final_state.position, orb.point(0)) > 1e-3


def test_corner_shot_raises_non_smooth():
    s, st = _corner_launch()
    with pytest.raises(NonSmoothHitError) as exc:
        iterate(s, st, 10)
    assert exc.value.step == 0


def test_long_run_keeps_invariants():
    """A chaotic 1000-bounce run must preserve the hyperboloid and tangency
    invariants and the consistency of its margin coordinates to rounding accuracy."""
    s, orb = make_orbit(3, 1.0)
    target = geodesic_point(orb.point(1), orb.point(2), 0.3)
    st = state_toward(orb.point(0), target)
    tr = iterate(s, st, 1000)
    assert len(tr) == 1000
    assert tr.max_drift < 1e-8
    assert all(t > 0.0 for t in tr.arclengths)


def test_iterate_zero_and_negative_steps():
    s, orb = make_orbit(2, 1.0)
    st = launch_state(orb)
    tr = iterate(s, st, 0)
    assert isinstance(tr, Trajectory)
    assert len(tr) == 0 and tr.max_drift == 0.0
    assert tr.final_state is st
    with pytest.raises(ValueError):
        iterate(s, st, -1)


def test_flow_state_validation():
    s = build(2, 1.0)
    good = state_toward(s.circumcenter, s.vertex(0))
    with pytest.raises(ValueError):
        FlowState(good.position, 2.0 * good.direction)
    unit_but_not_tangent = np.array([0.0, 1.0, 0.0, 0.0])
    assert abs(s.vertex(0).coords[1]) > 0.1  # so <x, v> is clearly nonzero
    with pytest.raises(ValueError):
        FlowState(s.vertex(0), unit_but_not_tangent)
    assert not good.direction.flags.writeable


def test_flow_state_checks_shape_and_unit_tangent():
    p = HPoint.basepoint(3)
    FlowState(p, [0.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="unit spacelike"):
        FlowState(p, [0.0, 2.0, 0.0])
    with pytest.raises(ValueError, match="tangent to base point"):
        FlowState(p, [1.0, math.sqrt(2.0), 0.0])
    for wrong in ([0.0, 1.0], [[0.0, 1.0, 0.0]]):
        with pytest.raises(ValueError, match="direction dimension does not match base point"):
            FlowState(p, wrong)


@pytest.mark.parametrize("a,frac", [(20.0, 0.99), (30.0, 0.5)])
def test_flow_state_accepts_far_states(a, frac):
    """A state normalized by the program itself, far from the circumcenter, is a
    valid state: <v,v> and <x,v> there cancel terms of size x0^2, so their
    rounding error exceeds a fixed tolerance such as 1e-10."""
    s = build(2, a)
    c = s.circumcenter
    p = geodesic_point(c, s.vertex(0), frac * dist(c, s.vertex(0)))
    assert p.coords[0] > 900.0
    d = tangent_part(p.coords, unit_tangent(p, facet_center(s, 0)))
    state = FlowState(p, d)
    assert state.direction.tobytes() == d.tobytes()


def test_flow_state_rejects_nan():
    """Every comparison with NaN is false, so each check is written to fail on it."""
    s = build(2, 1.0)
    good = state_toward(s.circumcenter, s.vertex(0))
    for i in range(s.ambient_dim):
        d = good.direction.copy()
        d[i] = math.nan
        with pytest.raises(ValueError, match=r"unit spacelike: <v,v> = nan"):
            FlowState(good.position, d)
    # a unit direction whose product with the base point is nan: a finite
    # direction cannot meet a finite point that way, so build the product
    with pytest.raises(ValueError, match=r"tangent to base point: <x,v> = nan"):
        check_tangent_products(1.0, math.nan, 1.0, 0.0)


@pytest.mark.parametrize("x0", [1e200, math.inf])
def test_non_finite_points_fail_the_point_checks(x0):
    """Where x0^2 overflows, the scaled tolerance REP_TOL * x0^2 is infinite, so it
    must not admit the vector; neither may an infinite coordinate."""
    with pytest.raises(ValueError, match=r"not on the unit hyperboloid: <x,x> = -inf"):
        HPoint([x0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match=r"unit spacelike: <v,v> = -inf"):
        check_unit_tangent(HPoint.basepoint(4).coords, np.array([x0, 0.0, 1.0, 0.0]))
    d = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    with pytest.raises(ValueError, match=r"tangent to base point: <x,v> = nan"):
        check_unit_tangent(np.array([math.inf, 0.0, 0.0, 0.0]), d)


def test_step_returns_bounce_record():
    s, orb = make_orbit(2, 0.5)
    one = step(s, launch_state(orb))
    assert len(one) == 1
    assert classify_point(s, one.final_state.position.coords)[1] == one.facets[0]
    assert type(one.max_drift) is float and one.max_drift < 1e-12
    assert chord_dist(HPoint(one.points[0]), orb.point(1)) < 1e-10


def test_off_slice_state_raises():
    """A state 1e-8 off the simplex slice is caught on entry: the margins cannot see it."""
    with pytest.raises(ValueError, match="left the simplex slice"):
        iterate(*_off_slice_launch(), 3)


def test_vertex_on_second_bounce_raises_with_step_one():
    """Aimed at the mirror image of vertex 0 across facet 0, the flow bounces
    off facet 0 and then runs straight into vertex 0."""
    s, st = _second_bounce_corner_launch()
    assert iterate(s, st, 1).facets.tolist() == [0]
    with pytest.raises(NonSmoothHitError) as exc:
        iterate(s, st, 5)
    assert exc.value.step == 1


# The list loop runs simplices of up to SWITCH facets, the array loop larger ones:
# n = SWITCH - 1 is the last simplex on the list loop, n = SWITCH the first on arrays.
SWITCH = flow_mod._LIST_LOOP_MAX_FACETS
SIDES = [(3, True), (SWITCH - 1, True), (SWITCH, False)]  # (n, bounced on lists)


def test_step_equals_one_bounce_of_iterate_bitwise():
    for n, listed in SIDES:
        s, orb = make_orbit(n, 1.0)
        target = geodesic_point(orb.point(1), orb.point(2), 0.3)
        st = state_toward(orb.point(0), target)
        one = step(s, st)
        tr = iterate(s, st, 1)
        assert one.facets.tobytes() == tr.facets.tobytes()
        assert one.arclengths.tobytes() == tr.arclengths.tobytes()
        assert one.max_drift.hex() == tr.max_drift.hex()
        assert one.points.tobytes() == tr.points.tobytes()
        nxt, fin = one.final_state, tr.final_state
        assert nxt.position.coords.tobytes() == fin.position.coords.tobytes()
        assert nxt.direction.tobytes() == fin.direction.tobytes()
        assert classify_point(s, fin.position.coords)[1] == one.facets[0]
        direct = flow_mod._loop(s, st, 1, listed)
        assert direct.points.tobytes() == one.points.tobytes()
        assert direct.final_state.direction.tobytes() == nxt.direction.tobytes()


@pytest.mark.parametrize("a,frac,message", [
    (20.0, 0.99, "bounce 0: margins disagree with the timelike coordinate (defect "),
    (30.0, 0.5, "bounce 0: direction must be tangent to base point: <x,v> = "),
])
def test_loop_errors_name_their_bounce(a, frac, message):
    """Far launches at n = 2, from part of the way from the circumcenter to vertex 0
    toward facet 0's center, fail a check inside the loop; the message names the
    bounce once."""
    with pytest.raises(ValueError) as exc:
        iterate(*_far_launch(a, frac), 5)
    assert str(exc.value).startswith(message) and str(exc.value).count("bounce") == 1


def test_loop_runs_the_named_layers(monkeypatch):
    """Each bounce of `iterate` is one call each of the `flow` module's `next_collision`
    and `reflect_at` bindings, on either kind of loop, so wrapping them by name sees every
    bounce; the loop itself makes no Minkowski product per bounce, a run asks for its
    generated loop once, and an arrival inside its facet is told by the direct test,
    with no call of `classify_margins`."""
    for n, listed in SIDES:
        s, orb = make_orbit(n, 1.0)
        target = geodesic_point(orb.point(1), orb.point(2), 0.3)
        st = state_toward(orb.point(0), target)
        plain = iterate(s, st, 20)
        calls = Counter()
        with monkeypatch.context() as patch:
            for name in ("next_collision", "reflect_at", "mink_dot", "mink_pairs", "_generated",
                         "classify_margins"):
                def counted(*args, _fn=getattr(flow_mod, name), _name=name):
                    calls[_name] += 1
                    return _fn(*args)
                patch.setattr(flow_mod, name, counted)
            wrapped = iterate(s, st, 20)
        assert calls == {"next_collision": 20, "reflect_at": 20, "mink_dot": 2, "mink_pairs": 2,
                         "_generated": 1}
        for field in ("facets", "points", "arclengths"):
            assert getattr(wrapped, field).tobytes() == getattr(plain, field).tobytes()
        assert wrapped.max_drift.hex() == plain.max_drift.hex()
        fin, ref = wrapped.final_state, plain.final_state
        assert fin.position.coords.tobytes() == ref.position.coords.tobytes()
        assert fin.direction.tobytes() == ref.direction.tobytes()


EPS = sys.float_info.epsilon


@pytest.mark.parametrize("n", sorted({*range(2, 13), SWITCH - 1, SWITCH}))
def test_list_and_array_loops_agree(n):
    """From a perturbed launch both loops bounce off the same first 50 facets, and
    both measure small drift.  Their sums round differently (`math.fsum` against
    ddot), and the flow is chaotic: at n = 2 and 3 that ulp parts the points by more
    than 1e-12 after 26 to 46 bounces, so the points are compared on the first 20."""
    s, orb = make_orbit(n, 1.0)
    st = _perturbed(launch_state(orb), s, 0.3, 7, 0)
    lst, arr = (flow_mod._loop(s, st, 50, listed) for listed in (True, False))
    assert lst.facets.tolist() == arr.facets.tolist()
    assert np.abs(lst.points[:20] - arr.points[:20]).max() < 1e-12
    assert lst.max_drift <= 16 * EPS and arr.max_drift <= 16 * EPS


ERROR_LAUNCHES = {
    "outside": _outside_launch,
    "outside-two-facets": _outside_two_launch,
    "off-slice": _off_slice_launch,
    "far-2-20": lambda: _far_launch(20.0, 0.99),
    "far-2-30": lambda: _far_launch(30.0, 0.5),
    "lower-boundary": _corner_launch,
    "lower-boundary-bounce-1": _second_bounce_corner_launch,
    "no-forward-crossing-2": lambda: _leaving_launch(2),
    "no-forward-crossing-3": lambda: _leaving_launch(3),
}


def _loop_failures(s, st, steps=5):
    """The exception type, message and `NonSmoothHitError.step` of each loop on a launch."""
    out = []
    for listed in (True, False):
        with pytest.raises((ValueError, NonSmoothHitError)) as exc:
            flow_mod._loop(s, st, steps, listed)
        out.append((type(exc.value), str(exc.value), getattr(exc.value, "step", None)))
    return out


@pytest.mark.parametrize("name", sorted(ERROR_LAUNCHES))
def test_both_loops_fail_error_launches_alike(name):
    """Same type, message and step, also in a longer run; a loop error names its
    bounce once, an entry error none."""
    launch = ERROR_LAUNCHES[name]()
    lst, arr = _loop_failures(*launch)
    assert lst == arr
    assert _loop_failures(*launch, 100) == [lst, arr]
    assert lst[1].count("bounce") == (name not in {"outside", "outside-two-facets", "off-slice"})
    if name.startswith("lower-boundary"):  # the two corner launches
        assert lst[1] == f"bounce {lst[2]}: hit the lower-boundary region of the boundary"


def test_both_loops_fail_a_grazing_hit_alike():
    """The grazing check reads the normal component, so both mirrors of the same
    margins raise the same message.  In a run, that component is what is left of a
    tilt of 1e-11 off facet 1's plane, and its last digits are rounding, which the
    two loops make differently."""
    s = build(3, 1.0)
    p, beta = _gram(s)
    w = _arrival_at_facet_center(s, 0)[0]
    inside = state_toward(HPoint(w), s.vertex(1)).direction
    nus = mink_pairs(inside, s.normal_coords)
    texts = []
    for nu in (nus, nus.tolist()):
        with pytest.raises(NonSmoothHitError) as exc:
            reflect_at(nu, inside[0], 0, p, beta)
        texts.append(str(exc.value))
    assert texts[0] == texts[1] and texts[0].startswith("grazing incidence at facet 0")

    lst, arr = _loop_failures(*_grazing_launch())
    head = "bounce 0: grazing incidence at facet 1 (normal component "
    assert lst[0] is arr[0] is NonSmoothHitError and lst[2] == arr[2] == 0
    assert lst[1].startswith(head) and arr[1].startswith(head)
    assert lst[1].count("bounce") == arr[1].count("bounce") == 1
    got, want = (float(m[1][len(head):-1]) for m in (lst, arr))
    assert got == pytest.approx(-1e-11, rel=1e-5) and got == pytest.approx(want, rel=1e-5)


@pytest.mark.parametrize("start", ["1e200,0,0,0", "inf,0,0,0", "nan,0,0,0", "1,nan,0,0"])
def test_both_loops_reject_non_finite_start_coords_alike(capsys, monkeypatch, start):
    """A non-finite start fails the point check before either loop runs."""
    seen = []
    for switch in (SWITCH, 0):  # n = 2: the list loop, then the array loop
        monkeypatch.setattr(flow_mod, "_LIST_LOOP_MAX_FACETS", switch)
        code = main(["simulate", "--dim", "2", "--edge", "1", "--steps", "2",
                     "--start-coords", start, "--dir-coords", "0,1,-1,0"])
        seen.append((code, capsys.readouterr()))
    assert seen[0] == seen[1] and seen[0][0] == 2
    assert seen[0][1].err.startswith("error: not on the unit hyperboloid: <x,x> = ")


def test_list_sums_where_fsum_raises(monkeypatch):
    """`math.fsum` raises on inf - inf (ValueError) and on an overflowing partial sum
    (OverflowError), where ddot returns nan and inf.  A product of the list loop takes
    ddot's value there, without a warning that ``-W error::RuntimeWarning`` would raise,
    so the check it feeds fails on that value under every filter, as on the reference
    loop: here the <x,v> check of a bounce at n = 2 and a = 5 with two margins of 0.6 or
    more, whose mirror is replaced by margins of opposite infinities, or by two margins
    whose products with those of the point are each 0.55 of the largest double.

    The loop's plain sums, fsum(mu) and fsum(nu), cannot raise: by the rounding bound
    of the `flow` module docstring each margin is below 3 sqrt(max float) after a
    bounce (at entry at most n+2 times sqrt(max float)), and a flight scales it by at
    most cosh t + sinh t with tanh t < 1 a double, so a sum of at most SWITCH such
    terms stays finite."""
    s, launch, steps = _perturbed_launch(2, 5.0)
    m, point = next((i, row[0]) for i, row in enumerate(_list_rows(s, launch, steps)[0])
                    if i >= 3 and sorted(row[0])[-2] >= 0.6)  # a bounce and its point's margins
    big = [0.0] * len(point)
    for j in sorted(range(len(point)), key=point.__getitem__)[-2:]:
        big[j] = 0.55 * sys.float_info.max / point[j]
    plain = flow_mod.fsum
    for nu, raised, shown in (([math.inf, -math.inf, -1.0], ValueError, "nan"),
                              (big, OverflowError, "inf")):
        run, calls = _run_with_mirror_replaced(monkeypatch, s, launch, steps, m, nu, 0.0)
        seen = []

        def watched(values):
            try:
                return plain(values)
            except (OverflowError, ValueError) as exc:
                seen.append(type(exc))
                raise

        monkeypatch.setattr(flow_mod, "fsum", watched)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _outcome(run)
            assert seen == [raised] and calls[0] == m + 1
            reference = functools.partial(loop_reference.reference_loop, listed=True)
            assert _outcome(lambda: run(reference)) == got
        assert got == (ValueError, f"bounce {m}: direction must be tangent to base point: "
                                   f"<x,v> = {shown}", None)
    t = math.atanh(math.nextafter(1.0, 0.0))
    term = (math.cosh(t) + math.sinh(t)) * (SWITCH + 1) * math.sqrt(sys.float_info.max)
    assert math.isfinite(math.fsum([term] * SWITCH)) and math.fsum([term, -term]) == 0.0


@pytest.mark.parametrize("big", [3, SWITCH, SWITCH + 1, 129])
def test_list_kernels_are_their_array_twins_elementwise(big, monkeypatch):
    """On random margins of N = ``big`` entries, each list kernel of the reference loop
    gives its array twin's elementwise result bit for bit: the scaling, the tangent step,
    and the flight with its projection once the list sums go through ddot as the array
    sums do.  The generated loops make the reference loop's bits on each kind
    (`test_generated_loop_is_the_reference_loop`), so the list and array forms of the
    generated loop, whose steps are those kernels' operations statement for statement,
    differ only in their sums."""
    rng = np.random.default_rng(big)
    p, alpha, nb, x0, v0, c = rng.uniform(0.1, 2.0, 6).tolist()
    ch, sh = math.cosh(t := rng.uniform(0.0, 3.0)), math.sinh(t)
    mu, nu = rng.standard_normal(big), rng.standard_normal(big)
    lists = loop_reference.list_kernels(big, p, alpha, -nb)
    arrays = loop_reference.array_kernels(big, p, alpha, -nb)

    def same(got, want):
        assert np.array(got).tobytes() == np.array(want).tobytes()

    same(lists.scaled(mu.tolist(), c), arrays.scaled(mu.copy(), c))
    same(lists.tangent(nu.tolist(), mu.tolist(), c), arrays.tangent(nu.copy(), mu, c))
    monkeypatch.setattr(flow_mod, "fsum", lambda a: float(np.dot(a, np.ones(big))))
    got = lists.flight(mu.tolist(), nu.tolist(), ch, sh, x0, v0)
    want = arrays.flight(mu, nu, ch, sh, x0, v0)
    assert len(got) == len(want) == 4
    for g, w in zip(got, want):
        same(g, w)


_KERNEL_SPECIALS = [0.0, -0.0, 5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan]


def _launch_at(n):
    """A perturbed launch along the orbit at a = 1; n = 1 has no orbit to launch along,
    so there the launch runs from the circumcenter at vertex 0, the facet opposite vertex 1."""
    if n == 1:
        s = build(1, 1.0)
        return s, state_toward(s.circumcenter, s.vertex(0))
    s, start = _orbit_launch(n, 1.0)
    return s, _perturbed(start, s, 0.3, 7, 0)


@pytest.mark.parametrize("big", [*range(2, SWITCH + 2), 129])
def test_generated_list_kernels_are_the_comprehension_kernels_bitwise(big, monkeypatch):
    """The generated list loop for N = ``big`` makes the bits of the reference loop on the
    comprehension kernels (`loop_reference.list_kernels`), or raises what it raises,
    under an error filter for every warning: on a perturbed launch, and on runs whose
    mirror at bounce 3 is replaced by margins of random entries mixed with signed zeros,
    the smallest subnormal, +-1e308, infinities and NaN, and a v0 drawn the same way."""
    rng = np.random.default_rng(1000 + big)
    s, launch = _launch_at(big - 1)
    generated = functools.partial(flow_mod._loop, listed=True)
    reference = functools.partial(loop_reference.reference_loop, listed=True)

    def scalar():
        return float(rng.choice(_KERNEL_SPECIALS)) if rng.random() < 0.2 else float(rng.normal())

    def vector():
        v = rng.standard_normal(big)
        mixed = rng.random(big) < 0.2
        v[mixed] = rng.choice(_KERNEL_SPECIALS, mixed.sum())
        return v.tolist()

    outcomes = Counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(lambda: generated(s, launch, 200))
        assert got == _outcome(lambda: reference(s, launch, 200)) and len(got) == 6
        for _ in range(30):
            run, calls = _run_with_mirror_replaced(monkeypatch, s, launch, 10, 3, vector(), scalar())
            got = _outcome(lambda: run(generated))
            assert got == _outcome(lambda: run(reference))
            outcomes[got[1].split(" = ")[0] if len(got) == 3 else "ran"] += 1
    assert outcomes["bounce 3: direction must be tangent to base point: <x,v>"] >= 20


def test_list_kernels_are_generated_on_first_use_once_per_width(monkeypatch):
    """Importing the CLI generates no loop.  Two runs at one N share one code object,
    compiled once, and so do two runs on arrays at different N: one array loop serves
    every N."""
    path = os.pathsep.join(filter(None, [str(Path(flow_mod.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    probe = ("import hypbilliards.cli, hypbilliards.flow as f; "
             "print(f._generated.cache_info().currsize)")
    done = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and done.stdout == "0\n", done.stderr
    compiled, codes, plain = [], [], flow_mod._generated
    monkeypatch.setattr(flow_mod, "compile", lambda *args: compiled.append(args[1]) or compile(*args),
                        raising=False)

    def generated(big):
        codes.append(plain(big).__code__)
        return plain(big)

    monkeypatch.setattr(flow_mod, "_generated", generated)
    plain.cache_clear()
    for (n, a), listed in (((4, 1.0), True), ((4, 2.0), True), ((12, 1.0), False), ((20, 1.0), False)):
        s, launch = _orbit_launch(n, a)
        assert len(flow_mod._loop(s, launch, 3, listed)) == 3
    assert compiled == ["<flow loop, N = 5>", "<flow loop, arrays>"]
    assert codes[0] is codes[1] and codes[2] is codes[3] and codes[0] is not codes[2]


@pytest.mark.parametrize("listed", [True, False], ids=["lists", "arrays"])
def test_a_loop_error_shows_the_statement_that_raised_it(listed):
    """The generated loops' sources are registered in `linecache`, so the traceback of a
    corner hit shows the generated line that raised it, and `inspect.getsource` gives
    the loop's source."""
    s, launch = _corner_launch()
    with pytest.raises(NonSmoothHitError) as exc:
        flow_mod._loop(s, launch, 5, listed)
    text = "".join(traceback.format_exception(exc.type, exc.value, exc.tb))
    name = "<flow loop, N = 4>" if listed else "<flow loop, arrays>"
    assert f'File "{name}", line ' in text
    assert 'raise NonSmoothHitError(f"hit the {region.value} region of the boundary")' in text
    loop = flow_mod._generated(4 if listed else None)
    assert inspect.getsource(loop) == flow_mod._loop_source(4, listed)


def test_each_loop_check_and_message_is_written_once():
    """The generated loops expand one template, so every check and message of the loop
    and the bounce wrapping appear once in `flow`'s source, and in each kind's loop once
    or, for a check that kind proves instead of making, not at all."""
    source = Path(flow_mod.__file__).read_text()
    messages = ["margins disagree with the timelike coordinate", "cannot normalize non-timelike",
                "timelike vector points into the lower sheet", "region of the boundary",
                "disagrees with classification", "no spacelike tangential component",
                "except NonSmoothHitError as err:", "check_sheet_products(",
                "check_tangency_product(", "check_tangent_products("]
    for text in messages:
        assert source.count(text) == 1, text
    for listed, skipped in ((True, ("check_sheet_products(", "check_tangent_products(")),
                            (False, ("check_tangency_product(",))):
        code = flow_mod._loop_source(5, listed)
        for text in messages:
            assert code.count(text) == (text not in skipped), (listed, text)


# The arrival test of the generated loop, as the template writes it.
ARRIVAL = next(line.strip()[len("if not "):-1] for line in flow_mod._LOOP_TEMPLATE.splitlines()
               if "FACET_TOL <=" in line)
_ARRIVAL_CODE = compile(ARRIVAL, "<arrival test>", "eval")
_TOL = FACET_TOL
_MARGIN = hs.one_of(
    hs.sampled_from([_TOL, -_TOL, math.nextafter(_TOL, 1.0), math.nextafter(_TOL, 0.0),
                     math.nextafter(-_TOL, 0.0), math.nextafter(-_TOL, -1.0), 0.0, -0.0,
                     math.inf, -math.inf, math.nan, 2 * _TOL, 1.0]),
    hs.floats(-3 * _TOL, 3 * _TOL), hs.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=250, deadline=None)
@given(hs.one_of(hs.integers(2, 13), hs.just(129)).flatmap(
    lambda big: hs.lists(_MARGIN, min_size=big, max_size=big)))
def test_the_direct_arrival_test_agrees_with_classify_margins(mus):
    """For every facet k, the template's arrival test passes only where `classify_margins`
    puts the point in the relative interior of facet k, and fails there only where the
    first margin other than k's is a NaN, which `min` does not skip.  The loop hands a
    failed test to `classify_margins`, which decides, so the loop's verdict is its verdict
    on every list of margins, with ties, signed zeros, infinities and NaN."""
    assert ARRIVAL == "-FACET_TOL <= mus[k] <= FACET_TOL < min(mus[:k] + mus[k + 1:])"
    verdict = classify_margins(mus)
    for k in range(len(mus)):
        direct = eval(_ARRIVAL_CODE, {"FACET_TOL": FACET_TOL}, {"mus": mus, "k": k})
        inside = verdict == (Region.FACET_INTERIOR, k)
        assert not direct or inside, (k, mus)
        if inside and not direct:
            assert math.isnan((mus[:k] + mus[k + 1:])[0]), (k, mus)


def _grazing_launch():
    """At n = 8, from facet 1's center along the facet toward vertex 0, tilted 1e-11 out
    of the facet's plane."""
    s = build(8, 1.0)
    w = facet_center(s, 1)
    along = state_toward(w, s.vertex(0)).direction
    out = state_toward(w, reflect(facet_plane(s, 1), s.circumcenter)).direction
    return s, FlowState(w, tangent_part(w.coords, along + 1e-11 * out))


# The launches on which the generated loop and the reference loop of the same kind are
# compared, and for each a bounce count.
REFERENCE_LAUNCHES = {**{name: (launch, 100) for name, launch in ERROR_LAUNCHES.items()},
                      "grazing": (_grazing_launch, 100),
                      **{f"perturbed-{n}": (functools.partial(_launch_at, n), 300 if n < 16 else 100)
                         for n in [*range(1, 14), 16, 32, 64, 128]}}


def _fsum_raising_on_products(plain, raised):
    """`fsum` that raises on one product's call a bounce, the list loop calling it eight
    times a bounce (the flight's two sums, then six products): each of the six products
    in turn, with OverflowError for six bounces and then ValueError for six.  Each raise
    is noted in ``raised`` as (call of its bounce, exception)."""
    calls = [0]

    def fsum(values):
        c = calls[0]
        calls[0] += 1
        bounce, slot = divmod(c, 8)
        if slot == 2 + bounce % 6:
            raised.append((slot, kind := bounce // 6 % 2))
            raise (OverflowError, ValueError)[kind]("injected")
        return plain(values)

    return fsum


@pytest.mark.parametrize("name,listed,fsum_raises", [
    *(pytest.param(name, listed, False, id=f"{name}-{kind}") for name in sorted(REFERENCE_LAUNCHES)
      for listed, kind in ((True, "lists"), (False, "arrays"))),
    *(pytest.param(name, True, True, id=f"{name}-lists-fsum-raises") for name in sorted(REFERENCE_LAUNCHES)
      if name.startswith("perturbed"))])
def test_generated_loop_is_the_reference_loop(monkeypatch, name, listed, fsum_raises):
    """The generated loop and the reference loop of the same kind (`loop_reference`, the
    loop body on kernel closures that the generated loops replace) make the same bits,
    or raise the same type and message at the same bounce: on every failing launch, a
    grazing hit and perturbed launches at n = 1..13, 16, 32, 64 and 128, on lists at any
    N.  With ``fsum_raises``, `flow.fsum` is rebound to raise on one product a bounce,
    which drives each product's ddot fallback in both list loops."""
    make, steps = REFERENCE_LAUNCHES[name]
    s, launch = make()
    outcomes, raised = [], []
    for loop in (flow_mod._loop, loop_reference.reference_loop):
        if fsum_raises:
            monkeypatch.setattr(flow_mod, "fsum", _fsum_raising_on_products(math.fsum, raised))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            outcomes.append(_outcome(lambda: loop(s, launch, steps, listed)))
    assert outcomes[0] == outcomes[1]
    if fsum_raises:
        assert len(raised) % 2 == 0 and raised[:len(raised) // 2] == raised[len(raised) // 2:]
        assert len(set(raised)) == 12 or len(outcomes[0]) != 6, raised
    if name in ERROR_LAUNCHES:
        assert len(outcomes[0]) == 3


def _outcome(run):
    """The (type, message, step) of what ``run()`` raises, or the bytes of its run."""
    try:
        tr = run()
    except (ValueError, ArithmeticError, NonSmoothHitError) as exc:
        return type(exc), str(exc), getattr(exc, "step", None)
    fin = tr.final_state
    return (*(a.tobytes() for a in (tr.facets, tr.points, tr.arclengths)), tr.max_drift.hex(),
            fin.position.coords.tobytes(), fin.direction.tobytes())


@functools.lru_cache(maxsize=None)
def _orbit_launch(n, a):
    s, orb = make_orbit(n, a)
    return s, launch_state(orb)


def _list_rows(s, launch, steps):
    """Per bounce of a list-loop run, as far as a next bounce starts: the scaled point's
    margins, which the next bounce hands to `next_collision`, x0 and v0 before the mirror,
    the mirrored direction's margins and v0, and the <x,v> product that the loop checks,
    read through the `flow` module bindings that the loop calls by name.  With the
    reference list kernels' `inner` of the simplex, whose products the generated list
    loop makes bit for bit."""
    mirror, rows = [], []
    collide, reflect, tangency = (flow_mod.next_collision, flow_mod.reflect_at,
                                  flow_mod.check_tangency_product)

    def collided(mus, nus):
        if rows and rows[-1][0] is None:
            rows[-1][0] = mus
        return collide(mus, nus)

    def reflected(nu, v0, *args):
        mirror[:] = [v0, *reflect(nu, v0, *args)]
        return tuple(mirror[1:])

    def checked(t, x0, d0):
        rows.append([None, x0, mirror[0], mirror[1], d0, t])
        tangency(t, x0, d0)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flow_mod, "next_collision", collided)
        patch.setattr(flow_mod, "reflect_at", reflected)
        patch.setattr(flow_mod, "check_tangency_product", checked)
        try:
            iterate(s, launch, steps)
        except (ValueError, NonSmoothHitError):
            pass
    big, (p, alpha, beta) = s.n + 1, flow_mod._gram(s)
    return [r for r in rows if r[0] is not None], loop_reference.list_kernels(big, p, alpha, big * beta).inner


def _check_residuals(s, launch, steps):
    """The residuals of a run's checks, three a bounce in the loop's order (sheet,
    <v,v>, <x,v>), each over its tolerance's scale, so that a check fails where its
    residual is above REP_TOL.  The list loop makes only the <x,v> check; there the
    other two are the products the checks would take, on the values the loop made."""
    if s.n + 1 <= SWITCH:
        rows, inner = _list_rows(s, launch, steps)
        return [r for mu, x0, _, nu, v0, t in rows for r in (
            abs(inner(mu, mu, x0, x0) + 1.0) / max(1.0, x0 * x0),
            abs(inner(nu, nu, v0, v0) - 1.0) / max(1.0, v0 * v0),
            abs(t) / max(1.0, abs(x0 * v0)))]
    seen = []

    def sheet(q, x0):
        seen.append(abs(q + 1.0) / max(1.0, x0 * x0))

    def tangent(q, t, x0, d0):
        seen.extend((abs(q - 1.0) / max(1.0, d0 * d0), abs(t) / max(1.0, abs(x0 * d0))))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flow_mod, "check_sheet_products", sheet)
        patch.setattr(flow_mod, "check_tangent_products", tangent)
        iterate(s, launch, steps)
    return seen


def _failing_mid_run(s, launch, steps, kind):
    """The bounce m >= 3 of the first check of ``kind`` (0 sheet, 1 <v,v>, 2 <x,v>) whose
    residual is above every earlier one of any kind by 1% or more, and a REP_TOL between
    the two, under which that check is the first of the run to fail; None if no check
    of ``kind`` stands out of the run."""
    seen = _check_residuals(s, launch, steps)
    for j in range(9 + kind, len(seen), 3):
        before = max(seen[:j])
        if seen[j] >= 1.01 * before:
            return j // 3, math.sqrt(before * seen[j]) if before else seen[j] / 2.0
    return None


def _perturbed_launch(n=3, a=1.0, seed=7):
    """A simplex, a perturbed launch along its orbit and a bounce count."""
    s, start = _orbit_launch(n, a)
    return s, _perturbed(start, s, 0.3, seed, 0), 100


@pytest.mark.parametrize("kind,message", [(0, "not on the unit hyperboloid: <x,x> = "),
                                          (1, "direction must be "),
                                          (2, "direction must be tangent to base point: ")])
def test_a_failed_check_is_reported_ahead_of_a_later_loop_error(monkeypatch, kind, message):
    """With REP_TOL lowered so that a check mid-run fails, the run stops at that check's
    bounce with its error, ahead of a loop error three bounces later.  The sheet and
    <v,v> checks fail on the array loop (N = 13), since the list loop proves them
    (module docstring); the <x,v> check fails on the list loop at n = 2 and a = 20,
    where it stands out of the other residuals.  The launch is the first, from seed 7
    on, on whose run a check of ``kind`` stands out."""
    for seed in range(7, 57):
        s, launch, steps = _perturbed_launch(*((2, 20.0) if kind == 2 else (SWITCH,)), seed=seed)
        if found := _failing_mid_run(s, launch, steps, kind):
            break
    else:
        raise AssertionError("no check stands out of the runs from seeds 7..56")
    m, tol = found
    calls, plain = [0], flow_mod.next_collision

    def failing(*args):
        calls[0] += 1
        if calls[0] == m + 4:
            raise ValueError("injected")
        return plain(*args)

    def run():
        calls[0] = 0
        return iterate(s, launch, steps)

    monkeypatch.setattr(flow_mod, "next_collision", failing)
    monkeypatch.setattr(geometry, "REP_TOL", tol)
    got = _outcome(run)
    assert got[0] is ValueError and got[2] is None and calls[0] == m + 1
    assert got[1].startswith(f"bounce {m}: {message}")
    assert ("<v,v>" in got[1]) == (kind == 1) and got[1].count("bounce") == 1
    monkeypatch.setattr(geometry, "REP_TOL", 1e-12)
    assert _outcome(run) == (ValueError, f"bounce {m + 3}: injected", None)


def _corner_run(n):
    """At dimension n, from the circumcenter toward the mirror image of vertex 0 across
    facet 0: the flow bounces off facet 0 and then runs into vertex 0.  The launch and
    the sheet residuals of its two bounces, each over its tolerance's scale."""
    s = build(n, 1.0)
    launch = state_toward(s.circumcenter, reflect(facet_plane(s, 0), s.vertex(0)))
    seen, plain = [], flow_mod.check_sheet_products

    def sheet(q, x0):
        seen.append(abs(q + 1.0) / max(1.0, x0 * x0))
        plain(q, x0)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flow_mod, "check_sheet_products", sheet)
        with pytest.raises(NonSmoothHitError):
            iterate(s, launch, 5)
    return s, launch, seen


def test_a_failed_sheet_check_wins_over_its_bounce_classification(monkeypatch):
    """Where the sheet check and the classification of the same bounce both fail, the
    sheet check comes first in the bounce, so its error is reported.  On the array loop
    (N >= 13), the list loop making no sheet check, at the first dimension whose corner
    run (`_corner_run`) has a sheet residual at the corner above the one before it."""
    s, launch, seen = next(run for run in map(_corner_run, range(SWITCH, SWITCH + 8))
                           if run[2][1] > run[2][0])
    m, tol = 1, math.sqrt(seen[0] * seen[1]) if seen[0] else seen[1] / 2.0

    def run():
        return iterate(s, launch, 5)

    hit = (NonSmoothHitError, f"bounce {m}: hit the lower-boundary region of the boundary", m)
    assert _outcome(run) == hit
    monkeypatch.setattr(geometry, "REP_TOL", tol)
    got = _outcome(run)
    assert got[0] is ValueError and got[1].startswith(f"bounce {m}: not on the unit hyperboloid")


def _run_with_mirror_replaced(monkeypatch, s, launch, steps, m, nu, v0):
    """A run of ``steps`` bounces on ``loop`` (`iterate` unless given) whose mirror at
    bounce m returns ``nu`` and ``v0``, and the count of mirrors that the latest such
    run made."""
    calls, plain = [0], reflect_at  # the module's own, also where a replacement is bound

    def replaced(*args):
        calls[0] += 1
        return (list(nu), v0) if calls[0] == m + 1 else plain(*args)

    def run(loop=iterate):
        calls[0] = 0
        return loop(s, launch, steps)

    monkeypatch.setattr(flow_mod, "reflect_at", replaced)
    return run, calls


def test_a_flight_sum_that_raises_reports_the_pending_check(monkeypatch):
    """A direction of two margins near the largest double at bounce m would overflow
    the next flight's fsum of its margins.  The <x,v> check of bounce m fails first, on
    a product near 4e307, so no fsum raises and no flight sums those margins."""
    m = 10
    run, calls = _run_with_mirror_replaced(monkeypatch, *_perturbed_launch(), m,
                                           [1e308, 1e308, -1e3, -1e3], 0.0)
    raised, plain = [], flow_mod.fsum

    def watched(values):
        try:
            return plain(values)
        except (OverflowError, ValueError) as exc:
            raised.append(type(exc))
            raise

    monkeypatch.setattr(flow_mod, "fsum", watched)
    got = _outcome(run)
    assert raised == [] and calls[0] == m + 1
    head = f"bounce {m}: direction must be tangent to base point: <x,v> = "
    assert got[0] is ValueError and got[1].startswith(head) and got[2] is None
    assert float(got[1][len(head):]) > 1e307


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_rows_raise_no_runtime_warning(monkeypatch, bad):
    """A run whose mirror gives a non-finite direction fails the <x,v> check of that
    bounce, with the value the check sees, under an error filter for RuntimeWarning:
    fsum takes a NaN or an infinity without raising, so no numpy step runs."""
    s, launch, steps = _perturbed_launch()
    run = _run_with_mirror_replaced(monkeypatch, s, launch, steps, 10,
                                    [bad, 0.5, -1.0, -1.0], 0.0)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _outcome(run)
    head = "bounce 10: direction must be tangent to base point: <x,v> = "
    assert got[0] is ValueError and got[1].startswith(head) and got[2] is None
    assert not math.isfinite(float(got[1][len(head):]))


@settings(max_examples=60, deadline=None)
@given(hs.integers(2, SWITCH - 1), hs.floats(0.01, 40.0), hs.floats(0.05, 1.5),
       hs.integers(0, 2 ** 16))
def test_list_loop_products_stay_within_the_rounding_bound(n, a, eps, seed):
    """The list loop makes neither its sheet check nor the <v,v> half of its tangent
    check; the module docstring bounds them instead, to first order in u = 2^-53:
    |<x,x> + 1| <= 30 u max(1, x0^2) after the scaling, and |<v,v> - 1| <=
    (150 + 30 sqrt(N)) u V^2 after the mirror, V the largest of 1 and |v0| before and
    after it.  The products the checks would take, from the reference list kernels'
    `inner` (the loop's products, bit for bit) on the values the loop made, stay within both on runs from perturbed launches at
    the circumcenter.  The Gram entries obey the bounds the proof takes from the
    dihedral angle.  (Measured over 3000-bounce runs at n = 2..11 and a = 0.01..40,
    the two products reach 0.30 and 0.07 of these bounds, 1.0e-3 and 2.7e-3 of
    REP_TOL.)"""
    s, big, u = build(n, a), n + 1, 2.0 ** -53
    p, alpha, beta = flow_mod._gram(s)
    slack = 1.0 + 8 * u
    assert p * p * (n * n - 1) <= slack and -beta * (n - 1) <= slack
    assert 1.0 <= alpha <= 2.0 * slack and -big * beta / alpha <= big / n * slack
    start = state_toward(s.circumcenter, facet_center(s, seed % big))
    rows, inner = _list_rows(s, _perturbed(start, s, eps, seed, None), 300)
    assert rows
    for mu, x0, pre, nu, v0, _ in rows:
        assert abs(inner(mu, mu, x0, x0) + 1.0) <= 30 * u * max(1.0, x0 * x0)
        vmax = max(1.0, abs(pre), abs(v0))
        assert abs(inner(nu, nu, v0, v0) - 1.0) <= (150 + 30 * math.sqrt(big)) * u * vmax ** 2


@settings(max_examples=60, deadline=None)
@given(hs.integers(2, 13), hs.floats(0.05, 20.0), hs.floats(0.05, 1.5), hs.integers(0, 2 ** 16))
def test_no_flight_ends_on_the_facet_it_left(n, a, eps, seed):
    """`next_collision` takes only facets with nu < 0, and the mirror leaves the facet
    it mirrors at with nu above `GRAZE_TOL`, so no flight ends on the facet it
    started from: consecutive facets differ, and the first is not the launch facet.
    Runs of 200 bounces from P_0 of the orbit, perturbed and checked against facet 0
    as `simulate` does, on both kinds of loop (n = 2..13 spans SWITCH - 1 and SWITCH)."""
    s, orb = make_orbit(n, a)
    start = launch_state(orb)
    assert classify_point(s, start.position.coords)[1] == 0
    try:
        launch = _perturbed(start, s, eps, seed, 0)
    except ValueError:  # turned out of facet 0: `simulate` rejects it too
        assume(False)
    mirrored, plain = [], flow_mod.reflect_at

    def watched(nu, v0, k, *args):  # asserts at the mirror, ahead of any loop check
        out = plain(nu, v0, k, *args)
        mirrored.append(out[0][k])
        assert mirrored[-1] > GRAZE_TOL, (len(mirrored) - 1, k, mirrored[-1])
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flow_mod, "reflect_at", watched)
        tr = iterate(s, launch, 200)
    assert len(mirrored) == len(tr) == 200
    facets = [0, *tr.facets.tolist()]
    assert all(f != g for f, g in zip(facets, facets[1:]))


@pytest.mark.parametrize("n", [3, 8, 32, 128])
def test_margin_loop_follows_the_ambient_loop(n):
    """From a perturbed launch, the margin loop and the ambient reference bounce
    off the same first 50 facets at the same points, and both measure small drift."""
    s, orb = make_orbit(n, 1.0)
    st = _perturbed(launch_state(orb), s, 0.3, 7, 0)
    got, ref = iterate(s, st, 50), flow_reference.run(s, st, 50)
    assert got.facets.tolist() == ref.facets.tolist()
    assert np.abs(got.points - ref.points).max() < 1e-9
    assert np.abs(got.arclengths - ref.arclengths).max() < 1e-9
    assert got.max_drift < 16 * EPS and ref.max_drift < 16 * EPS


@pytest.mark.parametrize("n,a", [(3, 1.0), (8, 1.0), (32, 1.0), (64, 1.0), (128, 1.0),
                                 (8, 1e-3), (3, 1e-5)])
def test_closure_within_eight_eps(n, a):
    """Launched along the orbit's cancellation-free direction, one flowed period
    comes back to the launch state within 8 eps."""
    s, orb = make_orbit(n, a)
    assert closure_error(s, orb) <= 8 * EPS


@pytest.mark.parametrize("n,a,steps", [(3, 1.0, 10_000), (8, 1.0, 10_000), (3, 1e-5, 2000)])
def test_long_run_drift_within_sixteen_eps(n, a, steps):
    """The invariants and the consistency of the margin coordinates hold to
    rounding over every flight of a long chaotic run."""
    s, orb = make_orbit(n, a)
    tr = iterate(s, _perturbed(launch_state(orb), s, 0.3, 7, 0), steps)
    assert len(tr) == steps
    assert tr.max_drift <= 16 * EPS


@pytest.mark.parametrize("n", [3, SWITCH - 1])
def test_long_list_loop_run_memory_per_bounce(n):
    """A run keeps its largest drift, not a row of drifts per bounce: from a run of
    1000 list-loop bounces to one of 3000, the traced peak grows per bounce by at most
    the bytes of the run's own records and 128 B.  The records are the `Trajectory`
    stacks and the loop's flat margin, x0 and arclength records, 104 B at n = 3 and
    232 B at n = 11.  (Measured 43 and 90 B over them.  A tuple of five drifts kept per
    bounce adds 168 B, which fails the bound at both n.)  The loop is generated before
    tracing starts: compiled under tracemalloc, it takes seconds."""
    s, orb = make_orbit(n, 1.0)
    launch = _perturbed(launch_state(orb), s, 0.3, 7, 0)
    iterate(s, launch, 1)
    peaks = {}
    for steps in (1000, 3000):
        tracemalloc.start()
        try:
            tr = iterate(s, launch, steps)
            peaks[steps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(tr) == steps
    stacks = (tr.points.nbytes + tr.facets.nbytes + tr.arclengths.nbytes) / len(tr)
    flat = 8 * (s.n + 3)  # float64 records: the N = n+1 margins, x0 and the arclength
    assert (peaks[3000] - peaks[1000]) / 2000 <= stacks + flat + 128


# The state after bounces 0-695 of `simulate --dim 8 --edge 1 --steps 1000 --perturb 0.3
# --seed 1241967942`, written at 17 digits
_BAND_STOP_X = [1.0201785061243096, 0.0079951794463185, -0.06860149169386515,
                0.046753027995827506, -0.01968394207304069, -0.06509883297687111,
                0.1585473116393152, -0.06215524704698219, -0.008362016144610029,
                0.010606010853907954]
_BAND_STOP_D = [-0.09318831162956948, 0.3366999802610108, 0.6707439651879582,
                -0.5189592257279946, 0.23457681000919753, -0.0584324440210431,
                -0.2139102633247348, -0.11280446961504312, -0.20124421387205707,
                -0.1366701388972938]


def test_arrival_inside_a_second_facets_band_stops_the_run():
    """Bounce 696 of `simulate --dim 8 --edge 1 --steps 1000 --perturb 0.3 --seed
    1241967942` arrives on facet 6 at 1.06e-10 from facet 4, inside the facet band
    `FACET_TOL`, so the run stops there with exit 4 (the 349th call of the flow-long
    benchmark at seed 4).  From the state after bounces 0-695 one flight reaches that
    arrival, so the test does not rest on the last bit of libm's cosh, sinh and atanh
    over 696 flights."""
    s = build(8, 1.0)
    x, d = np.array(_BAND_STOP_X), np.array(_BAND_STOP_D)
    state = FlowState(HPoint(x), d)
    k, t = next_collision(mink_pairs(x, s.normal_coords).tolist(),
                          mink_pairs(d, s.normal_coords).tolist())
    arrival = mink_pairs(math.cosh(t) * x + math.sinh(t) * d, s.normal_coords)
    assert k == 6 and 1e-10 < arrival[4] < FACET_TOL
    with pytest.raises(NonSmoothHitError) as err:
        iterate(s, state, 1)
    assert (str(err.value), err.value.step) == (
        "bounce 0: hit the lower-boundary region of the boundary", 0)


def test_launch_direction_is_aimed_at_the_next_bounce():
    """The orbit's direction D and the coordinate difference P_1 - P_0 give the same
    launch to rounding, and D is read-only."""
    for n, a in ((2, 1.0), (8, 0.5), (32, 1.0)):
        s, orb = make_orbit(n, a)
        along = launch_state(orb).direction
        toward = state_toward(orb.point(0), orb.point(1)).direction
        assert np.abs(along - toward).max() < 1e-12
        assert not orb.direction.flags.writeable
        plain = BilliardOrbit(orb.coords, orb.masses, orb.multiplier)
        assert plain.direction.tobytes() == (orb.coords[1] - orb.coords[0]).tobytes()


def _runtime_imports(path: Path) -> set[str]:
    """The `hypbilliards` modules a source file imports outside ``if TYPE_CHECKING:``."""
    tree = ast.parse(path.read_text())
    typing_only = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and ast.unparse(node.test) in ("TYPE_CHECKING",
                                                                   "typing.TYPE_CHECKING"):
            typing_only.update(id(sub) for stmt in node.body for sub in ast.walk(stmt))
    found = set()
    for node in ast.walk(tree):
        if id(node) in typing_only:
            continue
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("hypbilliards."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:  # absolute: keep only hypbilliards, minus its name
                if not (module + ".").startswith("hypbilliards."):
                    continue
                module = module.removeprefix("hypbilliards").lstrip(".")
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(a.name for a in node.names)  # from . import orbit
    return found


def _reachable(start: str) -> set[str]:
    """The `hypbilliards` modules that module ``start`` reaches through runtime imports,
    followed edge by edge, itself left out.  The walk starts from the package's
    ``__init__`` too, which runs before any of its modules."""
    package = Path(flow_mod.__file__).parent
    seen, todo = set(), [start, "__init__"]
    while todo:
        new = _runtime_imports(package / f"{todo.pop()}.py") - seen
        seen |= new
        todo.extend(new)
    return seen - {start}


def test_flow_imports_no_center_of_mass_algebra():
    """At run time `flow` reaches `geometry` alone, through any chain of imports, so the
    flow certificate rests on no module of the construction it checks but `geometry`.

    No module of the construction reaches `flow`, and from `report` the walk reaches
    every other module but `cli`, which shows that it follows imports transitively.
    """
    assert _reachable("flow") == {"geometry"}
    for name in ("masses", "weights", "simplex", "orbit"):
        assert "flow" not in _reachable(name), name
    assert _reachable("report") == {"flow", "geometry", "masses", "orbit", "simplex", "weights"}


def test_each_module_imports_alone_and_loads_its_walk():
    """Each module imports in a fresh interpreter, so no circular import hides behind
    another module's import order, and it loads exactly itself and the modules the
    runtime-import walk reaches from it: the walk is what runs.  `flow` loads
    `geometry` alone."""
    path = os.pathsep.join(filter(None, [str(Path(flow_mod.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    loaded = {}
    for name in sorted(p.stem for p in Path(flow_mod.__file__).parent.glob("*.py")):
        if name == "__init__":
            continue
        probe = (f"import hypbilliards.{name}, sys; "
                 "print(' '.join(sorted(m for m in sys.modules if m.startswith('hypbilliards'))))")
        done = subprocess.run([sys.executable, "-W", "error", "-c", probe],
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0 and done.stderr == "", (name, done.stderr)
        loaded[name] = set(done.stdout.split())
        assert loaded[name] == {"hypbilliards"} | {f"hypbilliards.{m}"
                                                   for m in {name} | _reachable(name)}, name
    assert loaded["flow"] == {"hypbilliards", "hypbilliards.flow", "hypbilliards.geometry"}
    assert loaded["cli"] == set().union(*loaded.values())  # the CLI loads every module
