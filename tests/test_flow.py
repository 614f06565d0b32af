"""Tests for the geodesic billiard-flow simulator."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import facet_center, facet_plane
from hypbilliards import flow as flow_mod
from hypbilliards.flow import (
    FlowState,
    NonSmoothHitError,
    Trajectory,
    _crossing_ratio,
    iterate,
    launch_state,
    next_collision,
    reflect_at,
    run_closure,
    closure_error,
    state_toward,
    step,
)
from hypbilliards.geometry import HPoint, TangentVec, chord_dist, dist, geodesic_point, reflect
from hypbilliards.orbit import construct_orbit, orbit_edge_lengths
from hypbilliards.simplex import build
from hypbilliards.weights import build_sequence


def make_orbit(n, a):
    s = build(n, a)
    return s, construct_orbit(s, build_sequence(n, a))


def test_crossing_ratio_unit_cases():
    # receding or parallel: no hit
    assert _crossing_ratio(0.5, 0.0, 0.0) is None
    assert _crossing_ratio(0.5, 0.3, 0.0) is None
    # margin too large to ever cross: asymptotic approach
    assert _crossing_ratio(1.0, -0.5, 0.0) is None
    # clean crossing at t = atanh(mu) for nu = -1
    ratio = _crossing_ratio(math.tanh(0.7), -1.0, 0.0)
    assert math.atanh(ratio) == pytest.approx(0.7, rel=1e-12)
    # a minimum flight time filters the same crossing out
    assert _crossing_ratio(math.tanh(0.7), -1.0, math.tanh(0.8)) is None
    # sitting exactly on the facet and leaving: not a forward hit
    assert _crossing_ratio(0.0, -1.0, 0.0) is None
    assert _crossing_ratio(-1e-12, -1.0, 0.0) is None


def test_next_collision_center_to_facet_center():
    s = build(3, 1.0)
    w = facet_center(s, 2)
    state = state_toward(s.circumcenter, w)
    k, q, t = next_collision(s, state)
    assert k == 2
    assert chord_dist(q, w) < 1e-12
    assert t == pytest.approx(dist(s.circumcenter, w), rel=1e-12)


def test_next_collision_rejects_outside_state():
    s = build(3, 1.0)
    out = reflect(facet_plane(s, 0), s.circumcenter)
    with pytest.raises(ValueError):
        next_collision(s, state_toward(out, s.vertex(0)))


def test_reflect_at_involution():
    s = build(3, 1.0)
    w = facet_center(s, 0)
    t = dist(s.circumcenter, w)
    x, v = s.circumcenter.coords, TangentVec.toward(s.circumcenter, w).direction
    arrive = TangentVec.from_raw(w, math.sinh(t) * x + math.cosh(t) * v)
    out = reflect_at(s, 0, w, arrive)
    back = reflect_at(s, 0, w, out)
    assert np.abs(back.direction - arrive.direction).max() < 1e-12
    # the perpendicular arrival just reverses
    assert np.abs(out.direction + arrive.direction).max() < 1e-9


def test_reflect_at_rejects_bad_input():
    s = build(3, 1.0)
    w = facet_center(s, 0)
    good = TangentVec.toward(w, s.vertex(0))
    with pytest.raises(ValueError):
        reflect_at(s, 0, s.circumcenter, TangentVec.toward(s.circumcenter, w))
    with pytest.raises(ValueError):
        reflect_at(s, 0, w, TangentVec.toward(s.circumcenter, w))
    # direction inside the facet plane: grazing
    inside = TangentVec.toward(w, s.vertex(1))
    with pytest.raises(NonSmoothHitError):
        reflect_at(s, 0, w, inside)


def test_reflect_at_rejects_nearby_base():
    # the base check is absolute: 1e-7 off is far outside its 1e-9
    s = build(3, 1.0)
    w = facet_center(s, 0)
    near = geodesic_point(w, s.vertex(1), 1e-7)
    assert chord_dist(near, w) == pytest.approx(1e-7, rel=1e-6)
    with pytest.raises(ValueError, match="not based at the reflection point"):
        reflect_at(s, 0, w, TangentVec.toward(near, s.vertex(0)))


def test_flow_retraces_constructed_orbit():
    s, orb = make_orbit(3, 1.0)
    st = launch_state(s, orb)
    assert st.last_facet == 0
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
    st = state_toward(orb.point(0), target, last_facet=0)
    tr = iterate(s, st, 4)
    assert chord_dist(tr.final_state.position, orb.point(0)) > 1e-3


def test_corner_shot_raises_non_smooth():
    s = build(3, 1.0)
    st = state_toward(s.circumcenter, s.vertex(0))
    with pytest.raises(NonSmoothHitError) as exc:
        iterate(s, st, 10)
    assert exc.value.step == 0


def test_long_run_keeps_invariants():
    """A chaotic 1000-bounce run must preserve the hyperboloid, tangency, and
    slice invariants to rounding accuracy."""
    s, orb = make_orbit(3, 1.0)
    target = geodesic_point(orb.point(1), orb.point(2), 0.3)
    st = state_toward(orb.point(0), target, last_facet=0)
    tr = iterate(s, st, 1000)
    assert len(tr) == 1000
    assert tr.max_drift < 1e-8
    assert all(t > 0.0 for t in tr.arclengths)


def test_iterate_zero_and_negative_steps():
    s, orb = make_orbit(2, 1.0)
    st = launch_state(s, orb)
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


def test_step_returns_bounce_record():
    s, orb = make_orbit(2, 0.5)
    one = step(s, launch_state(s, orb))
    assert len(one) == 1
    assert one.facets[0] == one.final_state.last_facet
    assert one.drifts.shape == (1, 5)
    assert chord_dist(HPoint(one.points[0]), orb.point(1)) < 1e-10


def test_off_slice_state_raises():
    """A state 1e-8 off the simplex slice is caught at the first bounce."""
    s = build(3, 1.0)
    eps = 1e-8
    x = HPoint(np.array([math.sqrt(1.0 + eps * eps), eps, 0.0, 0.0, 0.0]))
    d = np.array([0.0, 0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    with pytest.raises(ValueError, match="left the simplex slice"):
        iterate(s, FlowState(x, d), 3)


def test_vertex_on_second_bounce_raises_with_step_one():
    """Aimed at the mirror image of vertex 0 across facet 0, the flow bounces
    off facet 0 and then runs straight into vertex 0."""
    s = build(3, 1.0)
    image = reflect(facet_plane(s, 0), s.vertex(0))
    st = state_toward(s.circumcenter, image)
    assert iterate(s, st, 1).facets.tolist() == [0]
    with pytest.raises(NonSmoothHitError) as exc:
        iterate(s, st, 5)
    assert exc.value.step == 1


def test_step_equals_one_bounce_of_iterate_bitwise():
    s, orb = make_orbit(3, 1.0)
    target = geodesic_point(orb.point(1), orb.point(2), 0.3)
    st = state_toward(orb.point(0), target, last_facet=0)
    one = step(s, st)
    tr = iterate(s, st, 1)
    assert one.facets.tobytes() == tr.facets.tobytes()
    assert one.arclengths.tobytes() == tr.arclengths.tobytes()
    assert one.drifts.tobytes() == tr.drifts.tobytes()
    assert one.points.tobytes() == tr.points.tobytes()
    nxt, fin = one.final_state, tr.final_state
    assert nxt.position.coords.tobytes() == fin.position.coords.tobytes()
    assert nxt.direction.tobytes() == fin.direction.tobytes()
    assert nxt.last_facet == fin.last_facet == one.facets[0]


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


def test_flow_imports_no_center_of_mass_algebra():
    """`flow` itself imports none of `masses`, `weights` or `orbit` at run time, so the
    flow certificate stays independent of the construction it checks.

    This covers `flow`'s own imports only: `simplex`, which `flow` imports, still
    imports `masses` for the facet centers that `build` folds.
    """
    imported = _runtime_imports(Path(flow_mod.__file__))
    assert {"geometry", "simplex"} <= imported  # the walk sees the real imports
    assert imported.isdisjoint({"masses", "weights", "orbit"}), imported
