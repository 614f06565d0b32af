"""Tests for cell evaluation, sweeps, and serialization helpers."""

import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypbilliards.flow import iterate, launch_state
from conftest import facet_plane, facet_vertices
from hypbilliards import simplex as simplex_mod
from hypbilliards.geometry import dist, mink_dot
from hypbilliards.orbit import construct_orbit
from hypbilliards.report import (
    CellReport,
    Tolerances,
    evaluate_cell,
    format_float,
    jsonable,
    orbit_document,
    orbit_rows,
    round_sig,
    run_sweep,
    sequence_document,
    simplex_document,
    sweep_document,
    trajectory_rows,
    write_csv,
    write_json,
)
from hypbilliards.simplex import build
from hypbilliards.weights import build_sequence


def built_cell(n, a):
    s = build(n, a)
    seq = build_sequence(n, a)
    return s, seq, construct_orbit(s, seq)


def test_tolerances_uniform_keeps_structural_knobs():
    t = Tolerances.uniform(1e-6)
    assert t.facet_incidence == 1e-6
    assert t.closure == 1e-6
    assert t.angle_defect == 1e-6
    assert t.classify == Tolerances().classify
    assert t.min_midpoint_defect == Tolerances().min_midpoint_defect


@pytest.mark.parametrize("n,a", [(2, 0.5), (3, 1.0), (5, 2.0)])
def test_evaluate_cell_passes(n, a):
    rep = evaluate_cell(*built_cell(n, a))
    assert isinstance(rep, CellReport)
    assert rep.passed and rep.failures == ()
    for key in ("facet_incidence", "collinearity", "centroid_location",
                "centroid_mass_rel", "angle_defect", "closure", "root_residual",
                "weight_recurrence", "vertex_reflection", "multiplier",
                "midpoint_defect"):
        assert key in rep.residuals
    assert rep.residuals["multiplier"] > 2.0


def test_evaluate_cell_reports_failures_under_impossible_gates():
    rep = evaluate_cell(*built_cell(3, 1.0), Tolerances.uniform(1e-30))
    assert not rep.passed
    # every gated residual fails but those that are exactly 0, such as the closure
    # of this cell, whose flowed period returns to the launch state bit for bit
    ungated = {"multiplier", "min_interior_weight", "midpoint_defect"}
    failed = {f.split(" = ")[0] for f in rep.failures}
    assert failed == {k for k, v in rep.residuals.items() if k not in ungated and v != 0.0}
    assert "collinearity" in failed
    # honest reporting: the residuals are still recorded
    assert rep.residuals["facet_incidence"] < 1e-10


def test_run_sweep_orders_and_dedupes_cells():
    rep = run_sweep((4, 2, 3, 3), (2.0, 0.5))
    assert [(c.n, c.edge) for c in rep.cells] == [
        (2, 0.5), (2, 2.0), (3, 0.5), (3, 2.0), (4, 0.5), (4, 2.0)
    ]
    assert rep.passed


def test_run_sweep_reports_broken_cells_and_goes_on():
    rep = run_sweep((3,), (1e-9, 1.0, 40.0))
    assert [(c.n, c.edge, c.passed) for c in rep.cells] == [
        (3, 1e-9, False), (3, 1.0, True), (3, 40.0, False)
    ]
    tiny, _, spacelike = rep.cells
    assert tiny.residuals == {} and len(tiny.failures) == 1
    assert tiny.failures[0].startswith("ValueError: points coincide")
    assert spacelike.residuals == {}
    assert len(spacelike.failures) == 1
    assert spacelike.failures[0].startswith("ValueError: cannot normalize non-timelike vector")
    assert not rep.passed


def test_run_sweep_empty_raises():
    with pytest.raises(ValueError):
        run_sweep((), (1.0,))


def test_round_sig_and_format_float():
    assert round_sig(math.pi, 3) == 3.14
    assert round_sig(math.pi, 17) == math.pi
    assert round_sig(0.0, 3) == 0.0
    x = 1.0 / 3.0
    assert float(format_float(x)) == x  # full precision round-trips exactly
    assert format_float(x, 4) == "0.3333"
    assert round_sig(math.inf, 5) == math.inf


def test_jsonable_handles_numpy_types():
    doc = {
        "a": np.arange(3),
        "b": np.float64(0.5),
        "c": (np.int64(7), [np.bool_(True)]),
        "d": "text",
    }
    out = jsonable(doc)
    dumped = json.loads(json.dumps(out))
    assert dumped == {"a": [0, 1, 2], "b": 0.5, "c": [7, [True]], "d": "text"}


def test_jsonable_int_lists_in_one_step():
    out = jsonable({"v": (3, 1, 2), "w": [0, 7], "b": [True, 2], "f": [1, 2.0]})
    assert out == {"v": [3, 1, 2], "w": [0, 7], "b": [True, 2], "f": [1, 2.0]}
    assert type(out["v"]) is list
    assert [type(x) for x in out["b"]] == [bool, int]
    assert jsonable([]) == []


def test_jsonable_rounding():
    out = jsonable({"x": math.pi}, sig=5)
    assert out["x"] == 3.1416


def test_simplex_document_consistency_checks():
    doc = simplex_document(build(3, 1.0))
    assert doc["n"] == 3 and doc["edge"] == 1.0
    assert len(doc["vertices"]) == 4 and len(doc["facets"]) == 4
    ck = doc["checks"]
    assert ck["edge_spread"] < 1e-12
    assert ck["facet_incidence"] < 1e-12
    assert ck["min_opposite_margin"] > 0.0
    assert ck["right_angle"] < 1e-8
    assert ck["center_between"] < 1e-12
    # degenerate facet (single point) for n = 1 still produces a document
    assert simplex_document(build(1, 1.0))["checks"]["right_angle"] == 0.0


def test_sequence_document_keys():
    doc = sequence_document(build_sequence(3, 1.0))
    assert set(doc) == {"y0", "lambda", "xi", "b", "alphas"}
    assert doc["lambda"] == pytest.approx(2.0 * doc["y0"], rel=1e-15)
    assert len(doc["alphas"]) == 5


def test_orbit_document_pass_and_fail():
    s, seq, orb = built_cell(2, 1.0)
    doc, ok = orbit_document(s, seq, orb)
    assert ok and doc["checks"]["passed"]
    assert len(doc["orbit"]["points"]) == 3
    assert "failures" not in doc["checks"]
    doc_bad, ok_bad = orbit_document(s, seq, orb, Tolerances.uniform(1e-30))
    assert not ok_bad and doc_bad["checks"]["failures"]


def test_orbit_document_measures_the_metrics_once(monkeypatch):
    s, seq, orb = built_cell(3, 1.0)
    measured, measure = [], simplex_mod.metrics

    def counted(x):
        measured.append(measure(x))
        return measured[-1]

    monkeypatch.setattr(simplex_mod, "metrics", counted)
    doc, _ = orbit_document(s, seq, orb)
    assert len(measured) == 1
    assert doc["metrics"]["vertex_center"] is measured[0].vertex_center
    cell = evaluate_cell(s, seq, orb)
    assert cell.metrics is measured[1]
    assert cell.metrics.vertex_center.tobytes() == measure(s).vertex_center.tobytes()
    assert run_sweep((3,), (40.0,)).cells[0].metrics is None


def test_sweep_document_shape():
    rep = run_sweep((2,), (1.0,))
    doc = jsonable(sweep_document(rep))
    assert doc["passed"] is True
    assert doc["cells"][0]["n"] == 2
    assert doc["tolerances"] == jsonable(dataclasses.asdict(Tolerances()))
    json.dumps(doc)


def test_csv_helpers_round_trip():
    s = build(2, 1.0)
    orb = construct_orbit(s, build_sequence(2, 1.0))
    header, rows = orbit_rows(s, orb)
    assert header == ["index", "mass", "disk0", "disk1"]
    assert len(rows) == 3
    assert float(rows[0][1]) == orb.mass(0)

    traj = iterate(s, launch_state(s, orb), 3)
    theader, trows = trajectory_rows(s, traj)
    assert theader == ["step", "facet", "arclength", "disk0", "disk1"]
    assert [r[1] for r in trows] == [str(f) for f in traj.facets.tolist()]

    buf = io.StringIO()
    write_csv(buf, theader, trows)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "step,facet,arclength,disk0,disk1"
    assert len(lines) == 4
    assert float(lines[1].split(",")[2]) == traj.arclengths[0]


@pytest.mark.parametrize("a", [1e-4, 1.0, 2.0])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 32, 128])
def test_pair_distances_match_scalar_dist_bitwise(n, a):
    """One stacked product per vertex pair, then `dist`'s own route per pair (chord when
    close): the document's ``edge_spread`` is the scalar loop's, bit for bit."""
    s = build(n, a)
    ref = np.array([dist(s.vertex(i), s.vertex(j))
                    for i in range(n + 1) for j in range(i + 1, n + 1)])
    assert simplex_document(s)["checks"]["edge_spread"] == float(np.max(np.abs(ref - a)))


@pytest.mark.parametrize("n", [1, 2, 5, 64])
def test_vertex_facet_incidence_matches_scalar_products(n):
    s = build(n, 1.3)
    ref = max(abs(mink_dot(s.vertex_coords[k], facet_plane(s, j).normal))
              for j in range(n + 1) for k in facet_vertices(s, j))
    assert simplex_document(s)["checks"]["facet_incidence"] == ref


# ---------------------------------------------------------------------------
# the indent=2 writer against json.dumps

def json_text(obj) -> str:
    buf = io.StringIO()
    write_json(buf, obj)
    return buf.getvalue()


json_scalars = st.one_of(
    st.text(),
    st.text(alphabet=st.sampled_from('"\\/\x00\x08\x1f\x7f\u2028é€😀 \t\n\r')),
    st.floats(allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 0.1 + 0.2, 1.7976931348623157e308,
                     math.nan, math.inf, -math.inf, 0.30000000000000004, 1e16, 1.2345678901234567e-89]),
    st.integers(),
    st.integers(min_value=-10**60, max_value=10**60),
    st.booleans(),
    st.none(),
)
json_values = st.recursive(
    json_scalars,
    lambda kids: st.one_of(
        st.lists(kids, max_size=6),
        st.lists(kids, max_size=4).map(tuple),
        st.lists(st.floats(allow_subnormal=True), max_size=6),
        st.lists(st.integers(), max_size=6),
        st.dictionaries(st.text(), kids, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(json_values)
@example([1e308, 1e308])  # finite floats whose sum overflows
@example([math.inf, -math.inf, 1.0])
@example({"": {}, "a": [], "b": [[]], "c": [{}]})
def test_write_json_matches_json_dumps_indent_2(obj):
    assert json_text(obj) == json.dumps(obj, indent=2)


# Float lists drawn from one small pool per document, so sibling lists repeat
# the same values; the pool always holds both zeros and a subnormal.
pooled_documents = st.lists(st.floats(allow_subnormal=True), max_size=4).flatmap(
    lambda extra: st.recursive(
        st.sampled_from([0.0, -0.0, 5e-324, -1.5, *extra]),
        lambda kids: st.one_of(
            st.lists(kids, max_size=8),
            st.dictionaries(st.text(max_size=2), kids, max_size=4),
        ),
        max_leaves=40,
    )
)


@settings(max_examples=200, deadline=None)
@given(pooled_documents)
def test_write_json_matches_json_dumps_on_repeated_floats(obj):
    assert json_text(obj) == json.dumps(obj, indent=2)


def test_write_json_keeps_signed_zeros_apart():
    obj = {"a": [0.0, 1.5], "b": [-0.0, 1.5], "c": [1.5, -0.0], "d": [[1.5, 2.5], [-0.0], [0.0]]}
    assert json_text(obj) == json.dumps(obj, indent=2)
    assert json_text(obj).count("-0.0") == 3


class _OddFloat(float):
    def __repr__(self):
        return "odd"


class _OddStr(str):
    pass


@pytest.mark.parametrize("obj", [
    _OddFloat(1.5), [_OddFloat(0.1), 2.0], {"x": _OddFloat(-0.0)}, [np.float64(0.1)],
    [_OddStr("a\"b")], {_OddStr("k"): 1},
    {1: 2}, {1.5: "x"}, {None: 1}, {True: 0}, {(1, 2): 3}, {"a": {2: []}},
    [np.int64(3)], [np.bool_(True)], {1, 2}, [b"bytes"], [np.array([1.0])],
])
def test_write_json_matches_json_or_raises_type_error(obj):
    """Odd inputs either give json's bytes or a TypeError, never other bytes."""
    try:
        got = json_text(obj)
    except TypeError:
        return
    assert got == json.dumps(obj, indent=2)


def test_write_json_on_documents():
    s, seq, orb = built_cell(8, 0.5)
    for sig in (17, 9, 3):
        for doc in (orbit_document(s, seq, orb)[0], simplex_document(s),
                    sweep_document(run_sweep((2, 3), (1.0, 40.0)))):
            obj = jsonable(doc, sig)
            assert json_text(obj) == json.dumps(obj, indent=2)
