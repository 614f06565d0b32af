"""Tests for cell evaluation, sweeps, and serialization helpers."""

import dataclasses
import io
import json
import math

import numpy as np
import pytest

from hypbilliards.flow import iterate, launch_state
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
    assert any("closure" in f for f in rep.failures)
    # honest reporting: the residuals are still recorded
    assert rep.residuals["facet_incidence"] < 1e-10


def test_run_sweep_orders_and_dedupes_cells():
    rep = run_sweep((4, 2, 3, 3), (2.0, 0.5))
    assert [(c.n, c.edge) for c in rep.cells] == [
        (2, 0.5), (2, 2.0), (3, 0.5), (3, 2.0), (4, 0.5), (4, 2.0)
    ]
    assert rep.passed


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
    assert [r[1] for r in trows] == [str(f) for f in traj.facets]

    buf = io.StringIO()
    write_csv(buf, theader, trows)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "step,facet,arclength,disk0,disk1"
    assert len(lines) == 4
    assert float(lines[1].split(",")[2]) == traj.bounces[0].arclength
