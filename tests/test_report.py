"""Tests for cell evaluation, sweeps, and serialization helpers."""

import dataclasses
import io
import json
import math
import os
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from hypbilliards.flow import iterate, launch_state
from conftest import facet_plane, facet_vertices
from hypbilliards import report
from hypbilliards import simplex as simplex_mod
from hypbilliards.cli import _perturbed
from hypbilliards.geometry import FACET_TOL, dist, mink_dot
from hypbilliards.orbit import construct_orbit
from hypbilliards.report import (
    _SORTED_TEXTS_MIN_SIZE,
    CellReport,
    Tolerances,
    _csv_rows,
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
    """`uniform(t)` sets every settable gate to t; the facet band and the midpoint
    floor are fixed, so neither it nor any caller can set them."""
    t = Tolerances.uniform(1e-6)
    fields = dataclasses.fields(Tolerances)
    assert {f.name for f in fields if not f.init} == {"classify", "min_midpoint_defect"}
    assert all(getattr(t, f.name) == 1e-6 for f in fields if f.init)
    assert t.classify is FACET_TOL and t.min_midpoint_defect == 1e-3
    for name in ("classify", "min_midpoint_defect"):
        with pytest.raises(TypeError):
            Tolerances(**{name: 0.3})


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


@pytest.mark.parametrize("n,a", [(8, 1e-7), (3, 2.1544346900318822e-08),
                                 (8, 2.1544346900318822e-08)])
def test_evaluate_cell_passes_where_the_multiplier_rounds_to_two(n, a):
    """2 cosh(theta) rounds to 2.0 once theta < 1.49e-8; the gate reads theta > 0."""
    s, seq, orb = built_cell(n, a)
    assert seq.multiplier == 2.0 and 0.0 < seq.theta < 1.49e-8
    rep = evaluate_cell(s, seq, orb)
    assert rep.passed, rep.failures
    assert rep.residuals["multiplier"] == 2.0


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


# The default grid, and a grid of passes, gated failures (a = 20), `ValueError`
# breakdowns (a = 1e-9 and 40) and a `NonSmoothHitError` (9, 2.15e-8).
SWEEP_GRIDS = {
    "default": ((2, 3, 4, 5, 6, 7, 8), (0.5, 1.0, 2.0)),
    "mixed": ((3, 9), (1.0, 20.0, 40.0, 1e-9, 2.1544346900318822e-08)),
}


def sweep_text(grid) -> str:
    """The JSON report of a sweep over ``grid``, as `verify --report` writes it."""
    fh = io.StringIO()
    write_json(fh, sweep_document(run_sweep(*SWEEP_GRIDS[grid])))
    return fh.getvalue()


def test_default_sweep_runs_in_this_process_and_writes_the_golden_bytes(monkeypatch):
    def fork():
        pytest.fail("a sweep started a second process")

    monkeypatch.setattr(os, "fork", fork)
    golden = Path(__file__).parent / "golden" / "verify_default.json"
    assert sweep_text("default") == golden.read_text()


def forked_sweep_texts(grid, workers):
    """The sweep text of ``grid`` as each of ``workers`` forked children writes it.

    The children inherit this process's compiled kernels and run at once; each
    sends its text back through a pipe and leaves with `os._exit`."""
    children = []
    for _ in range(workers):
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(r)
                with os.fdopen(w, "w") as out:
                    out.write(sweep_text(grid))
                code = 0
            finally:
                os._exit(code)
        os.close(w)
        children.append((pid, r))
    texts = []
    for pid, r in children:
        with os.fdopen(r) as inp:
            texts.append(inp.read())
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
    return texts


@pytest.mark.parametrize("workers", [2, 3, 5])
@pytest.mark.parametrize("grid", sorted(SWEEP_GRIDS))
def test_forked_sweep_writes_the_serial_bytes(grid, workers):
    """A sweep writes the same bytes in forked children as here, and again here."""
    serial = sweep_text(grid)
    assert forked_sweep_texts(grid, workers) == [serial] * workers
    assert sweep_text(grid) == serial
    assert ('"passed": false' in serial) == (grid == "mixed")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_unclassified_exception_in_a_cell_is_raised(monkeypatch):
    evaluate = report.evaluate_cell

    def evaluate_or_raise(s, seq, orb, tol=None):
        if (s.n, s.edge) == (2, 1.0):
            raise TypeError("injected")
        return evaluate(s, seq, orb, tol)

    monkeypatch.setattr(report, "evaluate_cell", evaluate_or_raise)
    with pytest.raises(TypeError, match="injected"):
        run_sweep(*SWEEP_GRIDS["default"])


def test_warning_in_a_cell_is_shown_once_or_raised(monkeypatch):
    evaluate = report.evaluate_cell

    def evaluate_and_warn(s, seq, orb, tol=None):
        if (s.n, s.edge) == (2, 1.0):
            warnings.warn("injected", RuntimeWarning)
        return evaluate(s, seq, orb, tol)

    monkeypatch.setattr(report, "evaluate_cell", evaluate_and_warn)
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        rep = run_sweep(*SWEEP_GRIDS["default"])
    assert [str(w.message) for w in shown] == ["injected"]
    assert rep.passed
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="injected"):
            run_sweep(*SWEEP_GRIDS["default"])


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


def test_jsonable_keeps_int_and_bool_lists():
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
    header, *rows = orbit_rows(s, orb)
    assert header == ["index", "mass", "disk0", "disk1"]
    assert len(rows) == 3
    assert float(rows[0][1]) == orb.mass(0)

    traj = iterate(s, launch_state(orb), 3)
    theader, *trows = trajectory_rows(s, traj)
    assert theader == ["step", "facet", "arclength", "disk0", "disk1"]
    assert [r[1] for r in trows] == [str(f) for f in traj.facets.tolist()]

    buf = io.StringIO()
    write_csv(buf, trajectory_rows(s, traj))
    lines = buf.getvalue().splitlines()
    assert lines[0] == "step,facet,arclength,disk0,disk1"
    assert len(lines) == 4
    assert float(lines[1].split(",")[2]) == traj.arclengths[0]


_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e-5, 1e16, 1e308, -1e308, math.inf, math.nan]


@pytest.mark.parametrize("sig", [1, 9, 16, 17])
@given(st.lists(st.floats() | st.sampled_from(_EDGE_FLOATS), max_size=20))
@example(_EDGE_FLOATS)
@settings(max_examples=50, deadline=None)
def test_csv_columns_format_floats_as_format_float(sig, xs):
    """The column path writes each float as `format_float` does, at every precision,
    and `format_float` is ``repr`` at 17 digits and ``g`` format below."""
    rows = _csv_rows([range(len(xs))], [np.array(xs), np.array(xs[::-1])], sig)
    assert rows == [(str(i), format_float(x, sig), format_float(y, sig))
                    for i, (x, y) in enumerate(zip(xs, xs[::-1]))]
    assert [format_float(x, sig) for x in xs] == [repr(x) if sig == 17 else f"{x:.{sig}g}"
                                                   for x in xs]


def test_zero_step_trajectory_has_header_and_no_rows():
    s = build(3, 1.0)
    traj = iterate(s, launch_state(construct_orbit(s, build_sequence(3, 1.0))), 0)
    header, *rows = trajectory_rows(s, traj)
    assert header == ["step", "facet", "arclength", "disk0", "disk1", "disk2"]
    assert rows == []
    buf = io.StringIO()
    write_csv(buf, trajectory_rows(s, traj))
    assert buf.getvalue() == "step,facet,arclength,disk0,disk1,disk2\n"


def test_write_csv_writes_tuple_and_list_rows_alike():
    s = build(3, 1.0)
    traj = iterate(s, launch_state(construct_orbit(s, build_sequence(3, 1.0))), 9)
    rows = list(trajectory_rows(s, traj, 9))
    as_tuples, as_lists = io.StringIO(), io.StringIO()
    write_csv(as_tuples, [tuple(r) for r in rows])
    write_csv(as_lists, [list(r) for r in rows])
    assert as_tuples.getvalue() == as_lists.getvalue()
    assert as_lists.getvalue().count("\n") == 10


def test_trajectory_rows_in_blocks_are_the_rows_of_one_block(monkeypatch):
    """Rows built a block at a time, the last block short, are the rows built from the
    whole run at once: the step index runs on across blocks and each block's disk
    coordinates are the whole stack's, row for row."""
    s = build(3, 1.0)
    traj = iterate(s, launch_state(construct_orbit(s, build_sequence(3, 1.0))), 30)
    whole = list(trajectory_rows(s, traj))
    monkeypatch.setattr(report, "_CSV_BLOCK", 7)
    assert list(trajectory_rows(s, traj)) == whole
    assert [r[0] for r in whole] == ["step"] + [str(i) for i in range(30)]


def test_long_trajectory_csv_holds_one_block_of_text():
    """Writing 20 000 bounces at n = 3 to a StringIO peaks below the text the StringIO
    keeps, twice the str and tuple objects of one block's rows, and as many bytes again
    as the trajectory's own stacks, for a block's disk coordinates and columns.  Rows
    built for the whole run at once, as one block, take about 11 MB over the text
    against this bound's 5 MB.  (Measured: 3 MB over the text.)"""
    s = build(3, 1.0)
    orb = construct_orbit(s, build_sequence(3, 1.0))
    traj = iterate(s, _perturbed(launch_state(orb), s, 0.3, 7, 0), 20_000)
    buf = io.StringIO()
    tracemalloc.start()
    try:
        write_csv(buf, trajectory_rows(s, traj))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = list(trajectory_rows(s, traj))[1:report._CSV_BLOCK + 1]
    block_objects = sum(sys.getsizeof(r) + sum(map(sys.getsizeof, r)) for r in block)
    stacks = traj.points.nbytes + traj.facets.nbytes + traj.arclengths.nbytes
    assert len(traj) == 20_000 > 4 * report._CSV_BLOCK
    assert peak <= len(buf.getvalue()) + 2 * block_objects + stacks


@pytest.mark.parametrize("a", [1e-8, 1e-4, 1.0, 2.0])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 32, 128])
def test_pair_distances_match_scalar_dist_bitwise(n, a):
    """One stacked product per vertex pair (on an even vertex count, some pairs twice),
    then `dist`'s own route per pair (chord when close, as every pair is at a = 1e-8):
    the document's ``edge_spread`` is the scalar loop's, bit for bit."""
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

def json_text(obj, sig=17) -> str:
    buf = io.StringIO()
    write_json(buf, obj, sig)
    return buf.getvalue()


def reference_text(obj, sig=17) -> str:
    """What `write_json` must write: the indent=2 dump of `jsonable`'s copy and a newline."""
    return json.dumps(jsonable(obj, sig), indent=2) + "\n"


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
    assert json_text(obj) == json.dumps(obj, indent=2) + "\n"
    for sig in (9, 3):
        assert json_text(obj, sig) == reference_text(obj, sig)


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
    assert json_text(obj) == json.dumps(obj, indent=2) + "\n"
    for sig in (9, 3):
        assert json_text(obj, sig) == reference_text(obj, sig)


# float64 arrays of one to three dimensions drawn from one small pool per
# document, so rows and sibling arrays repeat values; the pool always holds
# both zeros, NaN, both infinities and a subnormal
float_pools = st.lists(st.floats(allow_subnormal=True), max_size=4).map(
    lambda extra: [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -1.5, 0.1 + 0.2, *extra])
pooled_arrays = float_pools.flatmap(lambda pool: st.lists(
    npst.arrays(np.float64, npst.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4),
                elements=st.sampled_from(pool)),
    min_size=1, max_size=3))


@settings(max_examples=200, deadline=None)
@given(pooled_arrays, st.sampled_from([17, 9, 3]))
@example([np.array([[1.7976931348623157e308, -0.0], [2.5e-308, 0.0]])], 3)  # rounds up to inf
@example([np.zeros((2, 0)), np.empty((0, 3))], 17)
def test_write_json_matches_jsonable_on_float_arrays(arrays, sig):
    """Arrays straight from the document, as lists and inside a dict, against the
    indent=2 dump of `jsonable`'s copy."""
    first = arrays[0]
    doc = {"a": arrays, "b": {"row": first, "x": float(first.flat[0]) if first.size else 1.5}}
    assert json_text(doc, sig) == reference_text(doc, sig)


# Stacks on both sides of the size from which `write_json` formats an array from
# one sort of its bit patterns, exactly that size included, in each memory layout
_CROSS = _SORTED_TEXTS_MIN_SIZE
_SIDE = max(k for k in range(1, 32) if _CROSS % k == 0)
_STACK_SHAPES = [(7,), (3, 5), (2, 3, 4), (_CROSS - 1,), (_CROSS,), (_CROSS + 1,),
                 (_CROSS // _SIDE, _SIDE), (_SIDE, _CROSS // _SIDE), (_CROSS // _SIDE, _SIDE + 1),
                 (3, 7, 31), (129, 130)]
# both zeros, NaN of both signs and with a payload, subnormals and both infinities
_SPECIAL_BITS = [0x0000000000000000, 0x8000000000000000, 0x7FF8000000000000, 0xFFF8000000000000,
                 0x7FF8000000000123, 0xFFF0000000000001, 0x0000000000000001, 0x800FFFFFFFFFFFFF,
                 0x7FF0000000000000, 0xFFF0000000000000]
_SPECIAL_FLOATS = np.array(_SPECIAL_BITS, dtype=np.uint64).view(np.float64)


def _laid_out(values: np.ndarray, shape: tuple, layout: str) -> np.ndarray:
    """An array of ``shape`` taking its entries from ``values`` (at least twice its
    size), in the named memory layout."""
    size = math.prod(shape)
    if layout == "transposed":
        return values[:size].reshape(shape[::-1]).T
    if layout == "reversed":
        return values[:size].reshape(shape)[(slice(None, None, -1),) * len(shape)]
    if layout == "strided":
        return values[:2 * size].reshape(*shape[:-1], 2 * shape[-1])[..., ::2]
    if layout == "fortran":
        return np.asfortranarray(values[:size].reshape(shape))
    if layout == "broadcast":
        return np.broadcast_to(values[:shape[-1]] if len(shape) > 1 else values[0], shape)
    return values[:size].reshape(shape)


@pytest.mark.parametrize("sig", [17, 9, 3])
@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_STACK_SHAPES),
       st.sampled_from(["c", "transposed", "reversed", "strided", "fortran", "broadcast"]),
       st.lists(st.floats(allow_subnormal=True), max_size=4), st.integers(0, 200),
       st.integers(0, 2**32 - 1))
@example((_CROSS,), "transposed", [], 0, 0)
@example((_CROSS // _SIDE, _SIDE), "fortran", [], 3, 1)
@example((_SIDE, _CROSS // _SIDE), "broadcast", [1.5], 0, 2)
@example((_CROSS - 1,), "reversed", [], 10, 3)
@example((129, 130), "strided", [0.1], 139, 4)
def test_write_json_matches_jsonable_on_float_stacks(sig, shape, layout, extra, spread, seed):
    """Float64 stacks of every layout, small ones written by a lookup per entry and large
    ones from one sort of their bits, against the dump of `jsonable`'s copy.  Their
    entries come from the special floats, ``extra`` and ``spread`` random normals."""
    rng = np.random.default_rng(seed)
    pool = np.concatenate((_SPECIAL_FLOATS, extra, rng.normal(0.0, 10.0, spread)))
    a = _laid_out(rng.choice(pool, 2 * math.prod(shape)), shape, layout)
    assert a.shape == shape
    doc = {"stack": a, "again": [a, a[:1]]}
    assert json_text(doc, sig) == reference_text(doc, sig)


def test_write_json_keeps_signed_zeros_apart():
    obj = {"a": [0.0, 1.5], "b": [-0.0, 1.5], "c": [1.5, -0.0], "d": [[1.5, 2.5], [-0.0], [0.0]]}
    assert json_text(obj) == json.dumps(obj, indent=2) + "\n"
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
    [np.array(1.0)], {"a": np.arange(3)},
])
def test_write_json_matches_json_or_raises_type_error(obj):
    """Odd inputs give the bytes of `jsonable`'s copy, float and str subclasses
    included; non-str keys, sets, bytes and the numpy values that ``json.dumps``
    cannot write either (int and bool scalars, 0-d arrays, arrays of a dtype other
    than float64), which no document holds, raise `TypeError`."""
    if _holds_what_json_cannot_write(obj):
        with pytest.raises(TypeError):
            json_text(obj)
    else:
        assert json_text(obj) == reference_text(obj)


def _holds_what_json_cannot_write(obj) -> bool:
    if isinstance(obj, dict):
        return (not all(isinstance(k, str) for k in obj)
                or any(map(_holds_what_json_cannot_write, obj.values())))
    if isinstance(obj, (list, tuple)):
        return any(map(_holds_what_json_cannot_write, obj))
    if isinstance(obj, np.ndarray):
        return obj.dtype != np.float64 or not obj.ndim
    return isinstance(obj, (set, bytes)) or (isinstance(obj, np.generic)
                                             and not isinstance(obj, (float, str)))


def test_write_json_on_documents():
    """The documents as built, arrays and all, against `jsonable`'s copy."""
    s, seq, orb = built_cell(8, 0.5)
    for sig in (17, 9, 3):
        for doc in (orbit_document(s, seq, orb)[0], simplex_document(s),
                    sweep_document(run_sweep((2, 3), (1.0, 40.0)))):
            assert json_text(doc, sig) == reference_text(doc, sig)
