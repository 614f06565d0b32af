"""End-to-end tests of the command-line interface via main(argv)."""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hypbilliards import cli, flow, orbit, report, simplex, weights
from hypbilliards.geometry import Region, mink_inner
from hypbilliards.cli import main, parse_dims, parse_floats
from hypbilliards.simplex import build


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_dims():
    assert parse_dims("3") == (3,)
    assert parse_dims("2..5") == (2, 3, 4, 5)
    assert parse_dims("2,4,7") == (2, 4, 7)
    assert parse_dims("1,3..4") == (1, 3, 4)
    for bad in ("5..2", "", ","):
        with pytest.raises(ValueError):
            parse_dims(bad)


def test_parse_floats():
    assert parse_floats("0.5,1,2") == (0.5, 1.0, 2.0)
    with pytest.raises(ValueError):
        parse_floats(",")


def test_simplex_document_on_stdout(capsys):
    code, out, _ = run(capsys, "simplex", "--dim", "2", "--cosh-edge", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 2
    assert doc["edge"] == pytest.approx(math.acosh(2.0), rel=1e-15)
    m = doc["metrics"]
    assert m["expected_cosh_sq_vertex_center"] == pytest.approx(5.0 / 3.0, rel=1e-15)
    assert m["expected_cosh_sq_vertex_facet_center"] == pytest.approx(8.0 / 3.0, rel=1e-15)
    assert m["expected_centroid_weight"] == pytest.approx(math.sqrt(15.0), rel=1e-15)
    # full-precision documents reload bit for bit
    assert json.loads(json.dumps(doc)) == doc


def test_cosh_edge_takes_precedence(capsys):
    code, out, _ = run(capsys, "simplex", "--dim", "2", "--edge", "5",
                       "--cosh-edge", "2")
    assert code == 0
    assert json.loads(out)["edge"] == pytest.approx(math.acosh(2.0), rel=1e-15)


def test_simplex_precision_flag(capsys):
    code, out, _ = run(capsys, "simplex", "--dim", "2", "--edge", "1",
                       "--precision", "3")
    assert code == 0
    w = json.loads(out)["metrics"]["expected_centroid_weight"]
    assert w == float(f"{math.sqrt(3.0 * (2.0 * math.cosh(1.0) + 1.0)):.3g}")


@pytest.mark.parametrize("argv", [
    ("simplex", "--dim", "0", "--edge", "1"),        # dimension too small
    ("simplex", "--dim", "3"),                        # no edge given
    ("simplex", "--dim", "3", "--edge", "-1"),        # negative edge
    ("simplex", "--dim", "3", "--cosh-edge", "0.5"),  # cosh below 1
    ("orbit", "--dim", "1", "--edge", "1"),           # no weight profile below n=2
    ("verify", "--dims", "1..3", "--edges", "1"),     # sweep includes n=1
    ("simplex", "--dim", "3", "--edge", "1", "--precision", "0"),
    ("orbit", "--dim", "3", "--edge", "800"),        # cosh of the edge overflows
    ("simplex", "--dim", "3", "--edge", "1", "--precision", "18"),
    ("verify", "--dims", "3..2"),                     # empty range
    ("verify", "--dims", ""),                         # no dimensions
    ("verify", "--cosh-edges", "1"),                  # cosh not above 1
    ("verify", "--edges", "0"),                       # zero edge
    ("simulate", "--dim", "2", "--edge", "1",         # direction without start
     "--dir-coords", "0,1,-1,0"),
    ("simulate", "--dim", "2", "--edge", "1",         # empty coordinate
     "--start-coords", "1,0,,0", "--dir-coords", "0,1,-1,0"),
    ("simulate", "--dim", "2", "--edge", "1", "--steps", "-1"),
    ("orbit", "--dim", "3", "--edge", "1", "--tol", "nan"),
    ("orbit", "--dim", "3", "--edge", "1", "--tol", "-1"),
    ("simulate", "--dim", "3", "--edge", "1", "--steps", "2", "--perturb", "nan"),
])
def test_usage_errors_exit_two(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err  # some explanation lands on stderr


def test_unknown_flag_exits_two(capsys):
    assert main(["simplex", "--dim", "3", "--no-such-flag"]) == 2
    capsys.readouterr()


def test_missing_subcommand_exits_two(capsys):
    assert main([]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ("simplex", "--dim", "2", "--edge", "1", "--json"),
    ("orbit", "--dim", "2", "--edge", "1", "--json"),
    ("orbit", "--dim", "2", "--edge", "1", "--json", os.devnull, "--disk-coords"),
    ("verify", "--dims", "2", "--edges", "1", "--report"),
    ("simulate", "--dim", "2", "--edge", "1", "--steps", "3", "--csv"),
])
def test_unwritable_output_path_is_usage_error(capsys, monkeypatch, tmp_path, argv):
    """An output file in a missing directory exits 2 with one `error:` line, not with
    a traceback and the verification-failure code, before any cell is built."""
    def no_work(*args, **kwargs):
        pytest.fail("built or flew before checking the output path")

    for mod, name in ((simplex, "build"), (flow, "iterate"), (report, "run_sweep")):
        monkeypatch.setattr(mod, name, no_work)
    path = tmp_path / "missing" / "out"
    code, _, err = run(capsys, *argv, str(path))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(path) in err
    assert not path.parent.exists()


@pytest.mark.parametrize("argv", [
    ("simplex", "--dim", "3", "--edge", "1"),
    ("orbit", "--dim", "3", "--edge", "1"),
    ("verify", "--dims", "3", "--edges", "1"),
    ("simulate", "--dim", "3", "--edge", "1", "--steps", "1"),
])
def test_unallocatable_dim_is_usage_error(capsys, monkeypatch, argv):
    """A `--dim` whose arrays cannot be allocated (`simplex --dim 10000000` asks numpy
    for 728 TiB) exits 2 with one `error:` line, not with a traceback.  The failed
    allocation is simulated, so the test allocates nothing large."""
    def unallocatable(n):
        raise MemoryError("Unable to allocate 728. TiB for an array")

    monkeypatch.setattr(simplex, "simplex_directions", unallocatable)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: out of memory: Unable to allocate 728. TiB for an array\n"


@pytest.mark.parametrize("where", ["missing/out", "missing/out/", "file/out", "dir", "dir/",
                                   "dir/new/"])
def test_output_path_error_is_the_one_open_would_print(capsys, monkeypatch, tmp_path, where):
    """The early check names the path with the message of the `open` that follows
    the work: a missing parent, a parent that is a file, a path that names a directory."""
    (tmp_path / "file").write_text("kept\n")
    (tmp_path / "dir").mkdir()
    path = os.path.join(tmp_path, where)  # a Path would drop the trailing separator
    with pytest.raises(OSError) as opened:
        open(path, "w")
    monkeypatch.setattr(simplex, "build", lambda *args: pytest.fail("built a cell"))
    code, out, err = run(capsys, "simplex", "--dim", "2", "--edge", "1", "--json", path)
    assert (code, out, err) == (2, "", f"error: {opened.value}\n")
    assert (tmp_path / "file").read_text() == "kept\n"


def test_breakdown_leaves_an_existing_output_file_unchanged(capsys, tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"earlier run\r\n")
    code, out, err = run(capsys, "simulate", "--dim", "3", "--edge", "1e-9", "--csv", str(path))
    assert (code, out) == (5, "")
    assert err.startswith("numerical breakdown: ")
    assert path.read_bytes() == b"earlier run\r\n"


def test_empty_cosh_edges_is_usage_error(capsys):
    """An empty --cosh-edges fails as an empty --edges does; it does not fall back to
    the default edges."""
    for flag in ("--edges=", "--cosh-edges="):
        code, out, err = run(capsys, "verify", "--dims", "2", flag)
        assert (code, out, err) == (2, "", "error: no values in ''\n"), flag


def test_orbit_verifies_and_writes_files(capsys, tmp_path):
    jpath = tmp_path / "orbit.json"
    cpath = tmp_path / "orbit.csv"
    code, out, _ = run(capsys, "orbit", "--dim", "3", "--edge", "1",
                       "--json", str(jpath), "--disk-coords", str(cpath))
    assert code == 0
    assert out == ""
    doc = json.loads(jpath.read_text())
    assert doc["checks"]["passed"] is True
    assert len(doc["orbit"]["points"]) == 4
    assert doc["mass_sequence"]["lambda"] > 2.0
    lines = cpath.read_text().splitlines()
    assert lines[0] == "index,mass,disk0,disk1,disk2"
    assert len(lines) == 5


def count_builds(monkeypatch):
    """Count calls to the three cell builders, wherever they are called from."""
    counts = {}
    for mod, name in ((simplex, "build"), (weights, "build_sequence"),
                      (orbit, "construct_orbit")):
        def counted(*args, _orig=getattr(mod, name), _name=name, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    return counts


def test_orbit_builds_each_part_once(capsys, monkeypatch, tmp_path):
    counts = count_builds(monkeypatch)
    code, _, _ = run(capsys, "orbit", "--dim", "3", "--edge", "1",
                     "--json", str(tmp_path / "orbit.json"),
                     "--disk-coords", str(tmp_path / "orbit.csv"))
    assert code == 0
    assert counts == {"build": 1, "build_sequence": 1, "construct_orbit": 1}


def test_verify_builds_each_cell_once(capsys, monkeypatch):
    counts = count_builds(monkeypatch)
    code, _, _ = run(capsys, "verify")
    assert code == 0
    assert counts == {"build": 21, "build_sequence": 21, "construct_orbit": 21}


def test_orbit_impossible_tolerance_fails(capsys):
    code, out, _ = run(capsys, "orbit", "--dim", "3", "--edge", "1",
                       "--tol", "1e-30")
    assert code == 1
    assert json.loads(out)["checks"]["passed"] is False


def test_verify_sweep_report_and_stderr(capsys, tmp_path):
    rpath = tmp_path / "report.json"
    code, out, err = run(capsys, "verify", "--dims", "4,2,3", "--edges", "1",
                         "--report", str(rpath))
    assert code == 0
    assert out == ""
    doc = json.loads(rpath.read_text())
    assert [c["n"] for c in doc["cells"]] == [2, 3, 4]
    assert doc["passed"] is True
    lines = err.strip().splitlines()
    assert lines[0] == "cell n=2 edge=1: pass"
    assert lines[-1] == "sweep over 3 cells: pass"


def test_verify_failure_exit_code(capsys):
    code, out, err = run(capsys, "verify", "--dims", "2", "--edges", "1",
                         "--tol", "1e-30")
    assert code == 1
    assert json.loads(out)["passed"] is False
    assert "FAIL" in err


@pytest.mark.parametrize("edges,bad,failure", [
    ("1,40", 40.0, "ValueError: cannot normalize non-timelike vector"),
    ("1e-9,1", 1e-9, "ValueError: points coincide"),
])
def test_verify_reports_broken_cell_and_goes_on(capsys, tmp_path, edges, bad, failure):
    rpath = tmp_path / "report.json"
    code, out, err = run(capsys, "verify", "--dims", "3", "--edges", edges,
                         "--report", str(rpath))
    assert code == 1
    assert out == ""
    cells = {c["edge"]: c for c in json.loads(rpath.read_text())["cells"]}
    assert cells[1.0]["passed"] is True
    assert cells[bad]["passed"] is False and cells[bad]["residuals"] == {}
    assert len(cells[bad]["failures"]) == 1 and cells[bad]["failures"][0].startswith(failure)
    assert err.strip().splitlines()[-1] == "sweep over 2 cells: FAIL"


def test_verify_records_a_corner_hitting_cell_and_goes_on(capsys, tmp_path):
    """A closure flow that hits a corner fails its cell; it does not end the sweep."""
    rpath = tmp_path / "report.json"
    code, out, err = run(capsys, "verify", "--dims", "3,9", "--edges", "1,2.1544346900318822e-08",
                         "--report", str(rpath))
    assert (code, out) == (1, "")
    cells = {(c["n"], c["edge"]): c for c in json.loads(rpath.read_text())["cells"]}
    assert len(cells) == 4
    assert cells[3, 1.0]["passed"] and cells[9, 1.0]["passed"]
    corner = cells[9, 2.1544346900318822e-08]
    assert corner["residuals"] == {}
    assert corner["failures"] == [
        "NonSmoothHitError: bounce 0: hit the lower-boundary region of the boundary"]
    assert err.strip().splitlines()[-1] == "sweep over 4 cells: FAIL"


@st.composite
def cells(draw):
    """A dimension in 2..12 and an edge log-uniform in [1e-8, max_edge(n)]."""
    n = draw(st.integers(2, 12))
    top = simplex.max_edge(n)
    return n, min(math.exp(draw(st.floats(math.log(1e-8), math.log(top)))), top)


@given(cells())
@example((9, 2.1544346900318822e-08))  # a corner hit in the closure flow
@example((5, simplex.max_edge(5)))  # a bounce point's squared sum overflows
@settings(max_examples=60, deadline=None)
def test_every_cell_ends_in_a_classified_outcome(tmp_path_factory, cell):
    """No (n, edge) in the domain ends in a traceback: `verify` writes its one-cell
    report and passes or fails it, and `orbit` exits with a documented code."""
    n, edge = cell
    rpath = tmp_path_factory.mktemp("verify") / "report.json"
    assert main(["verify", "--dims", str(n), "--edges", repr(edge),
                 "--report", str(rpath)]) in (0, 1)
    assert len(json.loads(rpath.read_text())["cells"]) == 1
    assert main(["orbit", "--dim", str(n), "--edge", repr(edge),
                 "--json", os.devnull]) in (0, 1, 4, 5)


def test_verify_edge_beyond_cosh_range_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--dims", "3", "--edges", "1,800")
    assert (code, out) == (2, "")
    assert err == f"error: edge length 800.0 exceeds {weights.MAX_EDGE!r}, where cosh overflows\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv,n,edge", [
    (("simplex", "--dim", "1", "--edge", "38"), 1, 38.0),
    (("simplex", "--dim", "2", "--edge", "709"), 2, 709.0),
    (("orbit", "--dim", "3", "--edge", "708.5"), 3, 708.5),
    (("simulate", "--dim", "1", "--edge", "38"), 1, 38.0),
])
def test_edge_beyond_dimension_bound_is_usage_error(capsys, argv, n, edge):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (f"error: edge length {edge!r} exceeds {simplex.max_edge(n)!r}, "
                   f"the longest edge of a regular {n}-simplex in double precision\n")


def test_verify_edge_beyond_larger_dimensions_fails_those_cells(capsys):
    code, out, err = run(capsys, "verify", "--dims", "2,128", "--edges", "705")
    assert code == 1
    cells = {c["n"]: c for c in json.loads(out)["cells"]}
    assert cells[128]["failures"] == [
        f"ValueError: edge length 705.0 exceeds {simplex.max_edge(128)!r}, "
        "the longest edge of a regular 128-simplex in double precision"
    ]
    assert cells[2]["residuals"] == {} and cells[2]["failures"][0].startswith("ValueError: ")
    assert err.strip().splitlines()[-1] == "sweep over 2 cells: FAIL"


@pytest.mark.parametrize("edge,code,prefix", [
    ("40", 5, "numerical breakdown: cannot normalize non-timelike vector"),
    ("1e-9", 5, "numerical breakdown: points coincide"),
    ("1e-200", 5, "numerical breakdown: edge length 1e-200 is too short"),
])
def test_orbit_breakdown_exit_codes(capsys, edge, code, prefix):
    got, out, err = run(capsys, "orbit", "--dim", "3", "--edge", edge)
    assert (got, out) == (code, "")
    assert err.startswith(prefix) and err.count("\n") == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n,edge", [("8", "1e-3"), ("16", "1e-3"), ("64", "1e-3"),
                                    ("128", "1e-2"), ("3", "1e-4"), ("3", "1e-5"),
                                    ("3", "1e-6"), ("3", "1e-7"), ("128", "1e-3")])
def test_orbit_small_edges_pass(capsys, tmp_path, n, edge):
    code, out, err = run(capsys, "orbit", "--dim", n, "--edge", edge,
                         "--json", str(tmp_path / "orbit.json"))
    assert (code, out, err) == (0, "", "")


def test_simplex_breakdown_exits_five(capsys, monkeypatch):
    def broken(n, edge):
        raise ValueError("cannot normalize non-timelike vector (<v,v> = 64.0)")

    monkeypatch.setattr(simplex, "build", broken)
    code, out, err = run(capsys, "simplex", "--dim", "3", "--edge", "1")
    assert (code, out) == (5, "")
    assert err == "numerical breakdown: cannot normalize non-timelike vector (<v,v> = 64.0)\n"


def test_segment_simplex_documents_build_on_the_whole_edge_grid(capsys):
    """At n = 1 each facet is one vertex, so the right-angle check has no terms,
    however the distance from the facet center to that vertex rounds."""
    for i in range(3623):  # edges 0.5, 0.51, ..., 36.72 below max_edge(1)
        doc = report.simplex_document(build(1, round(0.5 + 0.01 * i, 2)))
        assert doc["checks"]["right_angle"] == 0.0
    code, out, err = run(capsys, "simplex", "--dim", "1", "--edge", "10.418")
    assert (code, err) == (0, "")
    assert json.loads(out)["checks"]["right_angle"] == 0.0


def test_simulate_retraces_orbit(capsys):
    code, out, err = run(capsys, "simulate", "--dim", "3", "--edge", "1",
                         "--steps", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "step,facet,arclength,disk0,disk1,disk2"
    assert len(lines) == 9
    assert [row.split(",")[1] for row in lines[1:]] == ["1", "2", "3", "0"] * 2
    # the periodic orbit has equal flight lengths
    arcs = [float(row.split(",")[2]) for row in lines[1:]]
    assert max(arcs) - min(arcs) < 1e-12
    assert "8 bounces" in err


def test_simulate_zero_steps_header_only(capsys):
    code, out, _ = run(capsys, "simulate", "--dim", "2", "--edge", "1",
                       "--steps", "0")
    assert code == 0
    assert out.splitlines() == ["step,facet,arclength,disk0,disk1"]


def test_simulate_zero_steps_csv_file_holds_the_header_line_only(capsys, tmp_path):
    path = tmp_path / "trajectory.csv"
    code, out, err = run(capsys, "simulate", "--dim", "3", "--edge", "1",
                         "--steps", "0", "--csv", str(path))
    assert (code, out) == (0, "")
    assert path.read_bytes() == b"step,facet,arclength,disk0,disk1,disk2\n"
    assert err.startswith("0 bounces, total length 0,")


def test_simulate_corner_shot_exits_four(capsys):
    s = build(2, 1.0)
    start = ",".join(repr(float(x)) for x in s.circumcenter.coords)
    aim = ",".join(repr(float(x)) for x in s.vertex(0).coords)
    code, _, err = run(capsys, "simulate", "--dim", "2", "--edge", "1",
                       "--steps", "5", "--start-coords", start,
                       "--dir-coords", aim)
    assert code == 4
    assert "non-smooth" in err


def test_simulate_start_coords_validation(capsys):
    # not on the hyperboloid
    code, _, _ = run(capsys, "simulate", "--dim", "2", "--edge", "1",
                     "--start-coords", "1,1,0,0", "--dir-coords", "0,1,0,0")
    assert code == 2
    # on the hyperboloid but off the simplex slice
    t = 0.25
    start = ",".join(repr(float(x)) for x in (math.cosh(t), math.sinh(t), 0.0, 0.0))
    code, _, err = run(capsys, "simulate", "--dim", "2", "--edge", "1",
                       "--start-coords", start, "--dir-coords", "0,1,0,0")
    assert code == 2
    assert "slice" in err
    # a start in the slice with a direction out of it
    code, out, err = run(capsys, "simulate", "--dim", "2", "--edge", "1",
                         "--start-coords", "1,0,0,0", "--dir-coords", "0,1,0,0")
    assert (code, out) == (2, "")
    assert err == "error: state has left the simplex slice (defect 1.000e+00)\n"
    # one of the pair alone is rejected
    code, _, _ = run(capsys, "simulate", "--dim", "2", "--edge", "1",
                     "--start-coords", "1,0,0,0")
    assert code == 2


def test_simulate_segment_needs_a_given_launch(capsys):
    """At n = 1 there is no orbit to launch along, so the default launch is a usage
    error; a launch given by coordinates still runs."""
    code, out, err = run(capsys, "simulate", "--dim", "1", "--edge", "1", "--steps", "3")
    assert (code, out, err) == (2, "", "error: orbit construction needs n >= 2, got 1\n")
    code, out, err = run(capsys, "simulate", "--dim", "1", "--edge", "1", "--steps", "3",
                         "--start-coords", "1,0,0", "--dir-coords=0,1,-1")
    assert code == 0 and err.startswith("3 bounces")
    assert out.splitlines()[0] == "step,facet,arclength,disk0" and len(out.splitlines()) == 4


@pytest.mark.parametrize("start,direction,name,count", [
    ("1,0,0", "0,1,-1,0", "start-coords", 3),
    ("1,0,0,0,0", "0,1,-1,0", "start-coords", 5),
    ("1,0,0,0", "0,1,-1", "dir-coords", 3),
])
def test_simulate_coords_need_n_plus_two_entries(capsys, start, direction, name, count):
    code, out, err = run(capsys, "simulate", "--dim", "2", "--edge", "1",
                         "--start-coords", start, "--dir-coords", direction)
    assert (code, out) == (2, "")
    assert err == f"error: --{name} needs n+2 = 4 entries at n = 2, got {count}\n"


def test_simulate_leading_minus_needs_the_equals_form(capsys):
    """argparse reads a value that starts with '-' and holds a comma as a flag."""
    argv = ("simulate", "--dim", "2", "--edge", "1", "--steps", "2", "--start-coords", "1,0,0,0")
    code, out, _ = run(capsys, *argv, "--dir-coords=-0.0,1,-1,0")
    assert code == 0
    assert out.splitlines()[0] == "step,facet,arclength,disk0,disk1"
    assert len(out.splitlines()) == 3
    code, out, err = run(capsys, *argv, "--dir-coords", "-0.0,1,-1,0")
    assert (code, out) == (2, "")
    assert "expected one argument" in err


@pytest.mark.parametrize("i", range(4))
def test_simulate_nan_start_is_usage_error(capsys, i):
    start = ["1", "0", "0", "0"]
    start[i] = "nan"
    code, out, err = run(capsys, "simulate", "--dim", "2", "--edge", "1", "--steps", "2",
                         "--start-coords", ",".join(start), "--dir-coords", "0,1,-1,0")
    assert (code, out, err) == (2, "", "error: not on the unit hyperboloid: <x,x> = nan\n")


@pytest.mark.parametrize("x0", ["1e200", "inf"])
def test_simulate_non_finite_start_is_a_point_error(capsys, x0):
    """x0^2 overflows, so the on-sheet tolerance REP_TOL * x0^2 would admit any point."""
    code, out, err = run(capsys, "simulate", "--dim", "2", "--edge", "1",
                         "--start-coords", f"{x0},0,0,0", "--dir-coords", "0,1,-1,0")
    assert (code, out, err) == (2, "", "error: not on the unit hyperboloid: <x,x> = -inf\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("start,aim,message", [
    ("1,1e200,0,0", "0,1,-1,0", "not on the unit hyperboloid: <x,x> = inf"),
    ("1,0,0,0", "0,1e200,-1e200,0",
     "tangential component overflows when squared: <w,w> = inf"),
], ids=["start", "direction"])
def test_simulate_launch_whose_square_overflows_is_a_usage_error(capsys, start, aim, message):
    """A spacelike coordinate whose square overflows fails the point or tangent check
    it reaches, without a numpy overflow warning."""
    code, out, err = run(capsys, "simulate", "--dim", "2", "--edge", "1", "--steps", "3",
                         f"--start-coords={start}", f"--dir-coords={aim}")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_simulate_usage_errors_come_before_any_cell_is_built(capsys, monkeypatch):
    def no_build(n, edge):
        pytest.fail("simulate built a simplex before it checked its arguments")

    monkeypatch.setattr(simplex, "build", no_build)
    code, out, err = run(capsys, "simulate", "--dim", "2", "--edge", "1",
                         "--start-coords", "1,0,0,0")
    assert (code, out, err) == (2, "", "error: --start-coords and --dir-coords must be given together\n")
    code, out, err = run(capsys, "simulate", "--dim", "1", "--edge", "1")
    assert (code, out, err) == (2, "", "error: orbit construction needs n >= 2, got 1\n")


def test_simulate_breakdown_exits_five(capsys):
    code, out, err = run(capsys, "simulate", "--dim", "3", "--edge", "1e-9", "--steps", "3")
    assert (code, out) == (5, "")
    # cosh(1e-9) rounds to 1, so every vertex is the circumcenter and the launch
    # direction D has no part tangent to the launch point
    assert err == "numerical breakdown: vector has no spacelike tangential component\n"


def test_simulate_flow_breakdown_exit_code_follows_the_launch(capsys, monkeypatch):
    """Flowing the default launch, perturbed or not, breaks down with exit 5; a
    launch from --start-coords/--dir-coords is the user's, so its errors stay exit 2."""
    message = "bounce 0: state has left the simplex slice (defect 2.000e-09)"

    def broken(s, state, steps):
        raise ValueError(message)

    monkeypatch.setattr(flow, "iterate", broken)
    for extra in ((), ("--perturb", "0.1")):
        code, out, err = run(capsys, "simulate", "--dim", "2", "--edge", "1", *extra)
        assert (code, out, err) == (5, "", f"numerical breakdown: {message}\n")
    s = build(2, 1.0)
    start = ",".join(repr(float(x)) for x in s.circumcenter.coords)
    aim = ",".join(repr(float(x)) for x in s.vertex(0).coords)
    code, out, err = run(capsys, "simulate", "--dim", "2", "--edge", "1",
                         "--start-coords", start, "--dir-coords", aim)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_simulate_perturbation_seed_check_exits_two(capsys, monkeypatch):
    class ZeroDraw:  # a seed whose draw has no part off the launch direction
        def random(self):
            return 0.5  # 2 * 0.5 - 1 = 0 in every coordinate

    monkeypatch.setattr(random, "Random", lambda seed: ZeroDraw())
    code, out, err = run(capsys, "simulate", "--dim", "2", "--edge", "1", "--perturb", "0.1")
    assert (code, out) == (2, "")
    assert err == "error: degenerate perturbation direction; change the seed\n"


def test_simulate_perturbation_deterministic(capsys):
    args = ("simulate", "--dim", "2", "--edge", "1", "--steps", "12",
            "--perturb", "0.1")
    code1, out1, _ = run(capsys, *args, "--seed", "3")
    code2, out2, _ = run(capsys, *args, "--seed", "3")
    code3, out3, _ = run(capsys, *args, "--seed", "4")
    assert code1 == code2 == code3 == 0
    assert out1 == out2
    assert out1 != out3


def _default_launch(n, edge):
    """The simplex, the default launch and the facet that P_0 classifies on."""
    s = build(n, edge)
    start = flow.launch_state(orbit.construct_orbit(s, weights.build_sequence(n, edge)))
    return s, start, simplex.classify_point(s, start.position.coords)[1]


def test_perturbed_launches_at_n2_take_two_directions():
    """At n = 2 the slice's tangent plane at P_0 is 2-dimensional, so a seed only
    picks the sense of the rotation: seeds 0..49 give two launch directions, equal
    to rounding, which sum to 2 cos(eps) D.  At n = 3 the 50 seeds give 50."""
    eps = 0.3
    for n, want in ((2, 2), (3, 50)):
        s, start, facet = _default_launch(n, 1.0)
        dirs = {tuple(np.round(cli._perturbed(start, s, eps, seed, facet).direction, 9).tolist())
                for seed in range(50)}
        assert len(dirs) == want
        if n == 2:
            plus, minus = np.array(sorted(dirs))
            assert np.abs(plus + minus - 2.0 * math.cos(eps) * start.direction).max() < 1e-8


def _projected_draw(state, s, seed, passes):
    """`cli._perturbed`'s draw w, with its ones, x and d projections run ``passes``
    times, before normalization."""
    rng = random.Random(seed)
    x, d, ones = state.position.coords, state.direction, s.slice_vector()
    w = np.array([2.0 * rng.random() - 1.0 for _ in range(x.shape[0])])
    for _ in range(passes):
        w -= (mink_inner(w, ones) / mink_inner(ones, ones)) * ones
        w += mink_inner(x, w) * x
        w -= mink_inner(d, w) * d
    return w


@pytest.mark.parametrize("edge,seed", [("0.5", 9955), ("3", 8551), ("3", 9106), ("3", 26155),
                                       ("10", 18105), ("10", 27171)])
def test_perturbed_n2_launches_need_the_second_projection_pass(capsys, edge, seed):
    """At n = 2 the draw's part off ones, x and d can be 1e-4 of it.  After one pass of
    the projections, the normalization lifts the rounding left in w above `FlowState`'s
    checks, which reject these seeds' launches with `direction must be ...`; after the
    second pass that `cli._perturbed` makes, they run."""
    eps = 0.3
    s, start, facet = _default_launch(2, float(edge))
    got = cli._perturbed(start, s, eps, seed, facet).direction
    for passes in (1, 2):
        w = _projected_draw(start, s, seed, passes)
        v = math.cos(eps) * start.direction + math.sin(eps) * (w / math.sqrt(mink_inner(w, w)))
        if passes == 1:
            with pytest.raises(ValueError, match="^direction must be "):
                flow.FlowState(start.position, v)
        else:
            assert v.tobytes() == got.tobytes()
    code, _, err = run(capsys, "simulate", "--dim", "2", "--edge", edge, "--steps", "2",
                       "--perturb", str(eps), "--seed", str(seed))
    assert (code, err[:10]) == (0, "2 bounces,")


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 8), edge=st.floats(0.25, 10.0),
       eps=st.floats(-math.pi, math.pi, exclude_min=True, exclude_max=True),
       seed=st.integers(0, 2**31 - 1))
@example(n=2, edge=3.0, eps=0.3, seed=8551)
@example(n=2, edge=10.0, eps=0.3, seed=18105)
def test_perturbed_launch_is_a_unit_tangent_or_a_usage_error(n, edge, eps, seed):
    """A perturbed default launch either is a unit tangent at P_0, to rounding scaled
    as `FlowState` scales its checks, or is refused as turned out of its facet or as
    a degenerate draw; `FlowState` rejects none."""
    s, start, facet = _default_launch(n, edge)
    try:
        v = cli._perturbed(start, s, eps, seed, facet).direction
    except ValueError as err:
        assert (str(err).startswith(f"--perturb {eps!r} turns the launch out of the simplex")
                or str(err) == "degenerate perturbation direction; change the seed"), err
        return
    x = start.position.coords
    assert abs(mink_inner(v, v) - 1.0) / max(1.0, v[0] * v[0]) < 1e-14
    assert abs(mink_inner(x, v)) / max(1.0, abs(x[0] * v[0])) < 1e-14


def test_no_command_loads_numpy_random():
    """In a fresh interpreter, `simplex`, `orbit`, `verify` and `simulate` with and
    without `--perturb` run and load no `numpy.random` module: the perturbation is
    drawn with the standard library's generator."""
    probe = """if True:
        import contextlib, io, sys
        from hypbilliards.cli import main
        runs = [["simplex", "--dim", "3", "--edge", "1"], ["orbit", "--dim", "3", "--edge", "1"],
                ["verify", "--dims", "2..3", "--edges", "1"],
                ["simulate", "--dim", "3", "--edge", "1", "--steps", "10"],
                ["simulate", "--dim", "3", "--edge", "1", "--steps", "10", "--perturb", "0.3"]]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(argv) for argv in runs]
        print(codes, sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "random"]))
    """
    path = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[0, 0, 0, 0, 0] []\n"


@pytest.mark.parametrize("eps", ["-2", "3.1"])
def test_simulate_outward_perturbed_launch_is_usage_error(capsys, eps):
    """A perturbation that turns the launch at P_0 out of the simplex leaves the flow
    no forward path; it used to end in exit 5 (no forward facet crossing) or exit 4."""
    code, out, err = run(capsys, "simulate", "--dim", "3", "--edge", "1", "--steps", "2",
                         "--perturb", eps)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: --perturb {float(eps)!r} turns the launch out of the "
                          "simplex: direction margin -")
    assert err.endswith(" at facet 0 is not positive\n")


def test_simulate_perturbed_launches_run_or_are_rejected(capsys):
    """Every perturbed default launch either flows or is rejected before the flow
    as turned out of its launch facet: none ends in a corner hit or a breakdown."""
    codes = []
    for n in (2, 3, 8):
        facet = _default_launch(n, 1.0)[2]
        for eps in ("-3", "-1", "0.3", "1.5", "3.1"):
            for seed in ("0", "1", "2"):
                code, _, err = run(capsys, "simulate", "--dim", str(n), "--edge", "1",
                                   "--steps", "5", "--perturb", eps, "--seed", seed)
                codes.append(code)
                if code == 2:
                    assert err.endswith(f" at facet {facet} is not positive\n")
                else:
                    assert code == 0, (n, eps, seed, err)
    assert 0 in codes and 2 in codes


def test_simulate_perturbed_launch_checks_the_facet_p0_classifies_on(capsys):
    """The outward check of a perturbed default launch reads the facet that P_0
    classifies on.  At (64, 1e-6) P_0 classifies as lower-boundary, so no facet is
    checked and the flow stops at bounce 0 (a check of facet 0 would exit 2); at
    (3, 1) P_0 is on facet 0, and the check names it."""
    s = build(64, 1e-6)
    start = flow.launch_state(orbit.construct_orbit(s, weights.build_sequence(64, 1e-6)))
    assert simplex.classify_point(s, start.position.coords)[:2] == (
        Region.LOWER_BOUNDARY, None)
    code, out, err = run(capsys, "simulate", "--dim", "64", "--edge", "1e-6", "--steps", "3",
                         "--perturb", "-2")
    assert (code, out) == (4, "")
    assert err == "non-smooth trajectory: bounce 0: hit the outside region of the boundary\n"
    code, out, err = run(capsys, "simulate", "--dim", "3", "--edge", "1", "--steps", "2",
                         "--perturb", "-2")
    assert (code, out) == (2, "")
    assert err.endswith(" at facet 0 is not positive\n")


def test_simulate_flows_where_orbit_breaks_down(capsys):
    """At (3, 40) the orbit passes `verify_orbit` and the flow runs from its launch;
    only `orbit`'s vertex-reflection check breaks down there (exit 5)."""
    code, out, err = run(capsys, "simulate", "--dim", "3", "--edge", "40", "--steps", "3")
    assert code == 0 and out.count("\n") == 4
    assert err.startswith("3 bounces, total length ")


@pytest.mark.parametrize("extra", [(), ("--perturb", "0.1")])
def test_simulate_negative_seed_is_usage_error(capsys, extra):
    code, out, err = run(capsys, "simulate", "--dim", "3", "--edge", "1", "--steps", "2",
                         "--seed", "-1", *extra)
    assert (code, out, err) == (2, "", "error: perturbation seed must be non-negative, got -1\n")


def test_verify_default_grid_arguments():
    from hypbilliards.cli import build_parser
    args = build_parser().parse_args(["verify"])
    assert parse_dims(args.dims) == tuple(range(2, 9))
    assert parse_floats(args.edges) == (0.5, 1.0, 2.0)


def test_main_builds_its_parser_once(capsys, monkeypatch):
    """Every `main` call after the first reuses the parser of the first, and a parser
    reused after a usage error still parses the next call."""
    builds, real = [], cli.build_parser

    def counted():
        builds.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        for argv in (("simplex", "--dim", "2", "--edge", "1"), ("simplex", "--dim", "x"),
                     ("simplex", "--dim", "3", "--edge", "1")):
            code, out, _ = run(capsys, *argv)
            assert code == (2 if "x" in argv else 0) and (code == 2) == (out == "")
    finally:
        cli._parser.cache_clear()  # the next `main` builds from the real `build_parser`
    assert builds == [1]
