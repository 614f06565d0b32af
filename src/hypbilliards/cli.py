"""Command-line interface.

Four subcommands:

  simplex    build one regular simplex and print its JSON document
  orbit      construct and verify the closed orbit for one cell
  verify     sweep an (n, edge) grid of cells and gate on tolerances
  simulate   run the billiard flow and emit bounce points as CSV

Exit codes: 0 success, 1 verification failure, 2 usage error (an output
file that cannot be opened among them), 4 non-smooth trajectory hit
(corner or grazing), 5 numerical breakdown of a valid `simplex` or `orbit`
cell or of `simulate`'s default launch.

JSON goes to stdout (or --json/--report FILE); floats carry 17 significant
digits by default so documents round-trip bit for bit.  CSV uses commas,
'.' decimal marks and '\\n' line ends, with a header row.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import random
import sys

import numpy as np

from . import flow as flow_mod
from . import orbit as orbit_mod
from . import report as report_mod
from . import simplex as simplex_mod
from . import weights as weights_mod
from .flow import NonSmoothHitError
from .geometry import HPoint, mink_inner, tangent_part

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_NONSMOOTH = 4
EXIT_NUMERIC = 5

# bytes an output file collects before a write: a 2.3 MB document goes out in a few
OUTPUT_BUFFER = 1 << 20


def parse_dims(spec: str) -> tuple[int, ...]:
    """Dimension lists: '3', '2..5', '2,4,7' or mixtures thereof."""
    out: list[int] = []
    for item in spec.split(","):
        item = item.strip()
        if ".." in item:
            lo_s, hi_s = item.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ValueError(f"empty dimension range {item!r}")
            out.extend(range(lo, hi + 1))
        elif item:
            out.append(int(item))
    if not out:
        raise ValueError(f"no dimensions in {spec!r}")
    return tuple(out)


def parse_floats(spec: str) -> tuple[float, ...]:
    out = tuple(float(x) for x in spec.split(",") if x.strip())
    if not out:
        raise ValueError(f"no values in {spec!r}")
    return out


def _resolve_edges(edges, cosh_edges) -> tuple[float, ...]:
    """Edge lengths, preferring --cosh-edge values when both forms are given."""
    if cosh_edges is not None:
        for c in cosh_edges:
            if c <= 1.0:
                raise ValueError(f"cosh of a positive edge must exceed 1, got {c}")
        return tuple(math.acosh(c) for c in cosh_edges)
    if edges is None:
        raise ValueError("need --edge or --cosh-edge")
    for a in edges:
        if a <= 0.0:
            raise ValueError(f"edge length must be positive, got {a}")
    return tuple(edges)


def _emit_json(doc, path: str | None, precision: int) -> None:
    if path:
        with open(path, "w", buffering=OUTPUT_BUFFER) as fh:
            report_mod.write_json(fh, doc, precision)
            fh.write("\n")
    else:
        report_mod.write_json(sys.stdout, doc, precision)
        sys.stdout.write("\n")


def _emit_csv(header, rows, path: str | None) -> None:
    if path:
        with open(path, "w", newline="", buffering=OUTPUT_BUFFER) as fh:
            report_mod.write_csv(fh, header, rows)
    else:
        report_mod.write_csv(sys.stdout, header, rows)


def _tolerances(args: argparse.Namespace) -> report_mod.Tolerances:
    if args.tol is not None:
        return report_mod.Tolerances.uniform(args.tol)
    return report_mod.Tolerances()


def _breakdown(err: Exception) -> int:
    print(f"numerical breakdown: {err}", file=sys.stderr)
    return EXIT_NUMERIC


def cmd_simplex(args: argparse.Namespace) -> int:
    # `check_args` accepted the input, so an error here is the arithmetic's
    try:
        doc = report_mod.simplex_document(simplex_mod.build(args.dim, args.edge))
    except (ValueError, ArithmeticError) as err:
        return _breakdown(err)
    _emit_json(doc, args.json_path, args.precision)
    return EXIT_OK


def cmd_orbit(args: argparse.Namespace) -> int:
    # `check_args` accepted the input, so an error here is the arithmetic's
    try:
        s = simplex_mod.build(args.dim, args.edge)
        seq = weights_mod.build_sequence(args.dim, args.edge)
        orb = orbit_mod.construct_orbit(s, seq)
        doc, passed = report_mod.orbit_document(s, seq, orb, _tolerances(args))
    except (ValueError, ArithmeticError) as err:
        return _breakdown(err)
    _emit_json(doc, args.json_path, args.precision)
    if args.disk_path:
        header, rows = report_mod.orbit_rows(s, orb, args.precision)
        _emit_csv(header, rows, args.disk_path)
    return EXIT_OK if passed else EXIT_VERIFY


def cmd_verify(args: argparse.Namespace) -> int:
    rep = report_mod.run_sweep(args.dims, args.edges, _tolerances(args))
    doc = report_mod.sweep_document(rep)
    _emit_json(doc, args.report_path, args.precision)
    for cell in rep.cells:
        status = "pass" if cell.passed else "FAIL"
        print(f"cell n={cell.n} edge={cell.edge:g}: {status}", file=sys.stderr)
    verdict = "pass" if rep.passed else "FAIL"
    print(f"sweep over {len(rep.cells)} cells: {verdict}", file=sys.stderr)
    return EXIT_OK if rep.passed else EXIT_VERIFY


def _perturbed(state: flow_mod.FlowState, s: simplex_mod.RegularSimplex,
               eps: float, seed: int, facet: int | None) -> flow_mod.FlowState:
    """Rotate the direction by angle eps inside the simplex slice.

    The plane of the rotation holds d and w, a draw of ``random.Random(seed)``
    with each coordinate uniform in [-1, 1) and its ones, x and d components
    removed.  The standard library's generator loads no `numpy.random`, and
    its draws are exact dyadic numbers with no libm call, so a seed draws the
    same w on every platform.  The three projections run twice: at n = 2 the
    part of w they leave can be 1e-4 of the draw, and one pass leaves rounding
    that the normalization lifts above the flow's `<v,v>` and `<x,v>` checks.

    A launch from ``facet`` (None checks none) that the rotation turns out of the
    simplex, or along the facet, is a usage error: the flow has no forward path from it.
    """
    rng = random.Random(seed)
    x = state.position.coords
    d = state.direction
    ones = s.slice_vector()
    w = np.array([2.0 * rng.random() - 1.0 for _ in range(x.shape[0])])
    for _ in range(2):
        w -= (mink_inner(w, ones) / mink_inner(ones, ones)) * ones
        w += mink_inner(x, w) * x
        w -= mink_inner(d, w) * d
    norm = math.sqrt(mink_inner(w, w))
    if norm < 1e-12:
        raise ValueError("degenerate perturbation direction; change the seed")
    w /= norm
    out = flow_mod.FlowState(state.position, math.cos(eps) * d + math.sin(eps) * w)
    if facet is not None:
        margin = mink_inner(out.direction, s.normal_coords[facet])
        if not margin > 0.0:
            raise ValueError(f"--perturb {eps!r} turns the launch out of the simplex: "
                             f"direction margin {margin!r} at facet {facet} is not positive")
    return out


def cmd_simulate(args: argparse.Namespace) -> int:
    # a launch the user gave fails as a usage error, the default one as a breakdown
    given = args.start_coords is not None or args.dir_coords is not None
    if not given and args.dim < 2:  # there is no orbit to launch along
        raise ValueError(f"orbit construction needs n >= 2, got {args.dim}")
    try:
        s = simplex_mod.build(args.dim, args.edge)
        if not given:
            seq = weights_mod.build_sequence(args.dim, args.edge)
            state = flow_mod.launch_state(orbit_mod.construct_orbit(s, seq))
    except (ValueError, ArithmeticError) as err:
        return _breakdown(err)
    if given:
        if args.start_coords is None or args.dir_coords is None:
            raise ValueError("--start-coords and --dir-coords must be given together")
        p = HPoint(args.start_coords)
        state = flow_mod.FlowState(p, tangent_part(p.coords, args.dir_coords))
    if args.perturb:  # a given launch is not checked against a facet
        facet = None if given else simplex_mod.classify_point(s, state.position.coords)[1]
        state = _perturbed(state, s, args.perturb, args.seed, facet)
    try:
        traj = flow_mod.iterate(s, state, args.steps)
    except (ValueError, ArithmeticError) as err:
        if given:
            raise
        return _breakdown(err)
    header, rows = report_mod.trajectory_rows(s, traj, args.precision)
    _emit_csv(header, rows, args.csv_path)
    print(
        f"{len(traj)} bounces, total length {traj.total_length:.6g}, "
        f"max invariant drift {traj.max_drift:.3e}",
        file=sys.stderr,
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypbilliards",
        description="Closed billiard orbits in regular hyperbolic simplices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, func, summary, plural=False):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        if plural:
            p.add_argument("--dims", default="2..8",
                           help="dimensions, e.g. '3', '2..5', '2,4,7' (default 2..8)")
            p.add_argument("--edges", default="0.5,1,2",
                           help="edge lengths, comma separated (default 0.5,1,2)")
            p.add_argument("--cosh-edges", default=None,
                           help="edge cosh values; takes precedence over --edges")
        else:
            p.add_argument("--dim", type=int, required=True, help="simplex dimension n")
            p.add_argument("--edge", type=float, default=None, help="edge length a")
            p.add_argument("--cosh-edge", type=float, default=None,
                           help="cosh of the edge; takes precedence over --edge")
        p.add_argument("--precision", type=int, default=17,
                       help="significant digits for serialized floats (default 17)")
        return p

    p_simplex = add_command("simplex", cmd_simplex, "build one simplex, print JSON")
    p_simplex.add_argument("--json", dest="json_path", default=None, help="write JSON here")

    p_orbit = add_command("orbit", cmd_orbit, "construct and verify the closed orbit")
    p_orbit.add_argument("--json", dest="json_path", default=None, help="write JSON here")
    p_orbit.add_argument("--disk-coords", dest="disk_path", default=None,
                         help="write bounce points as CSV in disk coordinates")
    p_orbit.add_argument("--tol", type=float, default=None,
                         help="override all verification tolerances")

    p_verify = add_command("verify", cmd_verify, "sweep a grid of cells", plural=True)
    p_verify.add_argument("--tol", type=float, default=None,
                          help="override all verification tolerances")
    p_verify.add_argument("--report", dest="report_path", default=None,
                          help="write the JSON report here instead of stdout")

    p_sim = add_command("simulate", cmd_simulate, "run the billiard flow, emit CSV")
    p_sim.add_argument("--steps", type=int, default=100, help="number of bounces")
    p_sim.add_argument("--csv", dest="csv_path", default=None, help="write CSV here")
    p_sim.add_argument("--start-coords", default=None,
                       help="n+2 ambient start coordinates, comma separated (default: orbit "
                            "start); a value that starts with '-' needs the "
                            "--start-coords=VALUE form")
    p_sim.add_argument("--dir-coords", default=None,
                       help="n+2 ambient direction coordinates, projected and normalized; "
                            "a value that starts with '-' needs the --dir-coords=VALUE form")
    p_sim.add_argument("--perturb", type=float, default=0.0,
                       help="rotate the launch direction by this angle (radians) inside the "
                            "simplex slice, in a plane the seed draws; at n = 2 that plane is "
                            "the whole tangent plane, so a seed picks only the sense of the "
                            "rotation and every seed gives one of two launches")
    p_sim.add_argument("--seed", type=int, default=0,
                       help="perturbation seed: it seeds Python's random.Random, which draws "
                            "the plane's vector uniformly in [-1, 1) per coordinate (default 0)")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser`, built on the first `main` call and reused by every later one."""
    return build_parser()


def _check_output_path(path: str) -> None:
    """Raise the `OSError` that ``open(path, "w")`` would raise, naming ``path``,
    if ``path`` names a directory or its parent is not one; open nothing."""
    name = path.rstrip(os.sep)
    try:  # the trailing separator makes a parent that is a file fail too
        os.stat(os.path.join(os.path.dirname(name) or os.curdir, ""))
    except OSError as err:
        raise OSError(err.errno, err.strerror, path) from None
    if name != path or os.path.isdir(path):
        raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def check_args(args: argparse.Namespace) -> None:
    """Parse the list options in place and reject values out of range, and
    output paths that cannot be written, before any cell is built."""
    if args.command == "verify":
        args.dims = parse_dims(args.dims)
        cosh = parse_floats(args.cosh_edges) if args.cosh_edges is not None else None
        args.edges = _resolve_edges(parse_floats(args.edges), cosh)
        if any(n < 2 for n in args.dims):
            raise ValueError("orbit verification needs n >= 2 in every cell")
    else:
        if args.dim < 1:
            raise ValueError(f"dimension must be at least 1, got {args.dim}")
        if args.command == "orbit" and args.dim < 2:
            raise ValueError(f"orbit construction needs n >= 2, got {args.dim}")
        (args.edge,) = _resolve_edges(
            None if args.edge is None else (args.edge,),
            None if args.cosh_edge is None else (args.cosh_edge,),
        )
    if not 1 <= args.precision <= 17:
        raise ValueError(f"precision must be in 1..17, got {args.precision}")
    if getattr(args, "tol", None) is not None and not 0.0 < args.tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {args.tol}")
    if args.command == "simulate":
        if args.steps < 0:
            raise ValueError(f"need a non-negative bounce count, got {args.steps}")
        if not math.isfinite(args.perturb):
            raise ValueError(f"perturbation angle must be finite, got {args.perturb}")
        if args.seed < 0:
            raise ValueError(f"perturbation seed must be non-negative, got {args.seed}")
        for name in ("start_coords", "dir_coords"):
            text = getattr(args, name)
            if text is not None:
                v = np.array([float(x) for x in text.split(",")])
                if len(v) != args.dim + 2:
                    raise ValueError(f"--{name.replace('_', '-')} needs n+2 = {args.dim + 2} "
                                     f"entries at n = {args.dim}, got {len(v)}")
                setattr(args, name, v)
    # last, so every earlier message wins as it would without this check; in a
    # sweep, an edge that no cell can build is a usage error, and one beyond
    # only the larger dimensions' bounds fails those cells
    n = min(args.dims) if args.command == "verify" else args.dim
    for a in args.edges if args.command == "verify" else (args.edge,):
        simplex_mod.check_edge(n, a)
    # the output files are opened only after the work, so a run that breaks
    # down leaves them as they were; an error at that `open` is exit 2 too
    for name in ("json_path", "disk_path", "report_path", "csv_path"):
        if path := getattr(args, name, None):
            _check_output_path(path)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as err:
        return int(err.code) if err.code is not None else EXIT_OK
    try:
        check_args(args)
        return args.func(args)
    except NonSmoothHitError as err:
        print(f"non-smooth trajectory: {err}", file=sys.stderr)
        return EXIT_NONSMOOTH
    except (ValueError, OSError) as err:  # OSError: an output file that cannot be written
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
