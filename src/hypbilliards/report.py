"""Cell-by-cell verification, sweeps over (n, edge) grids, and serialization.

A "cell" is one choice of dimension and edge length, built once as a
simplex, a weight sequence and an orbit.  `evaluate_cell` takes that built
cell, measures every identity the construction is supposed to satisfy, and
compares against `Tolerances`; `run_sweep` builds and evaluates the cells
of a grid in lexicographic (n, edge) order, one after another in the calling
process.  A default-grid cell takes about a millisecond, less than a second
process costs to start, so a sweep runs in one process on every platform.

JSON documents serialize floats at full round-trip precision (17
significant digits) unless a lower precision is requested; reloading a
document therefore reproduces the emitted values bit for bit.  `write_json`
takes a document as `simplex_document`, `orbit_document` or
`sweep_document` builds it, numpy arrays and all, and writes
``json.dumps(jsonable(doc, sig), indent=2)`` byte for byte and then the
document's final newline, without making that copy and without the
pure-Python encoder that ``indent`` selects.
The symmetric coordinates make documents repetitive (a few hundred distinct
floats among tens of thousands), so each call rounds and formats each
distinct nonzero float once; zeros and NaN are formatted every time they are
looked up, because ``0.0`` and ``-0.0`` are one dict key and NaN is never
found.  A large float64 array (a vertex, facet or bounce-point stack at large
n) is not looked up entry by entry: one sort of its bit patterns finds its
distinct floats, each is looked up once, and one take lays their texts out
in the array's shape.
`jsonable` stays public as the writer's reference: the tests hold the writer
to the dump of its copy.  A CSV table is its rows, header first, as
`orbit_rows` and `trajectory_rows` make them and `write_csv` writes them.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from . import flow as flow_mod
from . import orbit as orbit_mod
from . import simplex as simplex_mod
from . import weights as weights_mod
from .geometry import (FACET_TOL, HPoint, chord_dist, dist_rows, mink_pairs, segment_defect,
                       unit_tangent_rows)


@dataclass(frozen=True)
class Tolerances:
    """Comparison thresholds for the verification gates.

    ``angle_defect`` is looser than the rest: it passes through an arccos,
    which turns 1e-16 rounding in the cosine into ~1e-8 of angle, so a
    tight gate there would only measure arccos conditioning.  The last two
    fields are fixed, not settable, and written into a sweep's
    ``tolerances`` for the record: ``min_midpoint_defect`` is how far the
    facet-center polygon must miss the mirror law at n >= 3, and
    ``classify`` is the facet band, `geometry.FACET_TOL`, at which the orbit
    certificate and the billiard flow both classify.
    """

    facet_incidence: float = 1e-10
    collinearity: float = 1e-9
    centroid: float = 1e-9
    angle_defect: float = 1e-6
    closure: float = 1e-8
    metrics_rel: float = 1e-10
    vertex_reflection: float = 1e-10
    root_residual: float = 1e-13
    weight_boundary: float = 1e-10
    weight_recurrence: float = 1e-10
    orthic_match: float = 1e-9
    min_midpoint_defect: float = dataclasses.field(default=1e-3, init=False)
    classify: float = dataclasses.field(default=FACET_TOL, init=False)

    @classmethod
    def uniform(cls, t: float) -> "Tolerances":
        """Every residual gate set to ``t``; the fixed fields keep their values."""
        return cls(**{f.name: t for f in dataclasses.fields(cls) if f.init})


@dataclass(frozen=True)
class CellReport:
    """Residuals and failed gates of one cell, with the metrics `evaluate_cell` measured
    (None for a cell that broke down before they were measured)."""

    n: int
    edge: float
    residuals: dict[str, float]
    failures: tuple[str, ...]
    metrics: simplex_mod.SimplexMetrics | None

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class VerificationReport:
    tolerances: Tolerances
    cells: tuple[CellReport, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cells)


def evaluate_cell(s: simplex_mod.RegularSimplex, seq: weights_mod.MassSequence,
                  orb: orbit_mod.BilliardOrbit, tol: Tolerances | None = None) -> CellReport:
    """Measure every identity of one built cell against the tolerances.

    ``seq`` and ``orb`` must be the weight sequence and orbit built for the
    simplex ``s``; nothing is rebuilt here.
    """
    tol = tol or Tolerances()
    n, edge = s.n, s.edge
    residuals: dict[str, float] = {}
    failures: list[str] = []

    def gate(name: str, value: float, limit: float) -> None:
        residuals[name] = float(value)
        if not value < limit:
            failures.append(f"{name} = {value:.6e}, needs < {limit:.1e}")

    c = math.cosh(edge)
    m = simplex_mod.metrics(s)

    # closed-form measurement identities, relative in cosh^2 / weight
    vc_exp = simplex_mod.cosh_sq_circumradius(n, c)
    vf_exp = simplex_mod.cosh_sq_vertex_to_facet_center(n, c)
    gate("vertex_center_rel",
         float(np.abs(np.cosh(m.vertex_center) ** 2 / vc_exp - 1.0).max()),
         tol.metrics_rel)
    gate("vertex_facet_center_rel",
         float(np.abs(np.cosh(m.vertex_facet_center) ** 2 / vf_exp - 1.0).max()),
         tol.metrics_rel)
    gate("centroid_weight_rel",
         abs(m.centroid_weight / simplex_mod.centroid_weight_formula(n, c) - 1.0),
         tol.metrics_rel)
    gate("vertex_reflection",
         max(simplex_mod.vertex_reflection_identity_residual(s).tolist()),
         tol.vertex_reflection)

    gate("root_residual", abs(weights_mod.eval_g(seq.root, n, edge)), tol.root_residual)
    # multiplier = 2 cosh(theta) > 2 exactly when theta > 0; the multiplier itself
    # rounds to 2.0 once theta < 1.49e-8, so the gate reads theta
    if not seq.theta > 0.0:
        failures.append(f"multiplier {seq.multiplier} not above 2")
    residuals["multiplier"] = seq.multiplier
    gate("weight_boundary",
         max(abs(seq.weight(1) - 1.0), abs(seq.weight(n) - 1.0)),
         tol.weight_boundary)
    gate("weight_recurrence",
         float(np.abs(seq.recurrence_residuals()).max()),
         tol.weight_recurrence)
    interior_min = float(seq.weights[1:-1].min())
    residuals["min_interior_weight"] = interior_min
    if not interior_min > 0.0:
        failures.append(f"interior weight {interior_min} not positive")

    ver = orbit_mod.verify_orbit(s, orb)
    if not ver.clean_facets:
        failures.append("bounce points do not hit each facet interior exactly once")
    worst = ver.max_residuals()
    gate("facet_incidence", worst["incidence"], tol.facet_incidence)
    gate("collinearity", worst["collinearity"], tol.collinearity)
    gate("centroid_location", worst["centroid_dist"], tol.centroid)
    gate("centroid_mass_rel", worst["centroid_mass_rel"], tol.centroid)
    gate("angle_defect", worst["angle_defect"], tol.angle_defect)
    gate("closure", flow_mod.closure_error(s, orb), tol.closure)

    md = orbit_mod.midpoint_trajectory_defect(s)
    residuals["midpoint_defect"] = md
    if n == 2:
        gate("orthic_match",
             max(chord_dist(orb.point(j), q) for j, q in enumerate(orbit_mod.orthic_points(s))),
             tol.orthic_match)
        if not md < tol.angle_defect:
            failures.append(f"facet-center polygon should close for n=2, defect {md:.3e}")
    else:
        # the naive facet-center polygon must visibly break the mirror law
        if not md > tol.min_midpoint_defect:
            failures.append(
                f"midpoint defect {md:.6e} suspiciously small, needs > {tol.min_midpoint_defect:.1e}"
            )

    return CellReport(n, edge, residuals, tuple(failures), m)


def run_sweep(dims, edges, tol: Tolerances | None = None) -> VerificationReport:
    """Build and evaluate every (n, edge) cell; results in lexicographic order.

    A cell whose build or evaluation breaks down numerically (`ValueError`
    or `ArithmeticError`), or whose closure flow hits a corner or grazes a
    facet (`flow.NonSmoothHitError`), is reported as failed, with
    ``"<ExceptionClass>: <message>"`` as its failure and no residuals, and
    the sweep goes on with the next cell.  Any other exception, a warning
    turned into one by ``-W error`` included, is raised.
    """
    tol = tol or Tolerances()
    cells = [(int(n), float(a)) for n in sorted(set(dims)) for a in sorted(set(edges))]
    if not cells:
        raise ValueError("empty sweep: need at least one dimension and one edge")
    reports = []
    for n, a in cells:
        try:
            s = simplex_mod.build(n, a)
            seq = weights_mod.build_sequence(n, a)
            reports.append(evaluate_cell(s, seq, orbit_mod.construct_orbit(s, seq), tol))
        except (ValueError, ArithmeticError, flow_mod.NonSmoothHitError) as err:
            reports.append(CellReport(n, a, {}, (f"{type(err).__name__}: {err}",), None))
    return VerificationReport(tol, tuple(reports))


# ---------------------------------------------------------------------------
# serialization

def round_sig(x: float, sig: int) -> float:
    """Round to ``sig`` significant digits; 17 digits is exact for binary64."""
    if sig >= 17 or x == 0.0 or not math.isfinite(x):
        return float(x)
    return float(f"{x:.{sig}g}")


def jsonable(obj, sig: int = 17):
    """Recursively convert arrays/dataclass leaves into JSON-serializable values.

    It is the reference that `write_json` is held to, so it shares none of
    the writer's shortcuts."""
    if isinstance(obj, dict):
        return {k: jsonable(v, sig) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v, sig) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v, sig) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return round_sig(float(obj), sig)
    return obj


_escape = json.encoder.encode_basestring_ascii


def write_json(fh, doc, sig: int = 17) -> None:
    """Write ``json.dumps(jsonable(doc, sig), indent=2)`` to fh, byte for byte, and a newline.

    Takes a document as `simplex_document`, `orbit_document` and
    `sweep_document` build it, arrays and all, and writes it without the
    copy `jsonable` would make.  ``json`` falls back to its pure-Python
    encoder whenever ``indent`` is set; here each float64 array is one
    ``tolist()``, each of its innermost rows and each list of plain ints is
    one ``str.join``, and the text goes out in pieces, never held whole.
    Within one call each distinct float is rounded to ``sig`` digits and
    formatted once (see `_FloatTexts`); an array of at least
    ``_SORTED_TEXTS_MIN_SIZE`` entries finds its distinct floats by one
    sort.  The only numpy values written are float64 arrays of at least one
    dimension, and ``np.float64`` and ``np.str_``, as the float and str they
    are; any other, such as an int or bool scalar, a 0-d array or an int
    array, raises `TypeError`, as ``json.dumps`` does.  Dicts need str keys;
    a value ``json`` cannot write, a non-str key included, raises
    `TypeError`.
    """
    fh.writelines(_json_chunks(doc, "\n", _FloatTexts(sig)))
    fh.write("\n")


class _FloatTexts(dict):
    """JSON text of each float rounded to ``sig`` digits, made on first lookup,
    and in ``ints`` the text of each int.

    Zeros and NaN are formatted on every lookup and never stored: ``0.0``
    and ``-0.0`` are one dict key, and NaN never finds itself.  The ints
    have their own dict because ``1`` and ``1.0`` are one key.  A large
    array looks up each of its distinct bit patterns once (`_sorted_texts`),
    so its zeros and NaNs are formatted once per array, not once per entry.
    """

    def __init__(self, sig: int):
        super().__init__()
        self.sig = sig
        self.ints = _IntTexts()

    def __missing__(self, x: float) -> str:
        text = _json_scalar(round_sig(x, self.sig))
        if x and x == x:
            self[x] = text
        return text


class _IntTexts(dict):
    def __missing__(self, i: int) -> str:
        text = self[i] = int.__repr__(i)
        return text


def _json_chunks(obj, newline: str, texts: _FloatTexts):
    if isinstance(obj, float):
        yield texts[obj]
    elif isinstance(obj, np.ndarray) and obj.dtype.type is np.float64 and obj.ndim:
        if obj.size < _SORTED_TEXTS_MIN_SIZE:
            yield from _float_rows(obj.tolist(), obj.ndim, newline, texts.__getitem__)
        else:
            yield from _float_rows(_sorted_texts(obj, texts), obj.ndim, newline, None)
    elif not isinstance(obj, (dict, list, tuple)):
        yield _json_scalar(obj)
    elif not obj:
        yield "{}" if isinstance(obj, dict) else "[]"
    elif isinstance(obj, dict):
        inner = newline + "  "
        sep = "{" + inner
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            yield sep + _escape(k) + ": "
            yield from _json_chunks(v, inner, texts)
            sep = "," + inner
        yield newline + "}"
    elif set(map(type, obj)) == {int}:
        yield _json_row(map(texts.ints.__getitem__, obj), newline)
    else:
        inner = newline + "  "
        sep = "[" + inner
        for v in obj:
            yield sep
            yield from _json_chunks(v, inner, texts)
            sep = "," + inner
        yield newline + "]"


def _float_rows(rows: list, ndim: int, newline: str, text):
    """`_json_chunks` of a float64 array's ``tolist()``, which holds only floats,
    each written as ``text(x)``; with ``text`` None, of the nested list of their texts."""
    if not rows:
        yield "[]"
    elif ndim == 1:
        yield _json_row(rows if text is None else map(text, rows), newline)
    else:
        inner = newline + "  "
        sep = "[" + inner
        for row in rows:
            yield sep
            yield from _float_rows(row, ndim - 1, inner, text)
            sep = "," + inner
        yield newline + "]"


# Float64 arrays of at least this many entries take their texts from one sort of
# their bit patterns (`_sorted_texts`), smaller ones from a dict lookup per entry:
# on the first rows of the n = 128 vertex stack the sort measured slower at 130
# entries (26 against 18 us) and faster at 520 (40 against 51 us).
_SORTED_TEXTS_MIN_SIZE = 500


def _sorted_texts(a: np.ndarray, texts: _FloatTexts) -> list:
    """The nested list, shaped as ``a``, of the JSON text of each entry of ``a``.

    ``np.unique`` of the bit patterns finds the distinct floats in one sort, so
    each is looked up in ``texts`` once; ``-0.0`` and ``0.0``, and NaNs of any
    sign or payload, are distinct patterns and get the texts a lookup gives.
    """
    bits, inverse = np.unique(a.view(np.uint64), return_inverse=True)
    distinct = np.array([texts[x] for x in bits.view(np.float64).tolist()], dtype=object)
    return distinct[inverse].reshape(a.shape).tolist()


def _json_row(texts, newline: str) -> str:
    """A non-empty list of scalar texts, one per line."""
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(texts) + newline + "]"


def _json_scalar(obj) -> str:
    if isinstance(obj, str):
        return _escape(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj == math.inf:
            return "Infinity"
        if obj == -math.inf:
            return "-Infinity"
        return float.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def simplex_document(s: simplex_mod.RegularSimplex) -> dict:
    """Geometry, measured metrics, and internal consistency checks of one simplex."""
    # <u_j, V_k> for every facet j and each of its vertices k != j
    table = mink_pairs(s.normal_coords[:, None], s.vertex_coords[None])
    incidence = float(np.abs(table[~np.eye(s.n + 1, dtype=bool)]).max())
    return _simplex_body(s, simplex_mod.metrics(s), incidence)


def _simplex_body(s: simplex_mod.RegularSimplex, m: simplex_mod.SimplexMetrics,
                  facet_incidence: float) -> dict:
    """The simplex part of a document, with the metrics ``m`` measured on ``s`` and the
    document's ``facet_incidence``: the vertices' in `simplex_document`, the bounce
    points' in `orbit_document`."""
    n = s.n
    c = math.cosh(s.edge)
    vc = s.vertex_coords

    # `dist` of every vertex pair: row i pairs vertex i with the (n+1)//2 vertices after
    # it, cyclically, through a window view of the rows.  That meets every pair once
    # (twice at the largest offset when n+1 is even) and no vertex with itself, in half
    # the products of the table of all pairs
    half = (n + 1) // 2
    cycle = np.concatenate((vc[1:], vc[:half]))
    ahead = np.lib.stride_tricks.sliding_window_view(cycle, half, axis=0).swapaxes(1, 2)
    pair_dists = dist_rows(vc[:, None], ahead)
    min_margin = min(mink_pairs(vc, s.normal_coords).tolist())
    right_angle = _right_angle(s) if n >= 2 else 0.0  # at n = 1 the facet is a single point
    center_between = segment_defect(s.circumcenter, s.vertex(0), HPoint(s.center_coords[0]))

    return {
        "n": n,
        "edge": s.edge,
        "vertices": vc,
        "circumcenter": s.circumcenter.coords,
        "facets": [
            {
                "index": k,
                "normal": s.normal_coords[k],
                "center": s.center_coords[k],
                "vertex_indices": [*range(k), *range(k + 1, n + 1)],
            }
            for k in range(n + 1)
        ],
        "metrics": {
            "vertex_center": m.vertex_center,
            "vertex_facet_center": m.vertex_facet_center,
            "centroid_weight": m.centroid_weight,
            "expected_cosh_sq_vertex_center": simplex_mod.cosh_sq_circumradius(n, c),
            "expected_cosh_sq_vertex_facet_center": simplex_mod.cosh_sq_vertex_to_facet_center(n, c),
            "expected_centroid_weight": simplex_mod.centroid_weight_formula(n, c),
        },
        "checks": {
            "edge_spread": float(np.abs(pair_dists - s.edge).max()),
            "facet_incidence": facet_incidence,
            "min_opposite_margin": min_margin,
            "right_angle": right_angle,
            "center_between": center_between,
        },
    }


def _right_angle(s: simplex_mod.RegularSimplex) -> float:
    """Largest deviation from pi/2 of the angles V_0 W_0 V_k at the center W_0 of facet 0.

    The apex direction is perpendicular to every direction inside the facet.
    A vertex within 1e-12 of W_0 has no direction and is left out.
    """
    w0 = s.center_coords[0]
    others = s.vertex_coords[1:]
    keep = dist_rows(w0, others) > 1e-12
    if not keep.any():
        return 0.0
    apex = unit_tangent_rows(w0[None], s.vertex_coords[:1])[0]
    towards = unit_tangent_rows(w0[None], others[keep])
    angles = np.arccos(mink_pairs(apex, towards).clip(-1.0, 1.0))
    return max(np.abs(angles - 0.5 * math.pi).tolist())


def sequence_document(seq: weights_mod.MassSequence) -> dict:
    return {
        "y0": seq.root,
        "lambda": seq.multiplier,
        "xi": seq.char_root,
        "b": seq.shift,
        "alphas": seq.weights,
    }


def orbit_document(s: simplex_mod.RegularSimplex, seq: weights_mod.MassSequence,
                   orb: orbit_mod.BilliardOrbit,
                   tol: Tolerances | None = None) -> tuple[dict, bool]:
    """Full document for one built cell: simplex, weights, orbit, and verification checks.

    Returns the document and whether every check passed.
    """
    cell = evaluate_cell(s, seq, orb, tol)
    doc = _simplex_body(s, cell.metrics, cell.residuals["facet_incidence"])
    doc["mass_sequence"] = sequence_document(seq)
    doc["orbit"] = {
        "points": orb.coords,
        "masses": orb.masses,
        "lambda": orb.multiplier,
    }
    doc["checks"].update(cell.residuals)
    doc["checks"]["passed"] = cell.passed
    if cell.failures:
        doc["checks"]["failures"] = list(cell.failures)
    return doc, cell.passed


def sweep_document(rep: VerificationReport) -> dict:
    return {
        "tolerances": dataclasses.asdict(rep.tolerances),
        "cells": [
            {
                "n": c.n,
                "edge": c.edge,
                "passed": c.passed,
                "residuals": c.residuals,
                "failures": list(c.failures),
            }
            for c in rep.cells
        ],
        "passed": rep.passed,
    }


def float_format(sig: int) -> Callable[[float], str]:
    """The CSV text of a float: ``repr`` at 17 digits, else ``sig`` significant digits."""
    return float.__repr__ if sig >= 17 else f"{{:.{sig}g}}".format


def _csv_rows(int_columns, float_columns, sig: int) -> list[tuple[str, ...]]:
    """Rows of a table given column by column: the int columns, then the float
    columns (1-D arrays), each float as `float_format` writes it.

    Each column is formatted by one ``map`` and ``zip`` joins the columns, so
    no Python frame runs per value or per row.  A float column's text is made
    before the next column's ``tolist()``, so only one column of Python
    floats is alive at a time.  `trajectory_rows` calls it once per block of
    bounces, so the text of at most one block is alive at a time.
    """
    fmt = float_format(sig)
    texts = [list(map(fmt, c.tolist())) for c in float_columns]
    return list(zip(*[map(str, c) for c in int_columns], *texts))


# Bounces per block of `trajectory_rows`' text: one block's rows take about 1.9 MB
# at n = 3, and a run of up to this many bounces is written as one block
_CSV_BLOCK = 4096


def trajectory_rows(s: simplex_mod.RegularSimplex, traj: flow_mod.Trajectory,
                    sig: int = 17) -> Iterator[Sequence[str]]:
    """CSV rows for a simulated trajectory, header first, points in intrinsic disk coordinates.

    Row i after the header is the bounce index, the facet hit, the arclength
    flown and the disk coordinates of the hit.  The rows come from a generator,
    built column by column (`_csv_rows`) one block of `_CSV_BLOCK` bounces at a
    time, so a long run's text is never held whole; `disk_coords` is one gemv
    per row, so a block's rows are the bits of the whole run's.  They can be
    iterated once.
    """
    yield ["step", "facet", "arclength"] + [f"disk{i}" for i in range(s.n)]
    for start in range(0, len(traj), _CSV_BLOCK):
        block = slice(start, start + _CSV_BLOCK)
        disk = simplex_mod.disk_coords(s, traj.points[block])
        yield from _csv_rows([range(start, start + len(disk)), traj.facets[block].tolist()],
                             [traj.arclengths[block], *disk.T], sig)


def orbit_rows(s: simplex_mod.RegularSimplex, orb: orbit_mod.BilliardOrbit,
               sig: int = 17) -> list[Sequence[str]]:
    """CSV rows for the bounce points of a constructed orbit, header first."""
    header = ["index", "mass"] + [f"disk{i}" for i in range(s.n)]
    disk = simplex_mod.disk_coords(s, orb.coords)
    return [header, *_csv_rows([range(orb.period)], [orb.masses, *disk.T], sig)]


def write_csv(fh, rows) -> None:
    """Comma separator, '.' decimal mark, '\\n' newlines; the header is the first row.

    ``rows`` is any iterable of sequences of str, lists or tuples alike.  The
    rows go to ``fh`` in one ``writelines``, so the file's buffer, not a
    Python-level call per row, decides how often the text reaches the disk.
    """
    fh.writelines(map("{}\n".format, map(",".join, rows)))
