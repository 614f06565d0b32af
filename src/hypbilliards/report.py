"""Cell-by-cell verification, sweeps over (n, edge) grids, and serialization.

A "cell" is one choice of dimension and edge length, built once as a
simplex, a weight sequence and an orbit.  `evaluate_cell` takes that built
cell, measures every identity the construction is supposed to satisfy, and
compares against `Tolerances`; `run_sweep` builds and evaluates the cells
one after another in lexicographic (n, edge) order.

JSON documents serialize floats at full round-trip precision (17
significant digits) unless a lower precision is requested; reloading a
document therefore reproduces the emitted values bit for bit.  `write_json`
writes them in the layout of ``json.dumps(obj, indent=2)``, byte for byte,
without falling back to the pure-Python encoder that ``indent`` selects.
The symmetric coordinates make documents repetitive (a few hundred distinct
floats among tens of thousands), so each call formats each distinct nonzero
float of its float lists once; zeros are never cached, because ``0.0`` and
``-0.0`` are one dict key.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from . import flow as flow_mod
from . import orbit as orbit_mod
from . import simplex as simplex_mod
from . import weights as weights_mod
from .geometry import (HPoint, chord_dist, dist_rows, mink_dots, mink_pairs, mink_table,
                       segment_defect, unit_tangent_rows)


@dataclass(frozen=True)
class Tolerances:
    """Comparison thresholds for the verification gates.

    ``angle_defect`` is looser than the rest: it passes through an arccos,
    which turns 1e-16 rounding in the cosine into ~1e-8 of angle, so a
    tight gate there would only measure arccos conditioning.
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
    min_midpoint_defect: float = 1e-3
    classify: float = 1e-9

    @classmethod
    def uniform(cls, t: float) -> "Tolerances":
        """Every residual gate set to ``t``; structural knobs keep their defaults."""
        keep = {"classify", "min_midpoint_defect"}
        return cls(**{
            f.name: (f.default if f.name in keep else t)
            for f in dataclasses.fields(cls)
        })


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
         float(np.max(np.abs(np.cosh(m.vertex_center) ** 2 / vc_exp - 1.0))),
         tol.metrics_rel)
    gate("vertex_facet_center_rel",
         float(np.max(np.abs(np.cosh(m.vertex_facet_center) ** 2 / vf_exp - 1.0))),
         tol.metrics_rel)
    gate("centroid_weight_rel",
         abs(m.centroid_weight / simplex_mod.centroid_weight_formula(n, c) - 1.0),
         tol.metrics_rel)
    gate("vertex_reflection",
         max(simplex_mod.vertex_reflection_identity_residual(s).tolist()),
         tol.vertex_reflection)

    gate("root_residual", abs(weights_mod.eval_g(seq.root, n, edge)), tol.root_residual)
    if not seq.multiplier > 2.0:
        failures.append(f"multiplier {seq.multiplier} not above 2")
    residuals["multiplier"] = seq.multiplier
    gate("weight_boundary",
         max(abs(seq.weight(1) - 1.0), abs(seq.weight(n) - 1.0)),
         tol.weight_boundary)
    gate("weight_recurrence",
         float(np.max(np.abs(seq.recurrence_residuals()))),
         tol.weight_recurrence)
    interior_min = float(np.min(seq.weights[1:-1]))
    residuals["min_interior_weight"] = interior_min
    if not interior_min > 0.0:
        failures.append(f"interior weight {interior_min} not positive")

    ver = orbit_mod.verify_orbit(s, orb, facet_tol=tol.classify)
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
    or `ArithmeticError`) is reported as failed, with
    ``"<ExceptionClass>: <message>"`` as its failure and no residuals, and
    the sweep goes on with the next cell.
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
        except (ValueError, ArithmeticError) as err:
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
    """Recursively convert arrays/dataclass leaves into JSON-serializable values."""
    if isinstance(obj, dict):
        return {k: jsonable(v, sig) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        if set(map(type, obj)) == {int}:
            return list(obj)
        return [jsonable(v, sig) for v in obj]
    if isinstance(obj, np.ndarray):
        if sig >= 17 and obj.dtype == np.float64:
            return obj.tolist()  # `round_sig` is the identity at 17 digits
        return [jsonable(v, sig) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return round_sig(float(obj), sig)
    return obj


_escape = json.encoder.encode_basestring_ascii


def write_json(fh, obj) -> None:
    """Write ``json.dumps(obj, indent=2)`` to fh, byte for byte, for what `jsonable` returns.

    Writes str, int, float, bool and None scalars and dicts with str keys
    and lists or tuples of them, exactly as ``json`` does; anything else,
    non-str keys included, raises `TypeError`.  ``json`` falls back to its
    pure-Python encoder whenever ``indent`` is set.  Here a list of plain
    ints or of finite floats is one ``str.join``, and the text goes out in
    pieces, never held whole.  Within one call, each distinct float of those
    lists is formatted once and its text reused; a list holding ``0.0`` or
    ``-0.0`` formats every entry, because the two zeros are one dict key.
    """
    fh.writelines(_json_chunks(obj, "\n", {}))


def _json_chunks(obj, newline: str, reprs: dict[float, str]):
    if not isinstance(obj, (dict, list, tuple)):
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
            yield from _json_chunks(v, inner, reprs)
            sep = "," + inner
        yield newline + "}"
    else:
        inner = newline + "  "
        kinds = set(map(type, obj))
        if kinds == {int}:
            yield "[" + inner + ("," + inner).join(map(int.__repr__, obj)) + newline + "]"
        elif kinds == {float} and math.isfinite(sum(obj)):  # inf or nan make the sum non-finite
            distinct = set(obj)
            if 0.0 in distinct:  # -0.0 == 0.0, so a dict would print one zero for both
                text = map(float.__repr__, obj)
            else:
                for x in distinct.difference(reprs):
                    reprs[x] = float.__repr__(x)
                text = map(reprs.__getitem__, obj)
            yield "[" + inner + ("," + inner).join(text) + newline + "]"
        else:
            sep = "[" + inner
            for v in obj:
                yield sep
                yield from _json_chunks(v, inner, reprs)
                sep = "," + inner
            yield newline + "]"


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
    doc = _simplex_body(s, simplex_mod.metrics(s))
    # <u_j, V_k> for every facet j and each of its vertices k != j
    table = mink_table(s.normal_coords, s.vertex_coords)
    doc["checks"]["facet_incidence"] = float(np.max(np.abs(table[~np.eye(s.n + 1, dtype=bool)])))
    return doc


def _simplex_body(s: simplex_mod.RegularSimplex, m: simplex_mod.SimplexMetrics) -> dict:
    """`simplex_document` minus the vertex ``facet_incidence``, which `orbit_document`
    replaces, with the metrics ``m`` measured on ``s``."""
    n = s.n
    c = math.cosh(s.edge)
    vc = s.vertex_coords

    # vertex k against every later vertex, on a broadcast view of row k: gathering both
    # ends of all n(n+1)/2 pairs at once would hold two such stacks, 17 MB at n = 128
    pair_dists = np.concatenate(
        [dist_rows(np.broadcast_to(vc[k], vc[k + 1:].shape), vc[k + 1:]) for k in range(n)])
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
                "vertex_indices": [v for v in range(n + 1) if v != k],
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
            "edge_spread": float(np.max(np.abs(pair_dists - s.edge))),
            "facet_incidence": None,
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
    at = np.broadcast_to(w0, others.shape)
    keep = dist_rows(at, others) > 1e-12
    if not keep.any():
        return 0.0
    apex = unit_tangent_rows(w0[None], s.vertex_coords[:1])[0]
    towards = unit_tangent_rows(at[keep], others[keep])
    angles = np.arccos(np.clip(mink_dots(apex, towards), -1.0, 1.0))
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
    doc = _simplex_body(s, cell.metrics)
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


def format_float(x: float, sig: int = 17) -> str:
    """Shortest decimal string that reloads to the same float (or ``sig`` digits)."""
    if sig >= 17:
        return repr(float(x))
    return f"{x:.{sig}g}"


def trajectory_rows(s: simplex_mod.RegularSimplex, traj: flow_mod.Trajectory,
                    sig: int = 17) -> tuple[list[str], list[list[str]]]:
    """CSV header and rows for a simulated trajectory, points in intrinsic disk coordinates."""
    header = ["step", "facet", "arclength"] + [f"disk{i}" for i in range(s.n)]
    disk = simplex_mod.disk_coords(s, traj.points)
    rows = [
        [str(i), str(k), format_float(t, sig)] + [format_float(x, sig) for x in d.tolist()]
        for i, (k, t, d) in enumerate(zip(traj.facets.tolist(), traj.arclengths.tolist(), disk))
    ]
    return header, rows


def orbit_rows(s: simplex_mod.RegularSimplex, orb: orbit_mod.BilliardOrbit,
               sig: int = 17) -> tuple[list[str], list[list[str]]]:
    """CSV header and rows for the bounce points of a constructed orbit."""
    header = ["index", "mass"] + [f"disk{i}" for i in range(s.n)]
    disk = simplex_mod.disk_coords(s, orb.coords)
    rows = [
        [str(j), format_float(orb.mass(j), sig)] + [format_float(x, sig) for x in d.tolist()]
        for j, d in enumerate(disk)
    ]
    return header, rows


def write_csv(fh, header: list[str], rows: list[list[str]]) -> None:
    """Comma separator, '.' decimal mark, '\\n' newlines, one header row."""
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(row) + "\n")
