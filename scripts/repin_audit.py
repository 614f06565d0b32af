#!/usr/bin/env python3
"""Audit a re-pin: compare two documents of the same command, field by field.

    python3 scripts/repin_audit.py OLD NEW

OLD and NEW are the output of one command before and after a change that
moves bits, in 17-digit form.  The script prints one line per field that
moved (how many values moved, the worst move in ulps, the verdict) and
exits 1 if any of these rules fails:

1. Structure, strings, ints and bools are identical.  A ``passed`` flag
   may only flip from false to true.  A failure message of a gate
   (``name = value, needs < limit``) must quote the document's own
   residual, which rule 3 audits, so such a message may come or go with
   its residual; any other failure message may only disappear.
2. Values that depend on the weights (``mass_sequence.*``,
   ``orbit.points``, ``orbit.masses``, ``orbit.lambda``, the multiplier and
   the smallest interior weight among the residuals, and the mass and disk
   columns of an ``orbit --disk-coords`` CSV) are compared with a 50-digit
   mpmath oracle.  Error is taken relative to the field's magnitude, or to
   each row's for a stack of points, in units of eps.  The new worst must
   be at most max(old worst, 4 eps).
3. Residuals, whose true value is 0, must meet new <= max(old, 16 eps).
   ``angle_defect`` is compared as d^2/2, because arccos turns one ulp of
   cosine into 1.5e-8 of angle.
4. Every other float stays bit-identical: vertices, normals, centers,
   metrics and the simplex checks.
5. A trajectory (a ``simulate`` CSV, with its summary line read from the
   ``.stderr`` file next to it, or a JSON dump of a `flow.Trajectory`'s
   stacks) keeps its row count, and its invariant drift must meet
   new <= max(old, 16 eps).  The first row where the facet sequences part
   is reported: the flow is chaotic, so a launch moved by ulps parts from
   its old path after enough bounces.  Its points and arclengths are
   reported, not gated.

The oracle of an orbit CSV needs the simplex: it reads n, the edge and the
vertices from the JSON document of the same run, ``<stem>.json`` or
``<stem>.stdout`` next to each CSV.  Text files (stderr of ``verify``, say)
must match line by line, except that ``FAIL`` may turn into ``pass``.
"""

from __future__ import annotations

import csv
import json
import math
import re
import struct
import sys
from pathlib import Path

import mpmath as mp

EPS = sys.float_info.epsilon
ORACLE_SLACK = 4.0  # in eps
RESIDUAL_SLACK = 16.0 * EPS

RESIDUALS = {
    "vertex_center_rel", "vertex_facet_center_rel", "centroid_weight_rel", "vertex_reflection",
    "root_residual", "weight_boundary", "weight_recurrence", "facet_incidence", "collinearity",
    "centroid_location", "centroid_mass_rel", "angle_defect", "closure", "orthic_match",
}
# the values of a cell that follow from its weights, by their oracle
SEQUENCE_FIELDS = {"y0": "root", "lambda": "multiplier", "xi": "char_root", "b": "shift",
                   "alphas": "weights"}
CELL_FIELDS = {"multiplier": "multiplier", "min_interior_weight": "min_interior_weight"}
ORBIT_FIELDS = {"points": "points", "masses": "masses", "lambda": "multiplier"}
TRAJECTORY_KEYS = {"facets", "points", "arclengths", "drifts"}
SUMMARY = re.compile(r"^(\d+) bounces, total length (\S+), max invariant drift (\S+)$")
GATE = re.compile(r"^(\w+) = (\S+), needs < \S+$")
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


class Oracle:
    """50-digit theta, weights and (given the vertices) orbit of one cell."""

    def __init__(self, n: int, edge: float, vertices=None):
        mp.mp.dps = 50
        self.n, big = n, n + 1
        a = mp.mpf(edge)
        r = mp.sinh(a / 2) ** 2 / mp.cosh(a)
        self.theta = theta = _theta(n, r)
        shift = 2 / (n - 1 + 1 / mp.cosh(a))
        self.root = mp.cosh(theta)
        self.multiplier = 2 * self.root
        self.char_root = mp.exp(theta)
        self.shift = shift
        self.weights = [shift * mp.sinh(j * theta / 2) * mp.sinh((big - j) * theta / 2)
                        / (2 * mp.sinh(theta / 2) ** 2 * mp.cosh(big * theta / 2))
                        for j in range(big + 1)]
        self.min_interior_weight = min(self.weights[1:-1])
        self.vertices = vertices

    def orbit(self):
        """Bounce points (rows) and masses: the centroid of w_k at vertex (j + k) mod N."""
        if not hasattr(self, "_orbit"):
            big = self.n + 1
            cols = [[mp.mpf(v[c]) for v in self.vertices] for c in range(big + 1)]
            points, masses = [], []
            for j in range(big):
                w = [self.weights[(k - j) % big] for k in range(big)]
                s = [mp.fdot(w, col) for col in cols]
                m = mp.sqrt(s[0] ** 2 - mp.fsum(x * x for x in s[1:]))
                points.append([x / m for x in s])
                masses.append(m)
            self._orbit = points, masses
        return self._orbit

    @property
    def points(self):
        return self.orbit()[0]

    @property
    def masses(self):
        return self.orbit()[1]

    def disk(self):
        """The orbit's intrinsic disk coordinates, through the float Helmert basis."""
        big = self.n + 1
        rows = []
        for p in self.points:
            rows.append([mp.fsum(_helmert(k, i) * p[1 + i] for i in range(big)) / (1 + p[0])
                         for k in range(1, big)])
        return rows


def _helmert(k: int, i: int) -> float:
    """Entry (k-1, i) of `simplex.helmert_basis`, as the float it stores."""
    if i < k:
        return 1.0 / math.sqrt(k * (k + 1.0))
    if i == k:
        return -float(k) / math.sqrt(k * (k + 1.0))
    return 0.0


def _theta(n: int, r):
    """The root of 1/2 sum_j (1 - q^j)(1 - q^(N-j)) / (1 + q^N) = r, by guarded Newton."""
    big = n + 1
    theta = mp.sqrt(24 * r / (big * (big * big - 1)))
    lo, hi = mp.mpf(0), mp.mpf(3)
    for _ in range(200):
        rise = [-mp.expm1(-j * theta) for j in range(big + 1)]
        den = 2 - rise[big]
        total = mp.fsum(rise[j] * rise[big - j] for j in range(1, big))
        f = total / (2 * den) - r
        slope = (mp.fsum(j * (1 - rise[j]) * rise[big - j] for j in range(1, big)) / den
                 + big * (1 - rise[big]) * total / (2 * den * den))
        if f < 0:
            lo = theta
        else:
            hi = theta
        step = theta - f / slope
        if not lo < step < hi:
            step = (lo + hi) / 2
        if abs(step - theta) < mp.mpf(10) ** -45 * theta:
            return step
        theta = step
    raise RuntimeError(f"oracle theta did not converge (n={n}, r={r})")


def same(a: float, b: float) -> bool:
    """Bit identity: ``repr`` round-trips a double and tells -0.0 from 0.0."""
    return repr(a) == repr(b)


def ulps(a: float, b: float) -> int:
    def ordered(x: float) -> int:
        i = struct.unpack("<q", struct.pack("<d", x))[0]
        return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)
    return abs(ordered(a) - ordered(b))


def oracle_error(values, exact) -> float:
    """Worst error in eps, relative to the field's magnitude, or each row's for a stack."""
    if not isinstance(values, list):
        return float(abs(mp.mpf(values) - exact) / abs(exact)) / EPS
    if values and isinstance(values[0], list):
        return max(oracle_error(v, e) for v, e in zip(values, exact))
    scale = max(abs(e) for e in exact)
    return max(float(abs(mp.mpf(v) - e) / scale) for v, e in zip(values, exact)) / EPS


class Audit:
    def __init__(self):
        self.lines: list[str] = []
        self.failed = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        self.lines.append(f"FAIL {message}")

    def moved(self, field: str, pairs, verdict: str, ok: bool) -> None:
        """Report a field whose values moved; ``pairs`` are its (old, new) floats."""
        moves = [ulps(a, b) for a, b in pairs if not same(a, b)]
        if not moves:
            return
        line = f"{field}: {len(moves)} moved, worst {max(moves)} ulp, {verdict}"
        if ok:
            self.lines.append(line)
        else:
            self.fail(line)


def flat(x) -> list[float]:
    return [v for row in x for v in flat(row)] if isinstance(x, list) else [x]


def strip_failures(doc) -> dict[str, tuple[list, dict]]:
    """Pop every ``failures`` list out of a document tree: path -> (failures, residuals)."""
    found = {}

    def walk(node, path):
        if isinstance(node, dict):
            if isinstance(node.get("failures"), list):
                found[path] = (node.pop("failures"), node.get("residuals", node))
            for k, v in node.items():
                walk(v, f"{path}.{k}" if path else k)
        elif isinstance(node, list) and node and isinstance(node[0], dict):
            for i, v in enumerate(node):
                walk(v, f"{path}[{i}]")

    walk(doc, "")
    return found


def audit_failures(audit: Audit, old_doc, new_doc) -> None:
    """A gate's message must quote its residual; other messages may only disappear."""
    old, new = strip_failures(old_doc), strip_failures(new_doc)
    for path in sorted(old.keys() | new.keys()):
        gated, other = {}, {}
        for side, (failures, residuals) in (("old", old.get(path, ([], {}))),
                                            ("new", new.get(path, ([], {})))):
            for f in failures:
                m = GATE.match(f)
                if m is None:
                    other.setdefault(side, set()).add(NUMBER.sub("#", f))
                    continue
                gated.setdefault(side, set()).add(m[1])
                if f"{residuals.get(m[1], math.nan):.6e}" != m[2]:
                    audit.fail(f"{path}.failures: {f!r} does not quote the {side} residual")
        appeared = sorted(other.get("new", set()) - other.get("old", set()))
        if appeared:
            audit.fail(f"{path}.failures: new failures {appeared}")
        for verb, names in (("now fail", gated.get("new", set()) - gated.get("old", set())),
                            ("now pass", gated.get("old", set()) - gated.get("new", set()))):
            if names:
                audit.lines.append(f"{path}.failures: gates {sorted(names)} {verb}, "
                                   "their residuals audited below")


def audit_json(audit: Audit, old, new) -> None:
    if isinstance(old, dict) and TRAJECTORY_KEYS <= old.keys():
        return audit_trajectory(audit, old, new)
    audit_failures(audit, old, new)
    fields: dict[str, tuple[str, list, list, object]] = {}

    def walk(o, n, path, cell):
        if isinstance(o, dict) and isinstance(n, dict):
            if o.keys() != n.keys():
                return audit.fail(f"{path}: keys differ: {sorted(o.keys() ^ n.keys())}")
            if "n" in o and "edge" in o:
                cell = (o["n"], o["edge"], o.get("vertices"))
            for k in o:
                walk(o[k], n[k], f"{path}.{k}" if path else k, cell)
        elif isinstance(o, list) and isinstance(n, list):
            if len(o) != len(n):
                return audit.fail(f"{path}: length {len(o)} -> {len(n)}")
            if o and all(isinstance(v, (dict, str, int)) for v in o):
                for i, (a, b) in enumerate(zip(o, n)):
                    walk(a, b, f"{path}[{i}]", cell)
            else:
                fields[path] = (path, o, n, cell)
        elif isinstance(o, bool) or isinstance(n, bool):
            if o != n and not (path.endswith("passed") and o is False and n is True):
                audit.fail(f"{path}: {o!r} -> {n!r}")
            elif o != n:
                audit.lines.append(f"{path}: false -> true")
        elif isinstance(o, float) and isinstance(n, float):
            fields[path] = (path, o, n, cell)
        elif type(o) is not type(n) or o != n:
            audit.fail(f"{path}: {o!r} -> {n!r}")

    walk(old, new, "", None)
    oracles: dict[tuple, Oracle] = {}
    for path, o, n, cell in fields.values():
        pairs = list(zip(flat(o), flat(n)))
        if all(same(a, b) for a, b in pairs):
            continue
        parts = path.replace("]", "").split(".")
        leaf, parent = parts[-1], (parts[-2] if len(parts) > 1 else "")
        parent = parent.split("[")[0]
        attr = (SEQUENCE_FIELDS.get(leaf) if parent == "mass_sequence"
                else ORBIT_FIELDS.get(leaf) if parent == "orbit"
                else CELL_FIELDS.get(leaf) if parent in ("checks", "residuals") else None)
        if attr is not None and cell is not None:
            key = (cell[0], cell[1])
            if key not in oracles:
                oracles[key] = Oracle(cell[0], cell[1], cell[2])
            exact = getattr(oracles[key], attr)
            before, after = oracle_error(o, exact), oracle_error(n, exact)
            ok = after <= max(before, ORACLE_SLACK)
            audit.moved(path, pairs, f"oracle error {before:.3g} -> {after:.3g} eps", ok)
        elif parent in ("checks", "residuals") and leaf in RESIDUALS:
            before, after = (o * o / 2, n * n / 2) if leaf == "angle_defect" else (o, n)
            ok = abs(after) <= max(abs(before), RESIDUAL_SLACK)
            audit.moved(path, pairs, f"residual {o:.3e} -> {n:.3e}", ok)
        else:
            audit.moved(path, pairs, "must stay bit-identical", False)


def audit_trajectory(audit: Audit, old: dict, new: dict) -> None:
    if old.keys() != new.keys():
        return audit.fail(f"keys differ: {sorted(old.keys() ^ new.keys())}")
    if len(old["facets"]) != len(new["facets"]):
        return audit.fail(f"bounces {len(old['facets'])} -> {len(new['facets'])}")
    report_parting(audit, old["facets"], new["facets"])
    audit_drift(audit, "drifts", max(flat(old["drifts"]), default=0.0),
                max(flat(new["drifts"]), default=0.0))
    for key in sorted(old.keys() - {"facets", "drifts"}):
        pairs = list(zip(flat(old[key]), flat(new[key])))
        audit.moved(key, [(float(a), float(b)) for a, b in pairs], "trajectory, reported", True)


def report_parting(audit: Audit, old: list, new: list) -> None:
    parted = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b), None)
    audit.lines.append("facet sequence identical" if parted is None
                       else f"facet sequence parts at row {parted}")


def audit_drift(audit: Audit, field: str, before: float, after: float) -> None:
    ok = after <= max(before, RESIDUAL_SLACK)
    if before != after or not ok:
        audit.moved(field, [(before, after)], f"max drift {before:.3e} -> {after:.3e}", ok)


def audit_csv(audit: Audit, old_path: Path, new_path: Path, old: list, new: list) -> None:
    if old[0] != new[0] or len(old) != len(new):
        return audit.fail(f"header or row count differs: {len(old)} -> {len(new)} rows")
    header, old, new = old[0], old[1:], new[1:]
    if header[:3] == ["step", "facet", "arclength"]:
        if [r[0] for r in old] != [r[0] for r in new]:
            audit.fail("step column differs")
        report_parting(audit, [r[1] for r in old], [r[1] for r in new])
        logs = [p.with_suffix(".stderr") for p in (old_path, new_path)]
        summaries = [parse_summary(p.read_text()) if p.exists() else None for p in logs]
        if None in summaries:
            audit.fail("no summary line in the .stderr file next to the CSV")
        else:
            audit_drift(audit, "max invariant drift", summaries[0][2], summaries[1][2])
        for i, name in enumerate(header[2:], start=2):
            audit.moved(name, [(float(a[i]), float(b[i])) for a, b in zip(old, new)],
                        "trajectory, reported", True)
    elif header[:2] == ["index", "mass"]:
        if [r[0] for r in old] != [r[0] for r in new]:
            audit.fail("index column differs")
        run = sibling_document(new_path)
        if run is None:
            return audit.fail("no JSON document of the same run next to the CSV")
        oracle = Oracle(run["n"], run["edge"], run["vertices"])
        columns = {"mass": ([float(r[1]) for r in old], [float(r[1]) for r in new],
                            oracle.masses),
                   "disk": ([[float(x) for x in r[2:]] for r in old],
                            [[float(x) for x in r[2:]] for r in new], oracle.disk())}
        for name, (o, n, exact) in columns.items():
            before, after = oracle_error(o, exact), oracle_error(n, exact)
            ok = after <= max(before, ORACLE_SLACK)
            audit.moved(name, list(zip(flat(o), flat(n))),
                        f"oracle error {before:.3g} -> {after:.3g} eps", ok)
    else:
        audit_text(audit, [",".join(r) for r in [header, *old]],
                   [",".join(r) for r in [header, *new]])


def parse_summary(text: str):
    """(bounces, total length, max drift) of a ``simulate`` summary line, or None."""
    m = SUMMARY.match(text.strip())
    return (int(m[1]), float(m[2]), float(m[3])) if m else None


def sibling_document(path: Path):
    for suffix in (".json", ".stdout"):
        other = path.with_suffix(suffix)
        if other.exists() and other.read_text().startswith("{"):
            return json.loads(other.read_text())
    return None


def audit_text(audit: Audit, old: list[str], new: list[str]) -> None:
    summaries = [parse_summary(lines[0]) if len(lines) == 1 else None for lines in (old, new)]
    if None not in summaries:
        (k0, len0, d0), (k1, len1, d1) = summaries
        if k0 != k1:
            audit.fail(f"bounces {k0} -> {k1}")
        audit_drift(audit, "max invariant drift", d0, d1)
        audit.moved("total length", [(len0, len1)], "trajectory, reported", True)
        return
    if len(old) != len(new):
        return audit.fail(f"{len(old)} lines -> {len(new)} lines")
    for i, (a, b) in enumerate(zip(old, new)):
        if a != b and a.replace("FAIL", "pass") != b:
            audit.fail(f"line {i + 1}: {a!r} -> {b!r}")
        elif a != b:
            audit.lines.append(f"line {i + 1}: FAIL -> pass")


def run(old_path: Path, new_path: Path) -> Audit:
    audit = Audit()
    old_text, new_text = old_path.read_text(), new_path.read_text()
    if old_text.startswith("{"):
        audit_json(audit, json.loads(old_text), json.loads(new_text))
    elif old_path.suffix == ".csv":
        audit_csv(audit, old_path, new_path, list(csv.reader(old_text.splitlines())),
                  list(csv.reader(new_text.splitlines())))
    else:
        audit_text(audit, old_text.splitlines(), new_text.splitlines())
    return audit


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    audit = run(Path(args[0]), Path(args[1]))
    for line in audit.lines:
        print(line)
    print(f"{args[1]}: {audit.failed} rule(s) failed")
    return 1 if audit.failed else 0


if __name__ == "__main__":
    sys.exit(main())
