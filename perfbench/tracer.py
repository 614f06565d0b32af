"""Spans and counts around the public functions of each hypbilliards layer.

`Tracer.install` rebinds every traced function in every ``hypbilliards``
module that binds it (``mink_inner`` alone is bound by name in seven
modules) to a wrapper, and `Tracer.uninstall` puts the originals back.
Nothing under ``src/`` changes.

A span records its id, parent span, operation (one ``cli.main`` call),
function, simplex dimension (taken from the first argument where it has
one), wall start and end, thread CPU time, and the number of counted calls
(``mink_inner``) made directly inside it.  Spans live in one flat array in
memory and are written out once, after the run.  Re-entrant calls
(``jsonable`` recurses through its module binding) fold into the outer span.

`run_sweep` evaluates cells on a thread pool.  A span opened on a pool
thread with no open span of its own takes the innermost open span of the
main thread (``run_sweep``) as its parent and is marked cross-thread.
Per-layer times are thread CPU time, so cells that wait for the interpreter
lock held by a sibling cell are not charged for the wait.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from array import array
from pathlib import Path

import numpy as np

SPANNED = (
    ("cli", "main"),
    ("report", "run_sweep"), ("report", "evaluate_cell"), ("report", "orbit_document"),
    ("report", "jsonable"), ("report", "trajectory_rows"),
    ("simplex", "build"), ("simplex", "metrics"),
    ("simplex", "vertex_reflection_identity_residual"), ("simplex", "classify_point"),
    ("weights", "build_sequence"), ("weights", "solve_y0"), ("weights", "eval_g"),
    ("masses", "centroid_fold"),
    ("orbit", "construct_orbit"), ("orbit", "verify_orbit"),
    ("orbit", "midpoint_trajectory_defect"),
    ("flow", "step"), ("flow", "next_collision"), ("flow", "reflect_at"),
    ("flow", "closure_error"),
)
COUNTED = ("geometry", "mink_inner")  # too small and too frequent for a span

FIELDS = ("id", "parent", "op", "name", "n", "start_ns", "end_ns", "cpu_ns", "counted", "cross")
ID, PARENT, OP, NAME, DIM, START, END, CPU, COUNT, CROSS = range(len(FIELDS))

# Per-layer metric -> (unit, the end-to-end metric it should move and on which
# workload).  `ms`/`us` metrics are thread CPU time per call unless named
# otherwise; a count's note starts with its value when the benchmark was defined.
LAYER_MAP = {
    "cli.main.ms": ("ms", "wall per call; call_rel_p50.* on sweep-default and cell-large"),
    "report.evaluate_cell.ms": ("ms", "work_per_ref and call_rel_p50.* on sweep-default"),
    "report.evaluate_cell.self_ms": ("ms", "work_per_ref on sweep-default"),
    "report.run_sweep.pool_overhead_ms":
        ("ms", "run_sweep wall minus its cells' CPU; call_rel_p50.* on sweep-default"),
    "report.orbit_document.self_ms": ("ms", "call_rel_p50.largest (n = 128) on cell-large"),
    "report.jsonable.ms": ("ms", "call_rel_p50.largest (n = 128) on cell-large"),
    "report.trajectory_rows.us_per_bounce": ("us", "work_per_ref (bounces) on flow-long"),
    "simplex.build.ms": ("ms", "call_rel_p50.* on cell-large, work_per_ref on sweep-default"),
    "simplex.build.calls_per_doc":
        ("count", "2 per orbit document, 1 per sweep cell or simulate run"),
    "simplex.metrics.ms": ("ms", "call_rel_p50.* on cell-large, work_per_ref on sweep-default"),
    "simplex.vertex_reflection_identity_residual.ms":
        ("ms", "call_rel_p50.* on cell-large, work_per_ref on sweep-default"),
    "simplex.classify_point.us": ("us", "work_per_ref on flow-long"),
    "simplex.classify_point.calls_per_bounce": ("count", "1; work_per_ref on flow-long"),
    "weights.build_sequence.us": ("us", "work_per_ref on sweep-default; no change on the others"),
    "weights.solve_y0.us": ("us", "work_per_ref on sweep-default; no change on the others"),
    "weights.eval_g.calls_per_solve": ("count", "solver iterations; work_per_ref on sweep-default"),
    "masses.centroid_fold.us":
        ("us", "call_rel_p50.largest on cell-large, work_per_ref on sweep-default"),
    "masses.centroid_fold.calls_per_cell": ("count", "call_rel_p50.* on cell-large"),
    "orbit.construct_orbit.ms":
        ("ms", "work_per_ref on sweep-default, call_rel_p50.* on cell-large"),
    "orbit.construct_orbit.calls_per_doc":
        ("count", "2 per orbit document, 1 per sweep cell or simulate run"),
    "orbit.verify_orbit.ms": ("ms", "work_per_ref on sweep-default, call_rel_p50.* on cell-large"),
    "orbit.midpoint_trajectory_defect.ms":
        ("ms", "work_per_ref on sweep-default, call_rel_p50.* on cell-large"),
    "flow.step.us": ("us", "work_per_ref on flow-long"),
    "flow.step.self_us": ("us", "work_per_ref on flow-long"),
    "flow.next_collision.us": ("us", "work_per_ref on flow-long"),
    "flow.reflect_at.us": ("us", "work_per_ref on flow-long"),
    "flow.closure_error.ms": ("ms", "work_per_ref on sweep-default (short closure runs)"),
    "geometry.mink_inner.calls_per_bounce.n3": ("count", "33; work_per_ref on flow-long"),
    "geometry.mink_inner.calls_per_bounce.n8": ("count", "48; work_per_ref on flow-long"),
    "geometry.mink_inner.calls_per_cell": ("count", "work_per_ref on sweep-default"),
    "geometry.mink_inner.ns":
        ("ns", "untraced microbenchmark; work_per_ref on flow-long and sweep-default"),
    "trace.overhead_ratio":
        ("ratio", "traced over untraced refs of the same calls; sizes the tracing cost"),
}

# Counts that are deterministic at the commit that defined the benchmark.
# The traced run compares against them and reports any that moved.
RECORDED_COUNTS = {
    "sweep-default": {"geometry.mink_inner.calls_per_bounce.n3": 33,
                      "geometry.mink_inner.calls_per_bounce.n8": 48,
                      "simplex.build.calls_per_doc": 1,
                      "orbit.construct_orbit.calls_per_doc": 1},
    "flow-long": {"geometry.mink_inner.calls_per_bounce.n3": 33,
                  "geometry.mink_inner.calls_per_bounce.n8": 48,
                  "simplex.build.calls_per_doc": 1,
                  "orbit.construct_orbit.calls_per_doc": 1},
    "cell-large": {"simplex.build.calls_per_doc": 2,
                   "orbit.construct_orbit.calls_per_doc": 2},
}


class _Frames(threading.local):
    def __init__(self):
        self.open: list[list[int]] = []  # [span id, counted calls, name id] per open span


class Tracer:
    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fn in SPANNED]
        self.records = array("q")
        self.op = -1
        self._ids = itertools.count()
        self._frames = _Frames()
        self._main = self._frames.open
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "hypbilliards" or name.startswith("hypbilliards.")]
        targets = [(mod, fn, self._span(i, getattr(sys.modules[f"hypbilliards.{mod}"], fn)))
                   for i, (mod, fn) in enumerate(SPANNED)]
        mod, fn = COUNTED
        targets.append((mod, fn, self._count(getattr(sys.modules[f"hypbilliards.{mod}"], fn))))
        for mod, fn, wrapper in targets:
            orig = getattr(sys.modules[f"hypbilliards.{mod}"], fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._restore.append((m, attr, orig))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            m, attr, orig = self._restore.pop()
            setattr(m, attr, orig)

    def _span(self, nid: int, fn):
        frames, main, ids, put = self._frames, self._main, self._ids, self.records.extend
        wall, cpu = time.perf_counter_ns, time.thread_time_ns

        def wrapper(*args, **kwargs):
            stack = frames.open
            if stack:
                if stack[-1][2] == nid:
                    return fn(*args, **kwargs)
                parent, cross = stack[-1][0], 0
            elif main:
                parent, cross = main[-1][0], 1
            else:
                parent, cross = -1, 0
            a0 = args[0] if args else None
            n = a0 if type(a0) is int else getattr(a0, "n", -1)
            frame = [next(ids), 0, nid]
            stack.append(frame)
            c0 = cpu()
            t0 = wall()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = wall()
                c1 = cpu()
                stack.pop()
                put((frame[0], parent, self.op, nid, n, t0, t1, c1 - c0, frame[1], cross))

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, fn):
        frames = self._frames

        def wrapper(*args, **kwargs):
            stack = frames.open
            if stack:
                stack[-1][1] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def table(self) -> np.ndarray:
        return np.array(self.records, dtype=np.int64).reshape(-1, len(FIELDS))

    def write(self, path: Path) -> None:
        """Spans as tab-separated text, one per line, in order of closing."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("\t".join(FIELDS) + "\n")
            for row in self.table().tolist():
                row[NAME] = self.names[row[NAME]]
                fh.write("\t".join(map(str, row)) + "\n")


def layer_metrics(tracer: Tracer, cells: int, bounces: int) -> dict[str, float]:
    """Per-layer metrics from the spans of a traced run.

    ``cells`` counts the cells the traced calls processed (21 per sweep, one
    per orbit document or simulate run); ``bounces`` the bounces that
    `trajectory_rows` serialized.  A layer the workload never calls reads 0.
    """
    t = tracer.table()
    idx = {name: i for i, name in enumerate(tracer.names)}
    pos = np.full(int(t[:, ID].max()) + 1, -1, dtype=np.int64)
    pos[t[:, ID]] = np.arange(len(t))
    parent_row = np.where(t[:, PARENT] >= 0, pos[np.maximum(t[:, PARENT], 0)], -1)
    same = (parent_row >= 0) & (t[:, CROSS] == 0)
    cpu = t[:, CPU].astype(np.float64)
    wall = (t[:, END] - t[:, START]).astype(np.float64)

    child_cpu = np.zeros(len(t))
    np.add.at(child_cpu, parent_row[same], cpu[same])
    cross = t[:, CROSS] == 1
    cross_cpu = np.zeros(len(t))
    np.add.at(cross_cpu, parent_row[cross], cpu[cross])
    counted = t[:, COUNT].astype(np.float64)  # becomes inclusive of descendants below
    for r in np.argsort(-t[:, ID]).tolist():
        p = parent_row[r]
        if p >= 0:
            counted[p] += counted[r]

    def rows(name):
        return t[:, NAME] == idx[name]

    def per_call(name, values, scale):
        sel = rows(name)
        return float(values[sel].mean() * scale) if sel.any() else 0.0

    def ratio(num, den):
        return float(num) / den if den else 0.0

    step = rows("flow.step")
    step_child = np.isin(t[:, PARENT], t[step, ID])
    solve_child = np.isin(t[:, PARENT], t[rows("weights.solve_y0"), ID])
    ms, us = 1e-6, 1e-3
    out = {
        "cli.main.ms": per_call("cli.main", wall, ms),
        "report.evaluate_cell.ms": per_call("report.evaluate_cell", cpu, ms),
        "report.evaluate_cell.self_ms": per_call("report.evaluate_cell", cpu - child_cpu, ms),
        "report.run_sweep.pool_overhead_ms": per_call("report.run_sweep", wall - cross_cpu, ms),
        "report.orbit_document.self_ms": per_call("report.orbit_document", cpu - child_cpu, ms),
        "report.jsonable.ms": per_call("report.jsonable", cpu, ms),
        "report.trajectory_rows.us_per_bounce":
            ratio(cpu[rows("report.trajectory_rows")].sum() * us, bounces),
        "simplex.build.ms": per_call("simplex.build", cpu, ms),
        "simplex.build.calls_per_doc": ratio(rows("simplex.build").sum(), cells),
        "simplex.metrics.ms": per_call("simplex.metrics", cpu, ms),
        "simplex.vertex_reflection_identity_residual.ms":
            per_call("simplex.vertex_reflection_identity_residual", cpu, ms),
        "simplex.classify_point.us": per_call("simplex.classify_point", cpu, us),
        "simplex.classify_point.calls_per_bounce":
            ratio((rows("simplex.classify_point") & step_child).sum(), step.sum()),
        "weights.build_sequence.us": per_call("weights.build_sequence", cpu, us),
        "weights.solve_y0.us": per_call("weights.solve_y0", cpu, us),
        "weights.eval_g.calls_per_solve":
            ratio((rows("weights.eval_g") & solve_child).sum(), rows("weights.solve_y0").sum()),
        "masses.centroid_fold.us": per_call("masses.centroid_fold", cpu, us),
        "masses.centroid_fold.calls_per_cell": ratio(rows("masses.centroid_fold").sum(), cells),
        "orbit.construct_orbit.ms": per_call("orbit.construct_orbit", cpu, ms),
        "orbit.construct_orbit.calls_per_doc": ratio(rows("orbit.construct_orbit").sum(), cells),
        "orbit.verify_orbit.ms": per_call("orbit.verify_orbit", cpu, ms),
        "orbit.midpoint_trajectory_defect.ms":
            per_call("orbit.midpoint_trajectory_defect", cpu, ms),
        "flow.step.us": per_call("flow.step", cpu, us),
        "flow.step.self_us": per_call("flow.step", cpu - child_cpu, us),
        "flow.next_collision.us": per_call("flow.next_collision", cpu, us),
        "flow.reflect_at.us": per_call("flow.reflect_at", cpu, us),
        "flow.closure_error.ms": per_call("flow.closure_error", cpu, ms),
        "geometry.mink_inner.calls_per_cell": ratio(t[:, COUNT].sum(), cells),
    }
    for n in (3, 8):
        sel = step & (t[:, DIM] == n)
        out[f"geometry.mink_inner.calls_per_bounce.n{n}"] = ratio(counted[sel].sum(), sel.sum())
    return out


def mink_inner_ns(mink_inner, seconds: float = 0.6) -> dict[int, float]:
    """Untraced median nanoseconds per call on length-5 and length-10 vectors.

    Those are the ambient sizes of the flow at n = 3 and n = 8.  Each sample
    times a batch of 1000 calls, loop overhead included.
    """
    rng = np.random.default_rng(0)
    out = {}
    for size in (5, 10):
        x, y = rng.standard_normal(size), rng.standard_normal(size)
        samples = []
        stop = time.perf_counter() + seconds / 2
        while time.perf_counter() < stop or len(samples) < 5:
            t0 = time.perf_counter_ns()
            for _ in range(1000):
                mink_inner(x, y)
            samples.append((time.perf_counter_ns() - t0) / 1000)
        out[size] = float(np.median(samples))
    return out


def count_changes(workload: str, metrics: dict[str, float]) -> list[str]:
    """Recorded deterministic counts that this run did not reproduce."""
    return [f"{name}: recorded {want}, measured {metrics[name]}"
            for name, want in RECORDED_COUNTS[workload].items() if metrics[name] != want]


def spans_by_layer(tracer: Tracer) -> dict[str, int]:
    counts = np.bincount(tracer.table()[:, NAME], minlength=len(tracer.names))
    return {name: int(k) for name, k in zip(tracer.names, counts) if k}
