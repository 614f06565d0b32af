"""hypbilliards benchmark: drives `hypbilliards.cli.main(argv)` in-process.

    python3 perfbench/run.py --workload {sweep-default,flow-long,cell-large}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a checkout.  One single-threaded closed-loop caller
keeps one CLI call in flight and sends the next when it returns; every
output is checked.  The program gets only the generated argv.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` measures the workload's calls untraced, replays the same calls
with every layer's public functions wrapped (see tracer.py), prints the
per-layer metrics and writes the spans to ``perfbench/out/``.

End-to-end metrics: ``setup_s`` (median wall time of a fresh interpreter
importing the CLI and building the workload's inputs, sampled seven times
across the run), ``peak_rss_mb``, and call times relative to a reference
loop (see `end_to_end`): the median at the workload's smallest and largest
dimension (``sweep-default`` has one call shape and reports it under both
names) and the work done per ref.  Raw times (``sweep_ms_p50``,
``sweep_ms_p90``, ``cells_per_s``, ``bounces_per_s``, ``doc_s.n32`` to
``doc_s.n128``) and ``fail_ratio`` are printed with their sample counts.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 7

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "call_rel_p50.smallest": "ref",
    "call_rel_p50.largest": "ref",
    "work_per_ref": "1/ref",
}
REF_VECTOR = np.arange(10.0)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_probe(workload: str, seed: int, workdir: Path):
    """A function that times one fresh interpreter importing the CLI and building the inputs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import pathlib, hypbilliards.cli, workloads; "
            f"wl = workloads.WORKLOADS[{workload!r}]({seed}, pathlib.Path({str(workdir)!r})); "
            "next(wl.rounds())")

    def probe() -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, timeout=120)
        return time.perf_counter() - t0

    return probe


@dataclass(frozen=True)
class _RefPoint:
    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", np.array(self.coords, copy=True))


def reference_loop() -> float:
    """Wall time of a fixed loop of the operations the program's inner loops
    are made of: small NumPy arrays, frozen dataclasses, math functions and
    float formatting.  It runs no hypbilliards code."""
    x = REF_VECTOR
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(800):
        w = np.asarray(x, dtype=np.float64)
        q = float(-w[0] * w[0] + w[1:] @ w[1:])
        p = _RefPoint(w / math.sqrt(q))
        acc += math.cosh(q * 1e-3) + float(p.coords[0]) + len(repr(q))
    return time.perf_counter() - t0


def pooled_reference_loop() -> float:
    """Wall time of three reference loops on a default-size thread pool.

    This is the shape in which `run_sweep` evaluates cells.  Against the
    single-threaded loop, the sweep's ratio still followed the host's speed
    state (30 s windows spread 8% on a 2-vCPU VM); against this one it
    spread 3.5%, so threaded calls are measured against a threaded reference.
    """
    t0 = time.perf_counter()
    with ThreadPoolExecutor() as pool:
        list(pool.map(lambda _: reference_loop(), range(3)))
    return time.perf_counter() - t0


class Caller:
    """Closed-loop caller: one `cli.main` call at a time, each output checked."""

    def __init__(self, cli, threaded: bool = False):
        self.cli = cli
        self.reference = pooled_reference_loop if threaded else reference_loop
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, call) -> tuple[float, float]:
        """Run one call; returns its wall time and the reference loop's, in seconds.

        The reference loop runs right before and right after the call, and
        the mean of the two is returned.
        """
        gc.collect()
        ref = self.reference()
        err = io.StringIO()
        self.attempted += 1
        t0 = time.perf_counter()
        wall = None
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = self.cli.main(list(call.argv))
                wall = time.perf_counter() - t0
            problem = call.check(rc, err.getvalue())
        except Exception as exc:  # a crash is a failed operation, not a benchmark abort
            wall = wall or time.perf_counter() - t0
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failures.append(f"{' '.join(call.argv)}: {problem}")
        return wall, 0.5 * (ref + self.reference())

    def rounds(self, rounds, seconds: float, side=None, side_count: int = 0):
        """Complete rounds until ``seconds`` have passed; (call, wall, ref) per call.

        ``side()`` runs ``side_count`` times, spread evenly over the run so
        that its samples see the same mix of host speed states as the calls;
        its time is not counted in ``seconds``.  Returns the calls and the
        values ``side`` returned.
        """
        out, side_out = [], []
        start, paused = time.perf_counter(), 0.0
        while True:
            if len(side_out) < side_count and (
                    time.perf_counter() - start - paused >= len(side_out) * seconds / side_count):
                t0 = time.perf_counter()
                side_out.append(side())
                paused += time.perf_counter() - t0
            out.extend((c, *self.call(c)) for c in next(rounds))
            if time.perf_counter() - start - paused >= seconds:
                break
        side_out += [side() for _ in range(side_count - len(side_out))]
        return out, side_out


def end_to_end(samples, unit: str) -> tuple[dict[str, float], list[str]]:
    """The end-to-end metrics of the calls, and a report line per named metric.

    The metrics divide each call's wall time by the reference loop's (one
    ref; threaded calls use `pooled_reference_loop`).  The host switches
    between a fast and a slow speed state every few seconds, by a factor of
    up to 2, and the share of each state varies from run to run; that moves
    every statistic of raw wall times, and the ratio cancels it.  Raw
    milliseconds are printed alongside.
    """
    dims = sorted({c.dim for c, _, _ in samples})
    ms = {d: [w * 1e3 for c, w, _ in samples if c.dim == d] for d in dims}
    rel = {d: [w / r for c, w, r in samples if c.dim == d] for d in dims}
    work = sum(c.work for c, _, _ in samples)
    metrics = {
        "call_rel_p50.smallest": statistics.median(rel[dims[0]]),
        "call_rel_p50.largest": statistics.median(rel[dims[-1]]),
        "work_per_ref": work / sum(w / r for _, w, r in samples),
    }
    lines = []
    for d in dims:
        p50, p90 = statistics.median(ms[d]), statistics.quantiles(ms[d], n=10)[-1]
        lines.append(f"{'sweep' if d == 0 else f'n={d}'}: call_ms_p50 {p50:.3f} ms, "
                     f"call_ms_p90 {p90:.3f} ms, call_rel_p50 {statistics.median(rel[d]):.3f} ref "
                     f"(n={len(ms[d])} calls)")
    n, rate = len(samples), work / sum(w for _, w, _ in samples)
    if unit == "bounces":
        lines.append(f"bounces_per_s {rate:.3f} 1/s (mean over n={n} calls)")
    elif dims == [0]:
        lines += [f"sweep_ms_p50 {statistics.median(ms[0]):.3f} ms (n={n})",
                  f"sweep_ms_p90 {statistics.quantiles(ms[0], n=10)[-1]:.3f} ms (n={n})",
                  f"cells_per_s {rate:.3f} 1/s (mean over n={n} sweeps)"]
    else:
        lines += [f"doc_s.n{d} {statistics.median(ms[d]) / 1e3:.4f} s (median, n={len(ms[d])})"
                  for d in dims]
    refs = [r * 1e3 for _, _, r in samples]
    lines.append(f"reference loop {statistics.median(refs):.3f} ms median, "
                 f"{min(refs):.3f}..{max(refs):.3f} ms (n={n})")
    lines.append(f"work_per_ref {metrics['work_per_ref']:.3f} {unit} per ref")
    return metrics, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hypbilliards" / "cli.py").is_file():
        print(f"error: no hypbilliards sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    import tracer as tracing

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        return run(args, workloads, tracing, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workloads, tracing, workdir: Path) -> int:
    factory = workloads.WORKLOADS[args.workload]
    from hypbilliards import cli
    from hypbilliards import geometry

    wl = factory(args.seed, workdir)
    caller = Caller(cli, wl.threaded)
    for c in factory(args.seed, workdir).warmup():  # fills caches; not counted
        Caller(cli, wl.threaded).call(c)

    rounds = wl.rounds()
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    if not args.trace:
        probe = setup_probe(args.workload, args.seed, workdir)
        probe()  # warms the bytecode and file caches; not counted
        timed, setup = caller.rounds(rounds, args.seconds, probe, SETUP_REPEATS)
        metrics, lines = end_to_end(timed, wl.unit)
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        lines += [f"setup_s {metrics['setup_s']:.4f} s (n={len(setup)}, "
                  f"min {min(setup):.4f}, max {max(setup):.4f})",
                  f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB (n=1)"]
        units = END_TO_END
    else:
        ns = tracing.mink_inner_ns(geometry.mink_inner)
        plain, _ = caller.rounds(rounds, args.seconds / 3)
        tr = tracing.Tracer()
        tr.install()
        try:
            traced = []
            for op, (c, _, _) in enumerate(plain):
                tr.op = op
                traced.append((c, *caller.call(c)))
        finally:
            tr.uninstall()
        work = sum(c.work for c, _, _ in traced)
        cells = work if wl.unit == "cells" else len(traced)
        bounces = work if wl.unit == "bounces" else 0
        metrics = tracing.layer_metrics(tr, cells, bounces)
        metrics["geometry.mink_inner.ns"] = statistics.mean(ns.values())
        metrics["trace.overhead_ratio"] = (sum(w / r for _, w, r in traced)
                                           / sum(w / r for _, w, r in plain))
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.tsv"
        tr.write(trace_path)
        units = {name: unit for name, (unit, _) in tracing.LAYER_MAP.items()}
        spans = tracing.spans_by_layer(tr)
        lines = [f"{name} {metrics[name]:.6g} {unit}" for name, unit in units.items()]
        lines.append(f"geometry.mink_inner.ns: len5 {ns[5]:.1f}, len10 {ns[10]:.1f}")
        lines.append("spans per layer: " + ", ".join(f"{k} {v}" for k, v in sorted(spans.items())))
        lines += [f"count changed: {m}" for m in tracing.count_changes(args.workload, metrics)]
        lines.append(f"{len(tr.table())} spans written to {trace_path.relative_to(ROOT)}")
    for line in lines:
        print("  " + line)
    failed = len(caller.failures)
    print(f"  fail_ratio {failed / caller.attempted:g} ({failed}/{caller.attempted} calls)")
    for f in caller.failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)

    missing = set(units) ^ set(metrics)
    if missing:
        print(f"error: metrics and their declarations disagree on {sorted(missing)}",
              file=sys.stderr)
        return 3
    result = {
        "correct": failed == 0,
        "attempted": caller.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
