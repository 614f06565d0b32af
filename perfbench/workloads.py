"""The three benchmark workloads: the CLI calls each one makes and the checks on their outputs.

Every workload is a closed loop of rounds.  A round is a fixed rotation of
calls over the workload's dimensions (one call for `sweep-default`), so a
run always holds equal numbers of calls per dimension and its throughput
does not depend on where the clock stopped.  Each call writes its output
file into a scratch directory; the check reads it back before the next call
overwrites it.

Why these workloads:

* ``sweep-default``: ``verify`` on the default grid (n = 2..8, a = 0.5/1/2,
  21 cells).  Many small cells, so per-call overhead dominates: argument
  re-validation, ``HPoint`` construction, the thread pool, the root solver
  and orbit verification.  The flow runs only n+1 bounces per cell.  The
  seed is unused: this is the grid whose report must stay bit-identical.
* ``flow-long``: ``simulate`` from a perturbed orbit launch, alternating
  n = 3 and n = 8, 10^3 bounces per call and about 10^5 per run.  The
  flow's steady-state cost per bounce, with the CSV writing; per-call set-up
  is about 1% of a call.  Paired with ``sweep-default`` it shows a flow
  change that adds per-simplex set-up but only pays off on long runs.
  Calls are kept well under a second because the host alternates between
  a fast and a slow speed state every few seconds: a 10^4-bounce call
  (about 3 s) averages over both, so no statistic over a run's few such
  calls is steady, while short calls land in one state each.
* ``cell-large``: ``orbit --json`` at n = 32, 64 and 128.  The same layers
  as ``sweep-default``, but the O(n^2) Python loops and the serialization
  of large documents dominate, so a change that trades per-call overhead
  for per-n work shows on one of the two and not the other.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

from hypbilliards.report import Tolerances

SWEEP_CELLS = 21  # n = 2..8 times a = 0.5, 1, 2: the CLI's default grid
FLOW_DIMS = (3, 8)
FLOW_STEPS = 1_000
FLOW_PERTURB = "0.3"
DRIFT_LIMIT = 1e-12  # measured max invariant drift is about 2e-15
CELL_DIMS = (32, 64, 128)
CELL_EDGES = (0.5, 2.0)  # log-uniform range of the cell-large edges

_SUMMARY = re.compile(r"^(\d+) bounces, total length \S+, max invariant drift (\S+)$", re.M)


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the check its outputs must pass."""

    argv: list[str]
    dim: int  # size class of the call; 0 where a workload has a single shape
    work: int  # cells (verify, orbit) or bounces (simulate)
    check: Callable[[int, str], str | None]  # (exit code, stderr) -> failure or None


class SweepDefault:
    name = "sweep-default"
    unit = "cells"
    threaded = True  # verify evaluates its cells on a thread pool

    def __init__(self, seed: int, workdir: Path):
        self.path = workdir / "report.json"
        self.first: bytes | None = None

    def rounds(self) -> Iterator[list[Call]]:
        call = Call(["verify", "--report", str(self.path)], 0, SWEEP_CELLS, self.check)
        while True:
            yield [call]

    def warmup(self) -> list[Call]:
        return next(self.rounds())

    def check(self, rc: int, stderr: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        data = self.path.read_bytes()
        doc = json.loads(data)
        cells = doc["cells"]
        if len(cells) != SWEEP_CELLS:
            return f"{len(cells)} cells in the report, expected {SWEEP_CELLS}"
        bad = [(c["n"], c["edge"]) for c in cells if c["passed"] is not True]
        if bad or doc["passed"] is not True:
            return f"cells failed: {bad}"
        if self.first is None:
            self.first = data
        elif data != self.first:
            return "report bytes differ from the first sweep of this run"
        return None


class FlowLong:
    name = "flow-long"
    unit = "bounces"
    threaded = False

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.path = workdir / "trajectory.csv"

    def rounds(self) -> Iterator[list[Call]]:
        while True:
            yield [self.call(n, self.rng.randrange(2**31)) for n in FLOW_DIMS]

    def warmup(self) -> list[Call]:
        return [self.call(n, 0, steps=100) for n in FLOW_DIMS]

    def call(self, n: int, perturb_seed: int, steps: int = FLOW_STEPS) -> Call:
        argv = ["simulate", "--dim", str(n), "--edge", "1", "--steps", str(steps),
                "--perturb", FLOW_PERTURB, "--seed", str(perturb_seed), "--csv", str(self.path)]
        return Call(argv, n, steps, partial(check_trajectory, self.path, n, steps))


def check_trajectory(path: Path, n: int, steps: int, rc: int, stderr: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    if header != ["step", "facet", "arclength"] + [f"disk{i}" for i in range(n)]:
        return f"unexpected CSV header {header}"
    if len(rows) != steps:
        return f"{len(rows)} CSV rows, expected {steps}"
    prev = None
    for i, row in enumerate(rows):
        facet = int(row[1])
        if int(row[0]) != i or not 0 <= facet <= n or facet == prev:
            return f"bad bounce row {i}: {row[:2]} after facet {prev}"
        if not float(row[2]) > 0.0 or sum(float(x) ** 2 for x in row[3:]) >= 1.0:
            return f"bounce {i} has a non-positive flight or leaves the unit disk"
        prev = facet
    m = _SUMMARY.search(stderr)
    if m is None or int(m[1]) != steps:
        return f"no summary for {steps} bounces on stderr: {stderr!r}"
    if not float(m[2]) < DRIFT_LIMIT:
        return f"max invariant drift {m[2]} not below {DRIFT_LIMIT:g}"
    return None


class CellLarge:
    name = "cell-large"
    unit = "cells"
    threaded = False

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.path = workdir / "orbit.json"

    def rounds(self) -> Iterator[list[Call]]:
        lo, hi = (math.log(a) for a in CELL_EDGES)
        while True:
            yield [self.call(n, math.exp(self.rng.uniform(lo, hi))) for n in CELL_DIMS]

    def warmup(self) -> list[Call]:
        return [self.call(CELL_DIMS[0], 1.0)]

    def call(self, n: int, edge: float) -> Call:
        argv = ["orbit", "--dim", str(n), "--edge", repr(edge), "--json", str(self.path)]
        return Call(argv, n, 1, partial(check_orbit, self.path, n, edge))


def check_orbit(path: Path, n: int, edge: float, rc: int, stderr: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    doc = json.loads(path.read_bytes())
    if doc["n"] != n or doc["edge"] != edge or len(doc["orbit"]["points"]) != n + 1:
        return f"document is not the n={n}, edge={edge!r} orbit"
    checks = doc["checks"]
    if checks["passed"] is not True:
        return f"checks failed: {checks.get('failures')}"
    if not checks["closure"] < Tolerances().closure:
        return f"closure {checks['closure']} not below {Tolerances().closure}"
    return None


WORKLOADS = {w.name: w for w in (SweepDefault, FlowLong, CellLarge)}
