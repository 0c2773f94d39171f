#!/usr/bin/env python3
"""Costs of polent's steady-state solve, RK4 run and sweep, as quoted in lindblad.py, cli.py and the README.

Prints seven tables, the ladder first:

- routes: steady_state's two routes on one Liouvillian, the whole inverse
  against levels, best of 9 in this one process, at side 16 (the reduced
  model at zeta 10, xi 2.135) and the full model at validate's rates from
  n_max 1 (side 64) to 8 (side 1296); lindblad.LEVEL_SIDE picks between them;
- blocks: the level route at sides 784 and 1296 for each block width of its
  Householder elimination (lindblad.BLOCK), best of 9 in this one process;
- stages: one steady_state by levels at sides 784 and 1296, the fastest
  of 9 runs in a process, the fastest of 3 fresh processes;
- evolve: one runs.dynamics to t = 50 at dt = 1e-3 and the CLI's cadence of
  100 (the model and its Liouvillian built, then evolve from |gg>) at
  perfbench's seed-1 ridge point, at lindblad.STRIDE 64, 128 and 256, the
  fastest of 9 runs in each of 5 rounds over the widths;
- sweep: cli._sweep_rows at ``--solver both`` on block 12 of the default
  81x81 grid (cli.BLOCK_SIZE, 256 points) and its CSV rows by
  cli._write_csv to os.devnull, the fastest of 9 runs in this one process,
  with the index plans kept (warm) and with lindblad's plan cache emptied
  before each run (cold), where the plan builders have rows of their own;
- witness: one entangle.separable_floor at its default samples, of the
  witness at perfbench's seed-1 ridge point, the fastest of 9 runs in this
  one process, with the sample set kept (warm) and as the first call of a
  process (cold: each run starts with nothing kept or drawn before, and
  draws block by block), where the draws have rows of their own;
- ladder: ``validate --nmax N``, one fresh interpreter per run with the cap
  lifted, its wall time, its time in nominal seconds (the wall time over a
  yardstick's, timed just before and after the run) and its max RSS
  (getrusage of that child); cli.MAX_NMAX is set from the nominal seconds.

A row of the stages, evolve, sweep and witness tables is the self time of one
function's calls in one run (SelfTimes), with its stage (LABELS), and the
rows add up to the run's "in all". Two trees compare only when both run in
one session, in turn: two copies of one tree, each timed in a session of
its own, read up to 1.7 times apart on one stage.

    python tools/solve_costs.py                     # every table, n_max 16..28
    python tools/solve_costs.py --nmax 20:28 --runs 3 --skip routes,blocks,stages,evolve
    python tools/solve_costs.py --skip ladder,routes,blocks,stages,sweep,witness  # the evolve table alone
    python tools/solve_costs.py --skip ladder,routes,blocks,stages,evolve,witness  # the sweep table alone
    python tools/solve_costs.py --skip ladder,routes,blocks,stages,evolve,sweep  # the witness table alone

polent is imported from ``src/`` next to this file. Run it on an otherwise
idle machine: the tables are times. The tests check that the functions
SelfTimes wraps still exist and that a table's rows add up, not the times.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import polent  # noqa: E402
from polent import analytic, cli, entangle, lindblad, model, qops, runs  # noqa: E402
from polent.lindblad import build_liouvillian, steady_state  # noqa: E402
from polent.model import (  # noqa: E402
    DimensionlessParams,
    PhysicalParams,
    build_effective_model,
    build_full_model,
)
from polent.qops import DensityMatrix  # noqa: E402

REPEATS = 9
BLOCKS = (8, 16, 24, 32, 48, 64, 1 << 30)  # the last is one block per level
VALIDATE = PhysicalParams(1.0, 10.0, 10.0, 0.01, 0.5)  # validate's default rates
PROCESSES = 3  # fresh processes of the stage table
RIDGE = (5.210641, 1.107693)  # (zeta, xi1) of perfbench's point workload at seed 1, its first dynamics
EVOLVE_STRIDES = (64, 128, 256)
EVOLVE_ROUNDS = 5  # the widths take turns, so that a slow stretch of the machine does not favour one
SWEEP_BLOCK = 12  # the block of the default grid that the sweep table times, points 3072-3327
# the stage that a timed function's self time is, in the stages, evolve, sweep and witness tables, where its
# name does not say; _step_powers' two calls in _batches are two stages, one row each
LABELS = {"build_effective_model": "model", "_triangularize_by_levels": "elimination",
          "_eliminate": "elimination", "_solve_by_levels": "Gram recursion", "_solve_whole": "inverse",
          "stationarity_residuals": "residual", "DensityMatrix": "check", "steady_state": "gap and residual checks",
          "_step_powers": ("set-up, X_j", "anchor level, Y_b"), "_batches": "batch products",
          "_row_traces": "drift", "_held_matrices": "sample matrices", "evolve": "set-up and loop",
          "entanglement": "spectrum and gate", "_concurrence": "tau and svd", "_roots": "factor",
          "_write_csv": "CSV rows", "_assembly_plan": "plan", "_real_form_plan": "plan",
          "_exchange_plan": "plan", "_whole_plan": "plan", "_sample_blocks": "draws",
          "_product_expectations": "expectations", "_block_floor": "mixtures and minimum",
          "separable_floor": "checks and kept set"}
# the yardstick's time on a quiet 2-vCPU x86-64 virtual machine (Python 3.11, numpy 2.4,
# OpenBLAS 0.3.31): there a nominal second is about a wall second
YARD_NOMINAL_S = 0.050
_YARD = np.random.default_rng(0).standard_normal((600, 300))


def yardstick_seconds() -> float:
    """Time of a fixed computation that uses no polent code: the machine-speed yardstick.

    Copied from perfbench's reference_seconds, the median of five short
    timings so that one preempted timing does not count, but LAPACK-bound like
    the ladder's level solves: a Householder QR of a fixed 600 x 300 matrix, a
    triangular inverse and two products. Eight runs of validate --nmax 22
    spread 1.19 times in wall seconds, 1.18 times scaled by this yardstick
    and 1.55 times scaled by perfbench's interpreter-bound one.
    """
    times = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(2):
            q, r = np.linalg.qr(_YARD)
            np.linalg.inv(r[:200, :200]) @ (q.T @ _YARD)[:200]
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@contextlib.contextmanager
def _patched(**names):
    """lindblad's names set as given, and restored on exit."""
    saved = {name: getattr(lindblad, name) for name in names}
    try:
        for name, value in names.items():
            setattr(lindblad, name, value)
        yield
    finally:
        for name, value in saved.items():
            setattr(lindblad, name, value)


def _min_ms(call) -> float:
    """Best of REPEATS calls, in ms, after one call that warms the caches."""
    call()
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e3 * min(times)


def _best(liouv, **settings) -> float:
    """Best of REPEATS steady_state calls on liouv, in ms, with lindblad's constants set as given."""
    with _patched(**settings):
        return _min_ms(lambda: steady_state(liouv))


def _full(n_max: int):
    return build_liouvillian(build_full_model(PhysicalParams(**{**vars(VALIDATE), "n_max": n_max})))


def routes() -> None:
    print("routes: steady_state, whole inverse / levels, ms (best of 9, one process)")
    cases = [("reduced", build_liouvillian(build_effective_model(DimensionlessParams(10.0, 2.135))))]
    cases += [(f"n_max {n}", _full(n)) for n in range(1, 9)]
    for name, liouv in cases:
        whole, levels = _best(liouv, LEVEL_SIDE=1 << 62), _best(liouv, LEVEL_SIDE=0)
        print(f"  side {liouv.space.dim**2:5d} ({name:8s}) {whole:8.2f} / {levels:8.2f}")


def blocks() -> None:
    print("blocks: the level route's steady_state by block width, ms (best of 9, one process)")
    cases = {n: _full(n) for n in (6, 8)}
    for width in BLOCKS:
        times = "  ".join(f"side {c.space.dim**2}: {_best(c, BLOCK=width):7.2f}" for c in cases.values())
        print(f"  {'per level' if width == BLOCKS[-1] else width:>9} {times}")


# the functions that the stages, evolve, sweep and witness tables time, by the module or class that defines them
TIMED = (
    (lindblad, ("steady_state", "evolve", "build_liouvillian", "stationarity_residuals", "_real_form",
                "_to_exchange_basis", "_levels", "_solve_by_levels", "_triangularize_by_levels", "_eliminate",
                "_solve_whole", "_step_powers", "_batches", "_row_traces", "_held_matrices", "_assembly_plan",
                "_real_form_plan", "_exchange_plan", "_whole_plan")),
    (entangle, ("entanglement", "_concurrence", "_roots", "separable_floor", "_sample_blocks", "_bloch_vectors",
                "_product_expectations", "_block_floor")),
    (analytic, ("closed_form",)),
    (model, ("build_effective_model",)),
    (cli, ("_sweep_rows", "_write_csv")),
    (DensityMatrix, ("__post_init__",)),
)
HOLDERS = (polent, analytic, cli, entangle, lindblad, model, qops)


class SelfTimes:
    """One run of call(): ``calls[name]`` lists each TIMED call's time less its TIMED calls', in ns.

    ``total``, the time of the outermost calls, is their sum. For the run, as
    perfbench's Tracer does, a function is rebound in every polent module that
    holds it, and a __post_init__ takes its class's name. A generator is timed
    step by step, so the caller's work between steps is the caller's.
    """

    def __init__(self, call):
        self.calls, self._inner, undo = defaultdict(list), [0], []
        try:
            for owner, names in TIMED:
                for attr in names:
                    fn = vars(owner)[attr]
                    wrapper = self._wrap(owner.__name__ if isinstance(owner, type) else attr, fn)
                    for holder in (owner,) if isinstance(owner, type) else HOLDERS:
                        for key, value in list(vars(holder).items()):
                            if value is fn:
                                undo.append((holder, key, value))
                                setattr(holder, key, wrapper)
            call()
        finally:
            for holder, key, value in reversed(undo):
                setattr(holder, key, value)
        self.total = self._inner[0]

    def _span(self, name: str, fn, *args, **kwargs):
        self._inner.append(0)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            took = time.perf_counter_ns() - start
            self.calls[name].append(took - self._inner.pop())
            self._inner[-1] += took

    def _wrap(self, name: str, fn):
        def steps(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while (item := self._span(name, next, inner, None)) is not None:
                yield item

        return functools.wraps(fn)(steps if inspect.isgeneratorfunction(fn)
                                   else lambda *args, **kwargs: self._span(name, fn, *args, **kwargs))


def fastest(call, repeats: int = REPEATS, forget=None) -> dict[str, float]:
    """Self times by function in the order they first return, and "in all", ms, of the fastest of
    ``repeats`` timed runs of call(), after one run that warms the caches; with ``forget``, each
    timed run starts with forget(), which empties a cache outside the timed calls."""
    call()
    timed = (lambda: (forget(), call())) if forget else call
    run = min((SelfTimes(timed) for _ in range(repeats)), key=lambda run: run.total)
    rows = {}
    for name, calls in run.calls.items():
        label = LABELS.get(name)
        if isinstance(label, tuple):  # one row a call
            rows.update((f"{name} ({stage})", 1e-6 * ns) for stage, ns in zip(label, calls, strict=True))
        else:
            rows[f"{name} ({label})" if label else name] = 1e-6 * sum(calls)
    return {**rows, "in all": 1e-6 * run.total}


def _table(title: str, columns: dict[str, dict[str, float]]) -> None:
    """The columns' rows, in the order of the column that has the most; "-" where a column has none."""
    print(title)
    print(f"  {'':44s}" + "".join(f" {head:>10s}" for head in columns))
    for label in max(columns.values(), key=len):
        print(f"  {label:44s}" + "".join(f" {column[label]:10.3f}" if label in column else f" {'-':>10s}"
                                         for column in columns.values()))


def stage_times(repeats: int = REPEATS) -> list[dict[str, float]]:
    """The rows of one steady_state at sides 784 and 1296, the fastest of ``repeats`` runs in this process."""
    return [fastest(lambda: lindblad.steady_state(liouv), repeats) for liouv in (_full(6), _full(8))]


def stages() -> None:
    here = Path(__file__)
    code = (f"import json, sys; sys.path.insert(0, {str(here.parent)!r}); "
            f"from {here.stem} import stage_times; print(json.dumps(stage_times()))")
    runs = [json.loads(subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                                      text=True).stdout) for _ in range(PROCESSES)]
    _table(f"stages: one level solve by function, ms (fastest of {REPEATS} runs in a process, of {PROCESSES} "
           "processes)", {f"side {side}": min((run[i] for run in runs), key=lambda rows: rows["in all"])
                          for i, side in enumerate((784, 1296))})


def evolve_times(stride: int, repeats: int = REPEATS) -> dict[str, float]:
    """The rows of one runs.dynamics at RIDGE at lindblad.STRIDE = stride, the fastest of ``repeats`` runs."""
    with _patched(STRIDE=stride):
        return fastest(lambda: runs.dynamics(*RIDGE, 0.0, 50.0, 1e-3, 100), repeats)


def evolve_table() -> None:
    rounds = [[evolve_times(stride) for stride in EVOLVE_STRIDES] for _ in range(EVOLVE_ROUNDS)]
    _table(f"evolve: one runs.dynamics to t = 50 at dt = 1e-3 by function and STRIDE, ms (fastest of {REPEATS} runs in "
           f"each of {EVOLVE_ROUNDS} rounds over the widths, one process)",
           {f"STRIDE {stride}": min(column, key=lambda rows: rows["in all"])
            for stride, column in zip(EVOLVE_STRIDES, zip(*rounds))})


def sweep_times(repeats: int = REPEATS, cold: bool = False) -> dict[str, float]:
    """The rows of block SWEEP_BLOCK of the default sweep with its CSV rows, the fastest of ``repeats`` runs,
    each from an empty plan cache with ``cold``."""
    zs, xs = (np.linspace(lo, hi, steps) for lo, hi, steps in cli._grid(cli.DEFAULT_GRID))
    first = SWEEP_BLOCK * cli.BLOCK_SIZE
    z, x1 = (v[first:first + cli.BLOCK_SIZE] for v in (np.repeat(zs, len(xs)), np.tile(xs, len(zs))))
    x2 = np.zeros_like(z)
    return fastest(lambda: cli._write_csv(os.devnull, cli._CSV_HEADER, cli._sweep_rows(z, x1, x2, "both")),
                   repeats, lindblad._PLANS.clear if cold else None)


def sweep_table() -> None:
    _table(f"sweep: block {SWEEP_BLOCK} of the default grid, {cli.BLOCK_SIZE} points, at --solver both, by "
           f"function, ms (fastest of {REPEATS} runs, one process; cold: no index plan kept)",
           {"warm": sweep_times(), "cold": sweep_times(cold=True)})


def witness_times(repeats: int = REPEATS, cold: bool = False) -> dict[str, float]:
    """The rows of one separable_floor of the witness at RIDGE, the fastest of ``repeats`` runs, each as the
    first call of a process with ``cold``."""
    witness = runs.witness_report(*RIDGE, 0.0).witness
    forget = (lambda: (entangle._DRAWN_ONCE.clear(), entangle._kept_samples.cache_clear())) if cold else None
    return fastest(lambda: entangle.separable_floor(witness), repeats, forget)


def witness_table() -> None:
    _table(f"witness: separable_floor at {entangle.N_PURE_SAMPLES} + {entangle.N_MIXED_SAMPLES} samples by "
           f"function, ms (fastest of {REPEATS} runs, one process; cold: a process's first call)",
           {"warm": witness_times(), "cold": witness_times(cold=True)})


def ladder(first: int, last: int, runs: int) -> None:
    print("ladder: validate --nmax N, one fresh interpreter each: wall s, nominal s, max RSS MiB")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    # the cap is lifted in the child, so that the rungs beyond it are timed too
    code = "import sys; from polent import cli; cli.MAX_NMAX = 1 << 30; sys.exit(cli.main(sys.argv[1:]))"
    for n_max in range(first, last + 1):
        cells = []
        for _ in range(runs):
            yard = yardstick_seconds()
            start = time.perf_counter()
            child = subprocess.Popen([sys.executable, "-c", code, "validate", "--nmax", str(n_max)],
                                     env=env, stdout=subprocess.DEVNULL)
            _, status, usage = os.wait4(child.pid, 0)  # this child's own usage
            wall = time.perf_counter() - start
            nominal = wall * YARD_NOMINAL_S / ((yard + yardstick_seconds()) / 2)
            child.returncode = os.waitstatus_to_exitcode(status)
            cells.append(f"{wall:5.2f} s {nominal:5.2f} nominal s {usage.ru_maxrss / 1024:6.1f} MiB"
                         + (f" (exit {child.returncode})" if child.returncode else ""))
        print(f"  n_max {n_max:2d}  " + "  ".join(cells))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nmax", default="16:28", help="the ladder's first:last n_max (default 16:28)")
    parser.add_argument("--runs", type=int, default=1, help="fresh interpreters per ladder rung (default 1)")
    parser.add_argument("--skip", default="",
                        help="tables to leave out, comma-separated: ladder, routes, blocks, stages, evolve, sweep, "
                             "witness")
    args = parser.parse_args()
    skip = set(filter(None, args.skip.split(",")))
    first, last = (int(part) for part in args.nmax.split(":"))
    # the ladder first: a child's max RSS counts the process it was started from
    tables = {"ladder": lambda: ladder(first, last, args.runs), "routes": routes, "blocks": blocks,
              "stages": stages, "evolve": evolve_table, "sweep": sweep_table, "witness": witness_table}
    for name, table in tables.items():
        if name not in skip:
            table()

if __name__ == "__main__":
    main()
