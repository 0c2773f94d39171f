#!/usr/bin/env python3
"""Costs of polent's steady-state solve, RK4 run and sweep, as quoted in lindblad.py, cli.py and the README.

Prints six tables, the ladder first:

- routes: steady_state's two routes on one Liouvillian, the whole inverse
  against levels, best of 9 in this one process, at side 16 (the reduced
  model at zeta 10, xi 2.135) and the full model at validate's rates from
  n_max 1 (side 64) to 8 (side 1296); lindblad.LEVEL_SIDE picks between them;
- blocks: the level route at sides 784 and 1296 for each block width of its
  Householder elimination (lindblad.BLOCK), best of 9 in this one process;
- stages: one level solve at sides 784 and 1296 by stage (_real_form,
  _to_exchange_basis, _levels, the elimination, the Gram recursion, and the
  residual with the state's checks) and in all, best of 9 in one process,
  the best of 3 fresh processes;
- evolve: one evolve to t = 50 at dt = 1e-3 and the CLI's cadence of 100,
  from |gg> at perfbench's seed-1 ridge point, by stage (set-up, anchor
  level, batch products, drift, sample matrices, check) and in all, at
  each lindblad.STRIDE of 64, 128 and 256, best of 9 in this one process
  in each of 5 rounds over the widths, the best round;
- sweep: one block of cli.BLOCK_SIZE (256) points of the default 81x81
  grid at ``--solver both`` by stage (the model and build_liouvillian,
  closed_form, _real_form, the inverse, the two stationarity_residuals,
  the two DensityMatrix checks, concurrence with its factor, tau and SVD
  apart, negativity and the CSV rows) and in all, best of 9 in this one
  process;
- ladder: ``validate --nmax N``, one fresh interpreter per run with the cap
  lifted, its wall time, its time in nominal seconds (the wall time over a
  yardstick's, timed just before and after the run) and its max RSS
  (getrusage of that child); cli.MAX_NMAX is set from the nominal seconds.

    python tools/solve_costs.py                     # every table, n_max 16..28
    python tools/solve_costs.py --nmax 20:28 --runs 3 --skip routes,blocks,stages,evolve
    python tools/solve_costs.py --skip ladder,routes,blocks,stages,sweep  # the evolve table alone
    python tools/solve_costs.py --skip ladder,routes,blocks,stages,evolve  # the sweep table alone

polent is imported from ``src/`` next to this file. Run it on an otherwise
idle machine: the tables are times, and the tests do not run this script.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from polent import cli, entangle, lindblad, qops  # noqa: E402
from polent.analytic import closed_form  # noqa: E402
from polent.lindblad import build_liouvillian, evolve, stationarity_residuals, steady_state  # noqa: E402
from polent.model import (  # noqa: E402
    DimensionlessParams,
    PhysicalParams,
    build_effective_model,
    build_full_model,
)
from polent.qops import TWO_QUBITS, DensityMatrix  # noqa: E402

REPEATS = 9
BLOCKS = (8, 16, 24, 32, 48, 64, 1 << 30)  # the last is one block per level
VALIDATE = PhysicalParams(1.0, 10.0, 10.0, 0.01, 0.5)  # validate's default rates
PROCESSES = 3  # fresh processes of the stage table
STAGES = ("_real_form", "_to_exchange_basis", "_levels", "elimination", "Gram recursion",
          "residual and checks", "steady_state")
RIDGE = (5.210641, 1.107693)  # (zeta, xi1) of perfbench's point workload at seed 1, its first dynamics
EVOLVE_STRIDES = (64, 128, 256)
EVOLVE_ROUNDS = 5  # the widths take turns, so that a slow stretch of the machine does not favour one
EVOLVE_STAGES = ("set-up", "anchor level", "batch products", "drift", "sample matrices", "check", "evolve")
SWEEP_BLOCK = 12  # the block of the default grid that the sweep table times, points 3072-3327
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


def stage_times() -> dict[str, list[float]]:
    """Each stage of one level solve at sides 784 and 1296, best of REPEATS in this process, ms.

    A stage is timed on its inputs from the stages before it; the
    elimination and the Gram recursion are timed through the functions that
    run them, with the stages before them given as their results.
    """
    times = {name: [] for name in STAGES}
    for n_max in (6, 8):
        liouv = _full(n_max)
        space, n = liouv.space, liouv.space.dim**2
        k, l, entries, largest = lindblad._real_form(liouv)
        image, sign = lindblad._exchange(space)
        adapted = lindblad._to_exchange_basis(k, l, entries[0], image, sign)
        keep = (adapted[0] != 0) & (adapted[2] != 0)
        kk, ll, vv = (part[keep] for part in adapted)
        level = lindblad._levels(kk, ll, n)
        trace, s = lindblad._adapted_trace(image, sign, space.dim), max(1.0, largest[0])
        with _patched(_levels=lambda *_: level):
            order, factors = lindblad._triangularize_by_levels(kk, ll, vv, trace, s)
            elimination = _min_ms(lambda: lindblad._triangularize_by_levels(kk, ll, vv, trace, s))
        with _patched(_to_exchange_basis=lambda *_: adapted,
                      _triangularize_by_levels=lambda *_: (order, list(factors))):
            gram = _min_ms(lambda: lindblad._solve_by_levels(k, l, entries[0], space, largest[0]))
        coords, _ = lindblad._solve_by_levels(k, l, entries[0], space, largest[0])

        def check():
            mats = lindblad._from_coordinates(coords[None], space.dim)
            stationarity_residuals(liouv, mats)
            DensityMatrix(space, mats[0])

        stage = (_min_ms(lambda: lindblad._real_form(liouv)),
                 _min_ms(lambda: lindblad._to_exchange_basis(k, l, entries[0], image, sign)),
                 _min_ms(lambda: lindblad._levels(kk, ll, n)), elimination, gram, _min_ms(check),
                 _min_ms(lambda: steady_state(liouv)))
        for name, ms in zip(STAGES, stage):
            times[name].append(ms)
    return times


def stages() -> None:
    print(f"stages: one level solve by stage, ms (best of 9 in a process, best of {PROCESSES} processes)")
    here = Path(__file__)
    code = (f"import json, sys; sys.path.insert(0, {str(here.parent)!r}); "
            f"from {here.stem} import stage_times; print(json.dumps(stage_times()))")
    runs = [json.loads(subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                                      text=True).stdout) for _ in range(PROCESSES)]
    print(f"  {'':20s} {'side 784':>9s} {'side 1296':>9s}")
    for name in STAGES:
        best = [min(run[name][i] for run in runs) for i in range(2)]
        print(f"  {name:20s} {best[0]:9.2f} {best[1]:9.2f}")


def evolve_times(stride: int) -> list[float]:
    """One evolve at RIDGE by stage, at lindblad.STRIDE = stride, best of REPEATS in this process, ms.

    The set-up is a run of no step: P, its radius, rho0's coordinates, both
    power stacks and one sample. The other stages are timed on the inputs
    that a run records: the anchor level is the doubling from X_S and, per
    super-stride, its ring of anchors (the super-anchor's product with the
    stacked Y_b and the add); the batch products are a pass of
    lindblad._batches with its power stacks given (rings, products and
    adds); then each batch's traces and their check, the samples made
    matrices one check block at a time, and their DensityMatrix check.
    _held_matrices' coordinates are recorded by copy, as they live in the
    matrices that it overwrites.
    """
    model = build_effective_model(DimensionlessParams(*RIDGE))
    ground = np.zeros((4, 4))
    ground[3, 3] = 1.0
    rho0, dt, nsteps, every = DensityMatrix(TWO_QUBITS, ground), 1e-3, 50_000, 100
    stacks, samples, runs = [], [], []
    step_powers, held_matrices, batches = lindblad._step_powers, lindblad._held_matrices, lindblad._batches
    with _patched(STRIDE=stride,
                  _step_powers=lambda x, count: stacks.append((x, step_powers(x, count))) or stacks[-1][1],
                  _held_matrices=lambda x, *args: samples.append((x.copy(), *args)) or held_matrices(x, *args),
                  _batches=lambda *args: runs.append(args) or batches(*args)):
        rho = evolve(model, rho0, 50.0, dt, every)[1]
    increment, r, _, strides = runs[0]
    _, held, image, sign, d = samples[0]
    coords = np.concatenate([args[0] for args in samples])
    trace = lindblad._adapted_trace(image, sign, d)[held]
    w = len(held)
    lift = np.ascontiguousarray(stacks[1][1].reshape(stride * w, w).T)
    ring = np.empty((stride + 1, w))

    def anchor_level():
        step_powers(stacks[1][0], stride)
        ring[-1] = r
        for _ in range(-(-nsteps // stride**2)):  # one ring a super-stride
            ring[0] = ring[-1]
            np.matmul(ring[0], lift, out=ring[1:].reshape(-1))
            ring[1:] += ring[0]

    def products():
        for _ in batches(increment, r, nsteps, strides):
            pass

    with _patched(STRIDE=stride):
        states = next(batches(increment, r, nsteps, strides))[1]
        count = sum(1 for _ in batches(increment, r, nsteps, strides))  # they stop at super-stride edges

    def drift():
        for _ in range(count):
            (~(abs(lindblad._row_traces(states, trace).reshape(-1) - 1.0) <= lindblad.DRIFT_ABORT)).any()

    block = max(1, qops.CHECK_ELEMENTS // (d * d))

    def matrices():
        for first in range(0, len(coords), block):
            held_matrices(coords[first:first + block], held, image, sign, d)

    mats = rho.matrix.copy()
    with _patched(STRIDE=stride):
        setup = _min_ms(lambda: evolve(model, rho0, 0.0, dt))
        with _patched(_step_powers=lambda x, count: stacks[0][1] if x is increment else stacks[1][1]):
            product = _min_ms(products)
        return [setup, _min_ms(anchor_level), product, _min_ms(drift), _min_ms(matrices),
                _min_ms(lambda: DensityMatrix(TWO_QUBITS, mats)),
                _min_ms(lambda: evolve(model, rho0, 50.0, dt, every))]


def evolve_table() -> None:
    print(f"evolve: one run to t = 50 at dt = 1e-3 by stage and STRIDE, ms (best of 9 in each of "
          f"{EVOLVE_ROUNDS} rounds over the widths, one process)")
    rounds = [[evolve_times(stride) for stride in EVOLVE_STRIDES] for _ in range(EVOLVE_ROUNDS)]
    times = np.min(rounds, axis=0)
    print(f"  {'':16s}" + "".join(f" {f'STRIDE {stride}':>11s}" for stride in EVOLVE_STRIDES))
    for i, name in enumerate(EVOLVE_STAGES):
        print(f"  {name:16s}" + "".join(f" {column[i]:11.3f}" for column in times))


def sweep_table() -> None:
    """One block of the default sweep at --solver both by stage, best of REPEATS in this process, ms.

    A stage is timed alone on the outputs of the stages before it, as
    cli._evaluate_stack runs them; "in all" is the block's _sweep_rows and
    its CSV rows, written to os.devnull. "rest" is what the stages leave of
    it: the small steps between them (_from_coordinates, the discrepancy,
    purity and populations), and what the stages cost more in the pipeline
    than alone, where each one repeats on its own warm inputs.
    """
    zs, xs = (np.linspace(lo, hi, steps) for lo, hi, steps in cli._grid(cli.DEFAULT_GRID))
    first = SWEEP_BLOCK * cli.BLOCK_SIZE
    z, x1 = (v[first:first + cli.BLOCK_SIZE] for v in (np.repeat(zs, len(xs)), np.tile(xs, len(zs))))
    x2 = np.zeros_like(z)
    params = DimensionlessParams(z, x1, x2)
    liouv = build_liouvillian(build_effective_model(params))
    exact = closed_form(z, x1, x2)
    k, l, entries, _ = lindblad._real_form(liouv)
    d = liouv.space.dim
    coords, _ = lindblad._solve_whole(k, l, entries, d)
    mats = lindblad._from_coordinates(coords, d)
    roots = entangle._roots(mats)
    tau = roots.swapaxes(-1, -2) @ (entangle._FLIP @ roots)
    rows = cli._sweep_rows(z, x1, x2, "both")
    rho = DensityMatrix(TWO_QUBITS, mats)
    times = [
        ("model and build_liouvillian", _min_ms(lambda: build_liouvillian(build_effective_model(params)))),
        ("closed_form", _min_ms(lambda: closed_form(z, x1, x2))),
        ("_real_form", _min_ms(lambda: lindblad._real_form(liouv))),
        ("inverse (_solve_whole)", _min_ms(lambda: lindblad._solve_whole(k, l, entries, d))),
        ("stationarity_residuals x2", _min_ms(lambda: (stationarity_residuals(liouv, exact),
                                                        stationarity_residuals(liouv, mats)))),
        ("DensityMatrix x2", _min_ms(lambda: (DensityMatrix(TWO_QUBITS, exact), DensityMatrix(TWO_QUBITS, mats)))),
        ("concurrence", _min_ms(lambda: entangle.concurrence(rho))),
        ("  factor (_roots)", _min_ms(lambda: entangle._roots(mats))),
        ("  tau", _min_ms(lambda: roots.swapaxes(-1, -2) @ (entangle._FLIP @ roots))),
        ("  svd", _min_ms(lambda: np.linalg.svd(tau, compute_uv=False))),
        ("negativity", _min_ms(lambda: entangle.negativity(rho))),
        ("CSV rows", _min_ms(lambda: cli._write_csv(os.devnull, cli._CSV_HEADER, rows))),
    ]
    whole = _min_ms(lambda: cli._write_csv(os.devnull, cli._CSV_HEADER, cli._sweep_rows(z, x1, x2, "both")))
    print(f"sweep: one {cli.BLOCK_SIZE}-point block of the default grid at --solver both "
          f"(zeta {z[0]:g}-{z[-1]:g}) by stage, ms (best of {REPEATS}, one process)")
    other = whole - sum(ms for name, ms in times if not name.startswith(" "))
    for name, ms in times + [("rest: in all less the stages", other), ("in all", whole)]:
        print(f"  {name:30s} {ms:8.3f} {100 * ms / whole:5.1f} %")


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
                        help="tables to leave out, comma-separated: ladder, routes, blocks, stages, evolve, sweep")
    args = parser.parse_args()
    skip = set(filter(None, args.skip.split(",")))
    first, last = (int(part) for part in args.nmax.split(":"))
    if "ladder" not in skip:  # first: a child's max RSS counts the process it was started from
        ladder(first, last, args.runs)
    if "routes" not in skip:
        routes()
    if "blocks" not in skip:
        blocks()
    if "stages" not in skip:
        stages()
    if "evolve" not in skip:
        evolve_table()
    if "sweep" not in skip:
        sweep_table()


if __name__ == "__main__":
    main()
