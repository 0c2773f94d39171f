#!/usr/bin/env python3
"""Costs of polent's steady-state solve, as quoted in lindblad.py, cli.py and the README.

Prints three tables, the ladder first:

- routes: steady_state's two routes on one Liouvillian, the whole inverse
  against levels, best of 9 in this one process, at side 16 (the reduced
  model at zeta 10, xi 2.135) and the full model at validate's rates from
  n_max 1 (side 64) to 8 (side 1296); lindblad.LEVEL_SIDE picks between them;
- blocks: the level route at sides 784 and 1296 for each block width of its
  Householder elimination (lindblad.BLOCK), best of 9 in this one process;
- ladder: ``validate --nmax N``, one fresh interpreter per run with the cap
  lifted, its wall time and its max RSS (getrusage of that child);
  cli.MAX_NMAX is set from it.

    python tools/solve_costs.py                     # every table, n_max 16..28
    python tools/solve_costs.py --nmax 20:28 --runs 3 --skip routes,blocks

polent is imported from ``src/`` next to this file. Run it on an otherwise
idle machine: the tables are times, and the tests do not run this script.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from polent import lindblad  # noqa: E402
from polent.lindblad import build_liouvillian, steady_state  # noqa: E402
from polent.model import (  # noqa: E402
    DimensionlessParams,
    PhysicalParams,
    build_effective_model,
    build_full_model,
)

REPEATS = 9
BLOCKS = (8, 16, 24, 32, 48, 64, 1 << 30)  # the last is one block per level
VALIDATE = PhysicalParams(1.0, 10.0, 10.0, 0.01, 0.5)  # validate's default rates


def _best(liouv, **settings) -> float:
    """Best of REPEATS steady_state calls on liouv, in ms, with lindblad's constants set as given."""
    saved = {name: getattr(lindblad, name) for name in settings}
    try:
        for name, value in settings.items():
            setattr(lindblad, name, value)
        steady_state(liouv)  # warm the caches
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            steady_state(liouv)
            times.append(time.perf_counter() - start)
        return 1e3 * min(times)
    finally:
        for name, value in saved.items():
            setattr(lindblad, name, value)


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


def ladder(first: int, last: int, runs: int) -> None:
    print("ladder: validate --nmax N, one fresh interpreter each: wall s, max RSS MiB")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    # the cap is lifted in the child, so that the rungs beyond it are timed too
    code = "import sys; from polent import cli; cli.MAX_NMAX = 1 << 30; sys.exit(cli.main(sys.argv[1:]))"
    for n_max in range(first, last + 1):
        cells = []
        for _ in range(runs):
            start = time.perf_counter()
            child = subprocess.Popen([sys.executable, "-c", code, "validate", "--nmax", str(n_max)],
                                     env=env, stdout=subprocess.DEVNULL)
            _, status, usage = os.wait4(child.pid, 0)  # this child's own usage
            wall = time.perf_counter() - start
            child.returncode = os.waitstatus_to_exitcode(status)
            cells.append(f"{wall:5.2f} s {usage.ru_maxrss / 1024:6.1f} MiB"
                         + (f" (exit {child.returncode})" if child.returncode else ""))
        print(f"  n_max {n_max:2d}  " + "  ".join(cells))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nmax", default="16:28", help="the ladder's first:last n_max (default 16:28)")
    parser.add_argument("--runs", type=int, default=1, help="fresh interpreters per ladder rung (default 1)")
    parser.add_argument("--skip", default="", help="tables to leave out, comma-separated: ladder, routes, blocks")
    args = parser.parse_args()
    skip = set(filter(None, args.skip.split(",")))
    first, last = (int(part) for part in args.nmax.split(":"))
    if "ladder" not in skip:  # first: a child's max RSS counts the process it was started from
        ladder(first, last, args.runs)
    if "routes" not in skip:
        routes()
    if "blocks" not in skip:
        blocks()


if __name__ == "__main__":
    main()
