"""Tests of the benchmark itself: seeded inputs, output checks and the tracer.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from run import Run, import_polent, layer_metrics, run_pass  # noqa: E402
from tracer import Tracer  # noqa: E402


def _work_size(w: workloads.Workload) -> list:
    """The parts of the argv that fix how much work a pass does."""
    size = []
    for cmd in w.commands:
        argv = list(cmd.argv)
        if cmd.kind == "sweep":
            size.append([r.split(":")[2] for r in argv[argv.index("--grid") + 1].split(",")])
        size.append([cmd.kind] + [argv[i + 1] for i, a in enumerate(argv)
                                  if a in ("--solver", "--nmax", "--t-final", "--dt")])
    return size


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_fixes_inputs_and_not_work_size(name, tmp_path):
    same = workloads.make(name, 7, tmp_path), workloads.make(name, 7, tmp_path)
    other = workloads.make(name, 8, tmp_path)
    assert same[0] == same[1]
    assert [c.argv for c in other.commands] != [c.argv for c in same[0].commands]
    assert other.setup_argv != same[0].setup_argv
    assert _work_size(other) == _work_size(same[0])


def test_map_grid_keeps_the_default_window_shape(tmp_path):
    for seed in range(20):
        argv = workloads.make("map", seed, tmp_path).commands[0].argv
        (z0, z1, zn), (x0, x1, xn) = (r.split(":") for r in argv[argv.index("--grid") + 1].split(","))
        assert 0 <= float(z0) <= 0.25 and float(z1) - float(z0) == pytest.approx(10)
        assert 0 <= float(x0) <= 0.1 and float(x1) - float(x0) == pytest.approx(4)
        assert zn == xn == str(workloads.GRID_STEPS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_pass_passes_its_checks(name, tmp_path):
    cli = import_polent()
    run = Run(cli, workloads.make(name, 3, tmp_path, smoke=True))
    passes = 2 if name == "map" else 1  # a second sweep is compared byte for byte
    for _ in range(passes):
        run.once()
    assert run.errors == [] and run.failed == 0 and run.attempted == passes * len(run.w.commands)


def test_checks_catch_a_wrong_output(tmp_path):
    run = Run(import_polent(), workloads.make("map", 3, tmp_path, smoke=True))
    run.once()
    outs = run_pass(run.cli, run.w)
    outs[0].csv += outs[0].csv.splitlines(keepends=True)[-1]  # a duplicated row
    assert workloads.check(run.w, outs, run.first) == [
        [f"{workloads.SMOKE_GRID_STEPS ** 2 + 1} rows, expected {workloads.SMOKE_GRID_STEPS ** 2}",
         "CSV bytes differ from the first pass"]]
    bad = workloads.Output(outs[0].command, 3, "", "numerical failure: boom", 0.0)
    assert workloads.check(run.w, [bad], None) == [["exit 3: numerical failure: boom"]]


def test_tracer_times_cross_module_calls_and_restores_them(tmp_path):
    cli = import_polent()
    import polent
    from polent import entangle, lindblad

    originals = (cli.concurrence, polent.concurrence, lindblad.build_liouvillian)
    post_init = vars(polent.DensityMatrix)["__post_init__"]
    w = workloads.make("point", 3, tmp_path, smoke=True)
    run = Run(cli, w)
    with Tracer() as tracer:
        assert cli.concurrence is not originals[0] and polent.concurrence is cli.concurrence
        outs = run.once("traced")
        stats, counts = tracer.take()
    assert (cli.concurrence, polent.concurrence, lindblad.build_liouvillian) == originals
    assert entangle.concurrence is originals[0]
    assert vars(polent.DensityMatrix)["__post_init__"] is post_init
    assert run.errors == []
    assert tracer.spans == []

    times, exact = layer_metrics(w, stats, counts, outs)
    # evolve builds its own Liouvillian: the call inside lindblad is seen too
    assert exact["lindblad.build_liouvillian.calls"] == 3
    assert exact["lindblad.steady_state.calls"] == 2
    assert exact["lindblad.evolve.steps"] == 4000
    assert exact["entangle.separable_floor.samples"] == 11000
    assert exact["cli.dynamics.samples_per_step"] == pytest.approx(41 / 4000)
    assert exact["trace.spans"] == sum(v[0] for v in stats.values())
    assert stats["cli.main"][0] == 3
    root = stats["cli.main"][1]
    assert sum(v[2] for v in stats.values()) == root  # self times partition the root spans
    assert all(t >= 0 for t in times.values())
