#!/usr/bin/env python3
"""Benchmark of polent's command line, run in-process through ``polent.cli.main``.

    python3 perfbench/run.py --workload {map,point,reduction} --seed N --seconds S --trace {0,1}

Run from the repository root; polent is imported from ``src/`` next to this
directory, never from an installed copy. A run repeats the workload's pass
(see workloads.py) in a closed loop from this one process for about S
seconds, at least MIN_PASSES times, and checks every command's output after
each pass. Before each pass it times SETUP_PER_PASS fresh interpreters that
import polent and make their first call. With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and reports per-layer metrics from the traced ones, with the tracing
overhead (traced minus untraced pass time).

Interpreter-bound commands are timed in nominal seconds: wall seconds
times REF_NOMINAL_S over the time of a yardstick (``reference_seconds``)
measured right before and after the command. On a shared 2-vCPU virtual
machine, speed changed by up to 2x within minutes, and the yardstick
followed that for interpreter-bound work. It did not follow the
LAPACK-bound ``validate`` or interpreter start-up, so those are timed in
wall seconds (WALL_KINDS). The report also gives pure wall times
(``*_wall_s``) and the yardstick (``ref_s``); per-layer times are wall.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Each command and
each set-up interpreter is one attempt. An attempt fails when it exits
non-zero, raises, or fails an output check. The lines before the JSON
object are a readable report with the environment. The same report goes
to ``.perfbench_out/`` as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import workloads
from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUTDIR = ROOT / ".perfbench_out"

MIN_PASSES = 3  # untraced passes; a traced run makes at least 2 untraced + 2 traced
SETUP_PER_PASS = 2
# timed inside the child, from before ``import polent`` to the end of its first
# call: timed from the parent, interpreter starts came in 50 ms steps (wake-up
# latency of an idle virtual CPU), and interpreter start-up is not polent's
SETUP_CODE = """
import contextlib, io, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import polent.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = polent.cli.main(sys.argv[2:])
print(time.perf_counter() - start)
sys.exit(code)
"""
# the yardstick's time on a quiet 2-vCPU x86-64 virtual machine (Python 3.11,
# numpy 2.4, OpenBLAS 0.3.31): there nominal seconds are about wall seconds
REF_NOMINAL_S = 0.003
# validate spends its time in LAPACK on 784^2 and 1296^2 matrices with two BLAS
# threads; across seeds its wall time spread less than its yardstick ratio
WALL_KINDS = frozenset({"validate"})

# self times of single functions that run on every workload; the others
# (evolve, separable_floor, build_full_model, partial_trace) are in the report
FUNCTIONS = (
    "lindblad.build_liouvillian", "lindblad.steady_state",
    "entangle.concurrence", "entangle.negativity",
    "analytic.closed_form", "analytic.to_density_matrix",
    "model.build_effective_model", "qops.DensityMatrix",
)
REPORT_ONLY = ("lindblad.evolve", "entangle.separable_floor", "model.build_full_model",
               "qops.partial_trace")
CALLS = ("lindblad.build_liouvillian", "lindblad.steady_state", "qops.DensityMatrix",
         "model.build_full_model", "qops.partial_trace")

_REF_RNG = numpy.random.default_rng(0)
_REF_SMALL = _REF_RNG.standard_normal((4, 4)) + 1j * _REF_RNG.standard_normal((4, 4))
_REF_GEN = _REF_RNG.standard_normal((16, 16)) + 1j * _REF_RNG.standard_normal((16, 16))


def reference_seconds() -> float:
    """Time of a fixed computation that uses no polent code: the machine-speed yardstick.

    Like the two-qubit code it is interpreter-bound: 4x4 Hermitian spectra
    and 16x16 matrix-vector steps, single-threaded. (With a multi-threaded
    LAPACK call added, it followed the machine's slow phases worse.) It is
    the median of five short timings, so one preempted timing does not count.
    """
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0.0
        for i in range(160):
            acc += float(numpy.linalg.eigvalsh(_REF_SMALL @ _REF_SMALL.conj().T)[0]) + (i & 7)
        v = _REF_GEN[0]
        for _ in range(400):
            v = v + 1e-4 * (_REF_GEN @ v)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def import_polent():
    """polent.cli from this checkout's src/; exits 1 when it is not there."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import polent.cli
    except ImportError as exc:
        sys.exit(f"cannot import polent from {SRC}: {exc}")
    if not Path(polent.cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"polent was imported from {polent.cli.__file__}, not from {SRC}")
    return polent.cli


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "lib*openblas*.so*")):
        lib = ctypes.CDLL(path)  # already loaded by numpy: same handle, same pool
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getattr(lib, symbol).restype = ctypes.c_int
                threads = getattr(lib, symbol)()
                break
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref
    return ref


def run_pass(cli, w: workloads.Workload) -> list[workloads.Output]:
    """One pass; each command is timed, and bracketed by two yardstick timings."""
    outputs = []
    ref = reference_seconds()
    for cmd in w.commands:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(cmd.argv))
        except SystemExit as exc:  # argparse rejects argv this way
            code = exc.code
        except Exception as exc:  # a traceback is a failed command, not a dead run
            code = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        ref_before, ref = ref, reference_seconds()
        csv = cmd.csv.read_bytes() if cmd.csv is not None and cmd.csv.is_file() else None
        outputs.append(workloads.Output(cmd, code, out.getvalue(), err.getvalue(), seconds,
                                        csv, (ref_before + ref) / 2))
    return outputs


def reported_seconds(o: workloads.Output) -> float:
    """The command's time as reported: wall seconds for WALL_KINDS, else nominal."""
    if o.command.kind in WALL_KINDS:
        return o.seconds
    return o.seconds * REF_NOMINAL_S / o.ref


class Run:
    """Passes of one workload with their timings and check results."""

    def __init__(self, cli, w: workloads.Workload):
        self.cli, self.w = cli, w
        self.first: list[workloads.Output] | None = None
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.refs: list[float] = []  # yardstick seconds around each command
        # reported seconds per pass ("run", "traced"), per command kind and of
        # set-up ("setup"); the same key with "_wall" holds wall seconds
        self.seconds: dict[str, list[float]] = {}

    def pass_time(self, suffix: str = "") -> float:
        """Per-kind medians summed over one pass's commands: robust to a slow command."""
        return sum(statistics.median(self.seconds[c.kind + suffix]) for c in self.w.commands)

    def _add(self, key: str, outs: list[workloads.Output]) -> None:
        self.seconds.setdefault(key, []).append(sum(map(reported_seconds, outs)))
        self.seconds.setdefault(key + "_wall", []).append(sum(o.seconds for o in outs))

    def setup(self) -> None:
        """Time fresh interpreters that import polent and make their first call."""
        for _ in range(SETUP_PER_PASS):
            self.attempted += 1
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CODE, str(SRC), *self.w.setup_argv],
                cwd=ROOT, capture_output=True, text=True, timeout=60,
            )
            if proc.returncode == 0:
                self.seconds.setdefault("setup", []).append(float(proc.stdout))
            else:
                self.failed += 1
                self.errors.append(f"set-up: exit {proc.returncode}: {proc.stderr[-300:]}")

    def once(self, tag: str = "run") -> list[workloads.Output]:
        outs = run_pass(self.cli, self.w)
        errors = workloads.check(self.w, outs, self.first)
        self.first = self.first or outs
        self.attempted += len(outs)
        self.failed += sum(bool(e) for e in errors)
        self.errors += [f"{o.command.argv[0]}: {m}" for o, e in zip(outs, errors) for m in e]
        self.refs += [o.ref for o in outs]
        self._add(tag, outs)
        if tag == "run":
            for o in outs:
                self._add(o.command.kind, [o])
        return outs


def layer_metrics(w: workloads.Workload, stats: dict, counts, outs) -> tuple[dict, dict]:
    """Self times (wall seconds) and exact work counts of one traced pass."""
    times = {f"{layer}.self_s": sum(v[2] for k, v in stats.items() if k.startswith(layer + "."))
             / 1e9 for layer in LAYERS}
    times.update({f"{name}.self_s": stats.get(name, (0, 0, 0))[2] / 1e9
                  for name in FUNCTIONS + REPORT_ONLY})
    times["trace.self_share"] = sum(v[2] for v in stats.values()) / 1e9 / sum(
        o.seconds for o in outs)
    exact = {f"{name}.calls": stats.get(name, (0,))[0] for name in CALLS}
    steps = counts["lindblad.evolve.steps"]
    solves = exact["lindblad.steady_state.calls"]
    # validate re-solves at n_max + 2 only to compare; those solves are not results
    probes = counts[f"lindblad.steady_state.side.{w.probe_side}"] if w.probe_side else 0
    samples = sum(o.csv.count(b"\n") - 1 for o in outs if o.command.kind == "dynamics")
    exact.update({
        "lindblad.steady_state.max_dim": counts["lindblad.steady_state.max_dim"],
        "lindblad.steady_state.calls_per_result": solves / (solves - probes) if solves else 0.0,
        "lindblad.liouvillian_bytes_computed": counts["lindblad.liouvillian_bytes_computed"],
        "lindblad.evolve.steps": steps,
        "entangle.separable_floor.samples": counts["entangle.separable_floor.samples"],
        "cli.csv_bytes": sum(len(o.csv) for o in outs if o.csv is not None),
        "cli.dynamics.samples_per_step": samples / steps if steps else 0.0,
        "trace.spans": sum(v[0] for v in stats.values()),
    })
    return times, exact


def measure(cli, w: workloads.Workload, seconds: float, trace: bool) -> tuple[Run, dict]:
    """Passes for about ``seconds``; with ``trace``, also the per-layer figures."""
    run = Run(cli, w)
    start = time.perf_counter()
    times: list[dict] = []
    exact: dict = {}
    tracer = Tracer()

    def enough() -> bool:
        passes = len(run.seconds.get("run", []))
        if passes < (2 if trace else MIN_PASSES):
            return False
        per_pass = (time.perf_counter() - start) / passes
        return time.perf_counter() - start + per_pass > seconds

    while not enough():
        run.setup()
        run.once()
        if trace:
            with tracer:
                outs = run.once("traced")
            pass_times, pass_exact = layer_metrics(w, *tracer.take(), outs)
            times.append(pass_times)
            if exact and pass_exact != exact:
                run.failed += 1
                run.errors.append(f"work counts changed between passes: {pass_exact} vs {exact}")
            exact = exact or pass_exact
    medians = {k: statistics.median(t[k] for t in times) for k in times[0]} if times else {}
    return run, {**medians, **exact}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_polent()
    OUTDIR.mkdir(exist_ok=True)
    w = workloads.make(args.workload, args.seed, OUTDIR)
    env = environment()
    run, layers = measure(cli, w, args.seconds, bool(args.trace))
    if "setup" not in run.seconds:
        sys.exit(f"every set-up run failed: polent {' '.join(w.setup_argv)}")

    report = {
        "setup_s": statistics.median(run.seconds["setup"]),
        "run_s": run.pass_time(),
        "run_wall_s": run.pass_time("_wall"),
        "ref_s": statistics.median(run.refs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "error_rate": run.failed / run.attempted,
    }
    for kind in ("witness", "dynamics"):
        if kind in run.seconds:
            report[f"{kind}_s"] = statistics.median(run.seconds[kind])
            report[f"{kind}_wall_s"] = statistics.median(run.seconds[kind + "_wall"])
    if args.trace:
        untraced, traced = (statistics.median(run.seconds[k]) for k in ("run_wall", "traced_wall"))
        layers.update({"trace.run_s": traced, "trace.untraced_run_s": untraced,
                       "trace.overhead_s": traced - untraced})

    print(f"polent benchmark: workload {w.name}, seed {w.seed}, trace {args.trace}, "
          f"{args.seconds:g} s budget")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for cmd in w.commands:
        print("  polent " + " ".join(cmd.argv))
    print("samples: " + ", ".join(f"{k} {len(v)}" for k, v in run.seconds.items()))
    for name, value in {**report, **layers}.items():
        print(f"  {name:44s} {value:.6g}")
    print(f"attempted {run.attempted}, failed {run.failed}")
    for message in run.errors[:20]:
        print(f"  check failed: {message}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    source = layers if args.trace else report
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    record = {**result, "environment": env, "report": report, "layers": layers,
              "samples": run.seconds, "errors": run.errors,
              "commands": [list(c.argv) for c in w.commands]}
    (OUTDIR / f"{w.name}-seed{w.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
