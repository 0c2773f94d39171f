"""Command-line interface: options in, the library's reports formatted out.

Subcommands
    steady    one steady state with entanglement diagnostics
    sweep     CSV grid of steady-state records over (zeta, xi1)
    witness   witness coefficients and separability check at one point
    validate  full three-subsystem model against the reduced two-qubit model
    dynamics  CSV time series of a relaxation run from both qubits in |g>

This module parses options, formats the library's reports (runs.evaluate,
runs.witness_report, runs.validate_reduction, runs.dynamics), writes files and maps
failures to exit codes. Any flag can instead be given in a config file of flat ``key = value``
lines (keys match the long flag names); explicit flags win over file values. Each
option has one converter, which is its whole check: a flag, a config line and the
default all go through it, and a bad value exits 2 with one ``error:`` line,
whatever its source.
Exit codes: 0 success, 2 invalid arguments, 3 numerical failure,
4 witness requested for a non-entangled state.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from .entangle import PAULI_LABELS, NotEntangledError, concurrence
from .lindblad import DEFAULT_DT, DegenerateSteadyStateError, IntegrationError
from .model import PhysicalParams
from .qops import InvalidStateError
from .runs import SOLVERS, TruncationError, dynamics, evaluate, validate_reduction, witness_report

DEFAULT_GRID = "0:10:81,0:4:81"
# points per stacked evaluation: memory follows the block, not the grid, and
# the output does not depend on where the blocks start
BLOCK_SIZE = 256
DOMINANT_THRESHOLD = 0.05


class _UsageError(Exception):
    """Bad flag/config input; reported on stderr with exit code 2."""


_CSV_HEADER = ("zeta", "xi1", "xi2", "concurrence", "negativity", "purity",
               "pop_ee", "pop_ge", "pop_eg", "pop_gg", "residual")


def _write_csv(path: str, header: tuple[str, ...], rows: np.ndarray) -> None:
    """The header line, then each row at 17 significant digits: the bytes np.savetxt writes.

    Rows are converted to floats 1,024 at a time, so memory does not grow with the file.
    """
    fmt = ",".join(["%.17g"] * len(header)) + "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for start in range(0, len(rows), 1024):
                fh.writelines(fmt % tuple(r) for r in rows[start:start + 1024].tolist())
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise _UsageError(f"cannot write {path}: {exc}") from exc


def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except (OSError, ValueError) as exc:
            raise _UsageError(f"cannot write {out}: {exc}") from exc


def _format_matrix(m: np.ndarray) -> list[str]:
    return ["  [" + ", ".join(f"{z.real:+.9f}{z.imag:+.9f}j" for z in row) + "]" for row in m]


# the sweep's residual column for each solver: an attribute of runs.Evaluation
_RESIDUAL_COLUMN = {"analytic": "equation_residual", "numeric": "superoperator_residual",
                    "both": "discrepancy"}


def _sweep_rows(zeta, xi1, xi2, solver: str) -> np.ndarray:
    """CSV rows of a contiguous run of grid points, BLOCK_SIZE points at a time."""
    return np.concatenate([_block_rows(*(v[start:start + BLOCK_SIZE] for v in (zeta, xi1, xi2)), solver)
                           for start in range(0, len(zeta), BLOCK_SIZE)])


def _block_rows(z, x1, x2, solver: str) -> np.ndarray:
    ev = evaluate(z, x1, x2, solver)  # its L and states are freed before the next block is evaluated
    return np.column_stack([z, x1, x2, *ev.entanglement, ev.purity, ev.populations,
                            getattr(ev, _RESIDUAL_COLUMN[solver])])


def cmd_steady(zeta: float, xi1: float, xi2: float, solver: str, out: str | None = None) -> int:
    ev = evaluate(zeta, xi1, xi2, solver)
    lines = [f"steady state at zeta = {zeta:g}, xi1 = {xi1:g}, xi2 = {xi2:g} (solver: {solver})"]
    if ev.equation_residual is not None:
        lines.append(f"equation residual = {ev.equation_residual:.17g}")
    if ev.gap is not None:
        lines.append(f"superoperator residual = {ev.superoperator_residual:.17g} (gap >= {ev.gap:.6g})")
    if ev.discrepancy is not None:
        lines.append(f"analytic-numeric discrepancy (Frobenius) = {ev.discrepancy:.17g}")
    lines.append("rho =")
    lines.extend(_format_matrix(ev.rho.matrix))
    lines.append("populations (ee, ge, eg, gg) = (" + ", ".join(f"{v:.17g}" for v in ev.populations) + ")")
    c, n = ev.entanglement
    lines += [f"concurrence = {c:.17g}", f"negativity = {n:.17g}", f"purity = {ev.purity:.17g}"]
    _emit(lines, out)
    return 0


def cmd_sweep(grid: tuple, xi2: float, solver: str, out: str, workers: int = 1) -> int:
    """CSV over the two (MIN, MAX, STEPS) ranges of _grid, zeta-major."""
    zs, xs = (np.linspace(lo, hi, steps) for lo, hi, steps in grid)
    points = (np.repeat(zs, len(xs)), np.tile(xs, len(zs)), np.full(len(zs) * len(xs), xi2))
    # one contiguous run of the grid per worker, through the same blocks; more
    # workers than CPUs only add interpreter start-ups
    parts = min(workers, os.cpu_count() or 1, len(points[0]))
    runs = [(*run, solver) for run in zip(*(np.array_split(v, parts) for v in points))]
    if len(runs) > 1:
        import multiprocessing  # here only: importing it costs every fresh interpreter about 4.5 ms

        # each worker runs its rows under main's errstate, which a spawned process does not inherit; the
        # parts are read in grid order, so a failure names the first failing point, not the first to fail
        with multiprocessing.get_context("spawn").Pool(
                len(runs), functools.partial(np.seterr, **np.geterr())) as pool:
            results = [pool.apply_async(_sweep_rows, run) for run in runs]
            rows = np.concatenate([result.get() for result in results])
    else:
        rows = _sweep_rows(*runs[0])
    _write_csv(out, _CSV_HEADER, rows)
    best = rows[np.argmax(rows[:, 3])]  # first maximum in grid order
    print(f"wrote {len(rows)} rows to {out}")
    print(f"argmax concurrence = {best[3]:.17g} at zeta = {best[0]:.17g}, xi1 = {best[1]:.17g}")
    return 0


def cmd_witness(zeta: float, xi1: float, xi2: float, out: str | None = None) -> int:
    report = witness_report(zeta, xi1, xi2)
    c = report.witness.coefficients
    lines = [
        f"witness report at zeta = {zeta:g}, xi1 = {xi1:g}, xi2 = {xi2:g}",
        "normalization: Frobenius norm ||W||_F = 1 (partial transpose of a unit "
        "eigenvector projector); coefficients are Tr[W (sigma_j x sigma_k)]/4",
        f"Tr[W rho] = {report.expectation:.17g}",
        f"min sampled separable expectation = {report.separable_floor:.17g} "
        f"({report.n_pure} pure products + {report.n_mixed} mixtures)",
        "coefficients c[qubit-1 label, qubit-2 label]:",
        "        " + "".join(f"{lab:>12s}" for lab in PAULI_LABELS),
    ]
    for j, lab in enumerate(PAULI_LABELS):
        lines.append(f"  {lab:>4s}  " + "".join(f"{c[j, k]:+12.6f}" for k in range(4)))
    dominant = [f"({PAULI_LABELS[j]},{PAULI_LABELS[k]})"
                for j in range(4) for k in range(4) if abs(c[j, k]) > DOMINANT_THRESHOLD]
    lines.append(f"dominant set (|c| > {DOMINANT_THRESHOLD:g}): " + ", ".join(dominant))
    _emit(lines, out)
    return 0


def cmd_validate(j: float, delta: float, kappa: float, gamma: float, alpha_re: float,
                 alpha_im: float, nmax: int, t_final: float, out: str | None = None) -> int:
    p = PhysicalParams(j, delta, kappa, gamma, complex(alpha_re, alpha_im), nmax)
    r = validate_reduction(p, t_final)
    lines = [
        f"validation report (kappa/J = {p.kappa / p.j if p.j else np.inf:g})",  # J = 0: uncoupled
        f"rates: J = {p.j:g}, Delta = {p.delta:g}, kappa = {p.kappa:g}, "
        f"gamma = {p.gamma:g}, alpha = {p.alpha.real:g}{p.alpha.imag:+g}i, n_max = {p.n_max}",
        f"mapped parameters: zeta = {r.mapped.zeta:.17g}, xi = {r.mapped.xi1:.17g} {r.mapped.xi2:+.17g}i",
        f"empty-cavity amplitude |alpha/(Delta + i kappa)| = {r.cavity_amplitude:.6g}",
        f"mode occupation <a+a> = {r.occupation:.6g} (truncation shift {r.truncation_shift:.3e} at "
        f"n_max {p.n_max} -> {p.n_max + 2}: converged)",
        f"trace distance (reduced qubit pair vs effective model) = {r.reduction_distance:.17g}",
        f"|<a> - adiabatic prediction| = {r.adiabatic_mismatch:.17g}",
        f"dynamics cross-check at t = {r.dynamics_time:g} (effective model): "
        f"trace distance to steady state = {r.dynamics_distance:.3g}",
    ]
    _emit(lines, out)
    return 0


def cmd_dynamics(zeta: float, xi1: float, xi2: float, t_final: float, dt: float,
                 sample_every: int, out: str) -> int:
    steps, rho, drift = dynamics(zeta, xi1, xi2, t_final, dt, sample_every)
    pops = rho.matrix.diagonal(axis1=-2, axis2=-1).real
    rows = np.column_stack([steps * dt, concurrence(rho), pops, drift[steps]])
    _write_csv(out, ("t", "concurrence", "pop_ee", "pop_ge", "pop_eg", "pop_gg", "trace_drift"), rows)
    print(f"wrote {len(rows)} samples to {out}")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing: an option's value, from its flag, else its config line,
# else its default, goes through the option's converter, which is its whole
# check; a converter's ValueError is a usage error (exit 2)

# validate's cutoff, set by time: no L is stored densely, and the level solve's
# R factors set the memory. It is the largest n_max whose validate takes at
# most 4.2 nominal seconds, the top of the 3.0-4.2 s that the old cap of 16
# took when L was dense (1.06 GiB). A nominal second is a wall second scaled
# by a fixed LAPACK-bound yardstick timed around the run, about a wall second
# on a quiet machine, as the machine's speed moves 1.4 times within minutes.
# tools/solve_costs.py prints the ladder, one fresh process a run, 2 CPUs
# (OpenBLAS): three ladders read 3.8-3.9 nominal s at n_max 25 and 4.0-4.7 at
# 26 (3.3-3.8 at 24, 4.3-4.9 at 27), so 25, 26 and 25 by the rule; the value
# moves only when three ladders agree, and stays 26 (177 MiB max RSS there)
MAX_NMAX = 26


def _finite(text) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {value!r}")
    return value


def _positive(text) -> float:
    value = _finite(text)
    # a non-positive horizon takes no step, and a non-positive rate or dt has no meaning
    if not value > 0:
        raise ValueError(f"must be positive, got {value:g}")
    return value


def _positive_int(text) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0  # not an integer: refused below with the text
    if value < 1:
        raise ValueError(f"must be a positive integer, got {text!r}")
    return value


def _nmax(text) -> int:
    value = _positive_int(text)
    if value > MAX_NMAX:
        raise ValueError(f"must be at most {MAX_NMAX}, got {value}")
    return value


def _solver(text: str) -> str:
    if text not in SOLVERS:
        raise ValueError(f"must be analytic, numeric, or both, got {text!r}")
    return text


def _grid(text: str) -> tuple[tuple[float, float, int], tuple[float, float, int]]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"must be two comma-separated ranges, got {text!r}")
    ranges = []
    for part in parts:
        try:
            lo, hi, steps = part.split(":")  # a wrong field count is a ValueError too
            lo, hi, steps = float(lo), float(hi), int(steps)
        except ValueError:
            raise ValueError(f"range must be MIN:MAX:STEPS, got {part!r}") from None
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"bounds must be finite, got {lo:g}:{hi:g}")
        if lo > hi:
            raise ValueError(f"minimum must not exceed maximum, got {lo:g}:{hi:g}")
        ranges.append((lo, hi, steps))
    return ranges[0], ranges[1]


def _report_file(text: str | None) -> str | None:
    return text  # the report goes to stdout, and also here when given


def _csv_file(text: str | None) -> str:
    if text is None:
        raise ValueError("must be given")
    return text


_POINT = {
    "zeta": (_finite, 0.0, "hopping strength"),
    "xi1": (_finite, 0.0, "real drive component"),
    "xi2": (_finite, 0.0, "imaginary drive component"),
}
# per-command option tables, keyed by the parameters of its cmd_* function:
# name -> (converter, default, help)
_OPTIONS = {
    "steady": {
        **_POINT,
        "solver": (_solver, "both", "analytic, numeric, or both"),
        "out": (_report_file, None, "also write the report to this file"),
    },
    "sweep": {
        "grid": (_grid, DEFAULT_GRID, "ZMIN:ZMAX:ZSTEPS,XMIN:XMAX:XSTEPS"),
        "xi2": (_finite, 0.0, "fixed imaginary drive component"),
        "solver": (_solver, "analytic", "analytic, numeric, or both"),
        "out": (_csv_file, None, "output CSV path (required)"),
        "workers": (_positive_int, 1, "worker processes up to the CPU count, one grid part each"),
    },
    "witness": {
        **_POINT,
        "out": (_report_file, None, "also write the report to this file"),
    },
    "validate": {
        "j": (_finite, 1.0, "qubit-mode coupling"),
        "delta": (_finite, 10.0, "mode detuning"),
        "kappa": (_positive, 10.0, "mode decay rate"),
        "gamma": (_positive, 0.01, "qubit decay rate"),
        "alpha_re": (_finite, 0.5, "drive amplitude, real part"),
        "alpha_im": (_finite, 0.0, "drive amplitude, imaginary part"),
        "nmax": (_nmax, 4, f"photon-number cutoff, at most {MAX_NMAX}"),
        "t_final": (_positive, 20.0, "dynamics cross-check horizon"),
        "out": (_report_file, None, "also write the report to this file"),
    },
    "dynamics": {
        **_POINT,
        "t_final": (_positive, 50.0, "integration horizon"),
        "dt": (_positive, DEFAULT_DT, "integrator step"),
        "sample_every": (_positive_int, 100, "steps between CSV samples"),
        "out": (_csv_file, None, "output CSV path (required)"),
    },
}
_COMMANDS = {"steady": cmd_steady, "sweep": cmd_sweep, "witness": cmd_witness,
             "validate": cmd_validate, "dynamics": cmd_dynamics}


@functools.cache  # built on the first call, reused by every later main call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polent",
        description="Steady states, entanglement, and witnesses of two dissipative "
        "qubits coupled through a lossy bosonic mode.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, table in _OPTIONS.items():
        p = sub.add_parser(command)
        for name, (_conv, _default, help_text) in table.items():
            p.add_argument("--" + name.replace("_", "-"), dest=name, help=help_text)
        p.add_argument("--config", default=None, help="flat key = value file of defaults")
    return parser


def _load_config(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or not UTF-8
        raise _UsageError(f"cannot read config file: {exc}") from exc
    table: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        table[key.strip().replace("-", "_")] = value.strip()
    return table


def _options(args: argparse.Namespace) -> dict:
    """Each option of the command, converted from its flag, else its config line, else its default."""
    table = _OPTIONS[args.command]
    config = _load_config(args.config) if args.config else {}
    for key in config:
        if key not in table:
            raise _UsageError(f"unknown config key {key!r} for command {args.command!r}")
    options = {}
    for name, (conv, default, _help) in table.items():
        text = getattr(args, name)
        try:
            options[name] = conv(config.get(name, default) if text is None else text)
        except ValueError as exc:
            raise _UsageError(f"{name.replace('_', '-')} {exc}") from exc
    return options


def _joined(argv: list[str]) -> list[str]:
    """argv with each flag and a negative value after it joined as --flag=VALUE.

    argparse takes a token such as -1e4, -inf or -1:0:3 for an option, as it
    matches none of its negative-number patterns; so a float literal, or a
    token of - and a digit, is joined to the flag before it. Every flag but
    --help takes one value.
    """
    out: list[str] = []
    for token in argv:
        flag = out[-1] if out else ""
        if (token.startswith("-") and (token[1:2].isdigit() or _is_float(token))
                and flag.startswith("--") and "=" not in flag and not "--help".startswith(flag)):
            out[-1] = f"{flag}={token}"
        else:
            out.append(token)
    return out


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def main(argv=None) -> int:
    args = _build_parser().parse_args(_joined(sys.argv[1:] if argv is None else list(argv)))
    try:
        # an overflow leaves a NaN or inf that a validity check reports as a
        # numerical failure (exit 3); numpy's warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _COMMANDS[args.command](**_options(args))
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotEntangledError as exc:
        print(f"not entangled: {exc}", file=sys.stderr)
        return 4
    except TruncationError as exc:
        print(f"numerical failure: {exc}; rerun with --nmax {exc.n_max} or larger", file=sys.stderr)
        return 3
    except (InvalidStateError, DegenerateSteadyStateError, IntegrationError, ValueError, ZeroDivisionError,
            MemoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
