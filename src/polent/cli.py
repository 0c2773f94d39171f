"""Command-line interface: steady states, sweeps, witnesses, validation, dynamics.

Subcommands
    steady    one steady state with entanglement diagnostics
    sweep     CSV grid of steady-state records over (zeta, xi1)
    witness   witness coefficients and separability check at one point
    validate  full three-subsystem model against the reduced two-qubit model
    dynamics  CSV time series of a relaxation run from both qubits in |g>

Any flag can instead be given in a config file of flat ``key = value`` lines
(keys match the long flag names); explicit flags win over file values. Each
option has one converter, which is its whole check: a flag, a config line and
the default all go through it, and a bad value exits 2 with one ``error:``
line, whatever its source.
Exit codes: 0 success, 2 invalid arguments, 3 numerical failure,
4 witness requested for a non-entangled state.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import multiprocessing
import os
import sys

import numpy as np

from .analytic import closed_form
from .entangle import (
    PAULI_LABELS,
    NotEntangledError,
    concurrence,
    construct_witness,
    negativity,
    separable_floor,
)
from .lindblad import (
    DEFAULT_DT,
    DegenerateSteadyStateError,
    IntegrationError,
    build_liouvillian,
    effective_basis,
    effective_liouvillians,
    evolve,
    stationarity_residuals,
    steady_state,
)
from .model import (
    DimensionlessParams,
    PhysicalParams,
    adiabatic_amplitude,
    build_effective_model,
    build_full_model,
    map_physical,
    mode_lowering,
)
from .qops import (
    SIGMA_MINUS,
    TWO_QUBITS,
    DensityMatrix,
    InvalidStateError,
    partial_trace,
    trace_distance,
)

DEFAULT_GRID = "0:10:81,0:4:81"
SOLVERS = ("analytic", "numeric", "both")
# points per stacked evaluation: memory follows the block, not the grid, and
# the output does not depend on where the blocks start
BLOCK_SIZE = 256
DOMINANT_THRESHOLD = 0.05
TRUNCATION_TOL = 1e-6
N_PURE_SAMPLES = 10000
N_MIXED_SAMPLES = 1000


class _UsageError(Exception):
    """Bad flag/config input; reported on stderr with exit code 2."""


class TruncationError(Exception):
    """Full-model observables still moving when the photon cutoff is raised."""


_CSV_HEADER = (
    "zeta", "xi1", "xi2", "concurrence", "negativity", "purity",
    "pop_ee", "pop_ge", "pop_eg", "pop_gg", "residual",
)


def _write_csv(path: str, header: tuple[str, ...], rows: np.ndarray) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            np.savetxt(fh, rows, fmt="%.17g", delimiter=",", header=",".join(header), comments="")
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
    rows = []
    for r in range(m.shape[0]):
        cells = ", ".join(f"{z.real:+.9f}{z.imag:+.9f}j" for z in m[r])
        rows.append(f"  [{cells}]")
    return rows


def _ground_state() -> DensityMatrix:
    m = np.zeros((4, 4), dtype=complex)
    m[3, 3] = 1.0
    return DensityMatrix(TWO_QUBITS, m)


# ---------------------------------------------------------------------------
# stacked evaluation: steady, sweep and witness all run points through _evaluate

# failures of one point; numpy's LinAlgError is a ValueError
_POINT_FAILURES = (InvalidStateError, DegenerateSteadyStateError, ValueError)
# the sweep's residual column for each solver
_RESIDUAL_COLUMN = {
    "analytic": "equation_residual",
    "numeric": "superoperator_residual",
    "both": "discrepancy",
}


def _evaluate_stack(zeta, xi1, xi2, solver: str, basis) -> dict[str, np.ndarray]:
    out = {}
    liouv = effective_liouvillians(basis, zeta, xi1, xi2)
    if solver != "numeric":
        rho = exact = DensityMatrix(TWO_QUBITS, closed_form(zeta, xi1, xi2))
        out["equation_residual"] = stationarity_residuals(liouv, exact.matrix)
    if solver != "analytic":
        result = steady_state(liouv)
        rho = result.rho
        out["superoperator_residual"], out["gap"] = result.residual, result.gap
        if solver == "both":
            diff = exact.matrix - rho.matrix
            out["discrepancy"] = np.sqrt((diff.real**2 + diff.imag**2).sum(axis=(-2, -1)))
    m = rho.matrix
    pops = m.diagonal(axis1=-2, axis2=-1).real
    purity = (m.real**2 + m.imag**2).sum(axis=(-2, -1))  # Tr rho^2 of a Hermitian rho
    # a row's purity is checked before it is written; its populations already
    # sum to 1 within TRACE_TOL, as every row passed DensityMatrix
    bad = ~((0.25 - 1e-12 <= purity) & (purity <= 1.0 + 1e-12))
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"purity {purity[k]:.12g} outside [1/4, 1]")
    out.update(rho=m, pops=pops, purity=purity,
               concurrence=concurrence(rho), negativity=negativity(rho))
    return out


def _evaluate(zeta, xi1, xi2, solver: str, basis) -> dict[str, np.ndarray]:
    """States and diagnostics at one block of points, with every per-point check.

    ``basis`` is effective_basis(); every solver's residual is taken against
    the Liouvillians built from it. A failure names the first failing point,
    as it would in blocks of one.
    """
    try:
        return _evaluate_stack(zeta, xi1, xi2, solver, basis)
    except _POINT_FAILURES as exc:
        if len(zeta) > 1:
            for k in range(len(zeta)):
                _evaluate(zeta[k:k + 1], xi1[k:k + 1], xi2[k:k + 1], solver, basis)
            raise
        point = f"({zeta[0]:.17g}, {xi1[0]:.17g}, {xi2[0]:.17g})"
        raise type(exc)(f"at (zeta, xi1, xi2) = {point}: {exc}") from exc


def _sweep_rows(zeta, xi1, xi2, solver: str) -> np.ndarray:
    """CSV rows of a contiguous run of grid points, BLOCK_SIZE points at a time."""
    basis = effective_basis()
    blocks = []
    for start in range(0, len(zeta), BLOCK_SIZE):
        z, x1, x2 = (v[start:start + BLOCK_SIZE] for v in (zeta, xi1, xi2))
        ev = _evaluate(z, x1, x2, solver, basis)
        blocks.append(np.column_stack([
            z, x1, x2, ev["concurrence"], ev["negativity"], ev["purity"], ev["pops"],
            ev[_RESIDUAL_COLUMN[solver]],
        ]))
    return np.concatenate(blocks)


def _evaluate_point(zeta: float, xi1: float, xi2: float, solver: str) -> dict[str, np.ndarray]:
    return _evaluate(np.array([zeta]), np.array([xi1]), np.array([xi2]), solver,
                     effective_basis())


def cmd_steady(zeta: float, xi1: float, xi2: float, solver: str, out: str | None = None) -> int:
    ev = _evaluate_point(zeta, xi1, xi2, solver)
    lines = [f"steady state at zeta = {zeta:g}, xi1 = {xi1:g}, xi2 = {xi2:g} (solver: {solver})"]
    if "equation_residual" in ev:
        lines.append(f"equation residual = {ev['equation_residual'][0]:.17g}")
    if "gap" in ev:
        lines.append(f"superoperator residual = {ev['superoperator_residual'][0]:.17g} "
                     f"(gap >= {ev['gap'][0]:.6g})")
    if "discrepancy" in ev:
        lines.append(f"analytic-numeric discrepancy (Frobenius) = {ev['discrepancy'][0]:.17g}")
    lines.append("rho =")
    lines.extend(_format_matrix(ev["rho"][0]))
    pops = ev["pops"][0]
    lines.append(f"populations (ee, ge, eg, gg) = "
                 f"({pops[0]:.17g}, {pops[1]:.17g}, {pops[2]:.17g}, {pops[3]:.17g})")
    lines.append(f"concurrence = {ev['concurrence'][0]:.17g}")
    lines.append(f"negativity = {ev['negativity'][0]:.17g}")
    lines.append(f"purity = {ev['purity'][0]:.17g}")
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
        with multiprocessing.get_context("spawn").Pool(len(runs)) as pool:
            rows = np.concatenate(pool.starmap(_sweep_rows, runs))
    else:
        rows = _sweep_rows(*runs[0])
    _write_csv(out, _CSV_HEADER, rows)
    best = rows[np.argmax(rows[:, 3])]  # first maximum in grid order
    print(f"wrote {len(rows)} rows to {out}")
    print(f"argmax concurrence = {best[3]:.17g} at zeta = {best[0]:.17g}, xi1 = {best[1]:.17g}")
    return 0


def cmd_witness(zeta: float, xi1: float, xi2: float, out: str | None = None) -> int:
    rho = DensityMatrix(TWO_QUBITS, _evaluate_point(zeta, xi1, xi2, "numeric")["rho"][0])
    wit = construct_witness(rho)
    floor = separable_floor(wit, N_PURE_SAMPLES, N_MIXED_SAMPLES)
    c = wit.coefficients
    lines = [
        f"witness report at zeta = {zeta:g}, xi1 = {xi1:g}, xi2 = {xi2:g}",
        "normalization: Frobenius norm ||W||_F = 1 (partial transpose of a unit "
        "eigenvector projector); coefficients are Tr[W (sigma_j x sigma_k)]/4",
        f"Tr[W rho] = {wit.expectation(rho):.17g}",
        f"min sampled separable expectation = {floor:.17g} "
        f"({N_PURE_SAMPLES} pure products + {N_MIXED_SAMPLES} mixtures)",
        "coefficients c[qubit-1 label, qubit-2 label]:",
        "        " + "".join(f"{lab:>12s}" for lab in PAULI_LABELS),
    ]
    for j, lab in enumerate(PAULI_LABELS):
        lines.append(f"  {lab:>4s}  " + "".join(f"{c[j, k]:+12.6f}" for k in range(4)))
    dominant = [
        f"({PAULI_LABELS[j]},{PAULI_LABELS[k]})"
        for j in range(4)
        for k in range(4)
        if abs(c[j, k]) > DOMINANT_THRESHOLD
    ]
    lines.append(f"dominant set (|c| > {DOMINANT_THRESHOLD:g}): " + ", ".join(dominant))
    _emit(lines, out)
    return 0


def _reduced_full_state(p: PhysicalParams):
    """The qubit pair's state, <a>, <a+a> and <sigma-_j>, all from marginals."""
    rho = steady_state(build_liouvillian(build_full_model(p))).rho
    qubits, mode = partial_trace(rho, (0, 1)), partial_trace(rho, (2,)).matrix
    a_op = mode_lowering(p.n_max)
    amp = complex(np.trace(mode @ a_op))
    nbar = float(np.trace(mode @ (a_op.conj().T @ a_op)).real)
    sig1, sig2 = (complex(np.trace(partial_trace(qubits, (k,)).matrix @ SIGMA_MINUS))
                  for k in (0, 1))
    return qubits, amp, nbar, sig1, sig2


def cmd_validate(j: float, delta: float, kappa: float, gamma: float, alpha_re: float,
                 alpha_im: float, nmax: int, t_final: float, out: str | None = None) -> int:
    p = PhysicalParams(j, delta, kappa, gamma, complex(alpha_re, alpha_im), nmax)
    reduced, amp, nbar, sig1, sig2 = _reduced_full_state(p)
    bigger = dataclasses.replace(p, n_max=p.n_max + 2)
    reduced2, amp2, nbar2, _, _ = _reduced_full_state(bigger)
    shift = max(
        float(np.abs(reduced2.matrix - reduced.matrix).max()),
        abs(amp2 - amp),
        abs(nbar2 - nbar),
    )
    if shift >= TRUNCATION_TOL:
        raise TruncationError(
            f"observables moved {shift:.3e} from n_max = {p.n_max} to {p.n_max + 2}; "
            f"rerun with --nmax {p.n_max + 2} or larger"
        )
    dp = map_physical(p)
    eff = DensityMatrix(TWO_QUBITS, _evaluate_point(dp.zeta, dp.xi1, dp.xi2, "numeric")["rho"][0])
    td = trace_distance(reduced, eff)
    predicted = adiabatic_amplitude(sig1, sig2, p)
    evolved = evolve(build_effective_model(dp), _ground_state(), t_final)[1].matrix[-1]
    td_dyn = trace_distance(DensityMatrix(TWO_QUBITS, evolved), eff)
    cavity = abs(p.alpha / (p.delta + 1j * p.kappa))
    lines = [
        f"validation report (kappa/J = {p.kappa / p.j if p.j else np.inf:g})",  # J = 0: uncoupled
        f"rates: J = {p.j:g}, Delta = {p.delta:g}, kappa = {p.kappa:g}, "
        f"gamma = {p.gamma:g}, alpha = {p.alpha.real:g}{p.alpha.imag:+g}i, n_max = {p.n_max}",
        f"mapped parameters: zeta = {dp.zeta:.17g}, xi = {dp.xi1:.17g} {dp.xi2:+.17g}i",
        f"empty-cavity amplitude |alpha/(Delta + i kappa)| = {cavity:.6g}",
        f"mode occupation <a+a> = {nbar:.6g} (truncation shift {shift:.3e} at "
        f"n_max {p.n_max} -> {p.n_max + 2}: converged)",
        f"trace distance (reduced qubit pair vs effective model) = {td:.17g}",
        f"|<a> - adiabatic prediction| = {abs(amp - predicted):.17g}",
        f"dynamics cross-check at t = {t_final:g} (effective model): "
        f"trace distance to steady state = {td_dyn:.3g}",
    ]
    _emit(lines, out)
    return 0


def cmd_dynamics(zeta: float, xi1: float, xi2: float, t_final: float, dt: float,
                 sample_every: int, out: str) -> int:
    model = build_effective_model(DimensionlessParams(zeta, xi1, xi2))
    steps, rho, drift = evolve(model, _ground_state(), t_final, dt, sample_every)
    pops = rho.matrix.diagonal(axis1=-2, axis2=-1).real
    rows = np.column_stack([steps * dt, concurrence(rho), pops, drift[steps]])
    _write_csv(out, ("t", "concurrence", "pop_ee", "pop_ge", "pop_eg", "pop_gg", "trace_drift"), rows)
    print(f"wrote {len(rows)} samples to {out}")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing: an option's value, from its flag, else its config line,
# else its default, goes through the option's converter, which is its whole
# check; a converter's ValueError is a usage error (exit 2)

# validate's cutoff: the process's max RSS is about 32 bytes per entry of the
# n_max + 2 probe's Liouvillian, of side (4 (n_max + 3))^2: the matrix and the
# copy Liouvillian keeps. steady_state solves it by levels, with no dense
# fallback, so no L at the cap reaches a whole inverse (3 x 8 bytes per entry).
# One fresh process, getrusage, 2 CPUs: 0.85 GiB at n_max = 15 (4.1 s), 1.05 at
# 16 (4.4 s); 17 would take 1.28 GiB, more than 15 took inverted whole (1.25)
MAX_NMAX = 16


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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
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
    except (
        InvalidStateError,
        DegenerateSteadyStateError,
        IntegrationError,
        TruncationError,
        ValueError,
        ZeroDivisionError,
        MemoryError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
