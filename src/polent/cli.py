"""Command-line interface: steady states, sweeps, witnesses, validation, dynamics.

Subcommands
    steady    one steady state with entanglement diagnostics
    sweep     CSV grid of steady-state records over (zeta, xi1)
    witness   witness coefficients and separability check at one point
    validate  full three-subsystem model against the reduced two-qubit model
    dynamics  CSV time series of a relaxation run from both qubits in |g>

Any flag can instead be given in a config file of flat ``key = value`` lines
(keys match the long flag names); explicit flags win over file values.
Exit codes: 0 success, 2 invalid arguments, 3 numerical failure,
4 witness requested for a non-entangled state.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import multiprocessing
import sys

import numpy as np

from .analytic import closed_form, stationarity_residuals
from .entangle import (
    PAULI_LABELS,
    NotEntangledError,
    concurrence,
    construct_witness,
    negativity,
    separable_floor,
)
from .lindblad import (
    DegenerateSteadyStateError,
    IntegrationError,
    build_liouvillian,
    effective_basis,
    effective_liouvillians,
    evolve,
    steady_state,
)
from .model import (
    DimensionlessParams,
    PhysicalParams,
    _embed,
    _mode_lowering,
    adiabatic_amplitude,
    build_effective_model,
    build_full_model,
    map_physical,
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


def _write_csv(path: str, header: tuple[str, ...], rows) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}") from exc


def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
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
    if solver != "numeric":
        rho = exact = DensityMatrix(TWO_QUBITS, closed_form(zeta, xi1, xi2))
        out["equation_residual"] = stationarity_residuals(zeta, xi1, xi2, exact.matrix)
    if solver != "analytic":
        result = steady_state(effective_liouvillians(basis, zeta, xi1, xi2))
        rho = result.rho
        out["superoperator_residual"], out["gap"] = result.residual, result.gap
        if solver == "both":
            diff = exact.matrix - rho.matrix
            out["discrepancy"] = np.sqrt((diff.real**2 + diff.imag**2).sum(axis=(-2, -1)))
    m = rho.matrix
    pops = m.diagonal(axis1=-2, axis2=-1).real
    purity = (m.real**2 + m.imag**2).sum(axis=(-2, -1))  # Tr rho^2 of a Hermitian rho
    # a row's population sum and purity are checked before it is written
    total = pops[:, 0] + pops[:, 1] + pops[:, 2] + pops[:, 3]
    bad_total = ~(abs(total - 1.0) <= 1e-9)
    bad = bad_total | ~((0.25 - 1e-12 <= purity) & (purity <= 1.0 + 1e-12))
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"populations sum to {total[k]:.12g}, not 1" if bad_total[k]
                         else f"purity {purity[k]:.12g} outside [1/4, 1]")
    out.update(rho=m, pops=pops, purity=purity,
               concurrence=concurrence(rho), negativity=negativity(rho))
    return out


def _evaluate(zeta, xi1, xi2, solver: str, basis) -> dict[str, np.ndarray]:
    """States and diagnostics at one block of points, with every per-point check.

    ``basis`` is effective_basis(), or None for the analytic solver. A
    failure names the first failing point, as it would in blocks of one.
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
    basis = None if solver == "analytic" else effective_basis()
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
    basis = None if solver == "analytic" else effective_basis()
    return _evaluate(np.array([zeta]), np.array([xi1]), np.array([xi2]), solver, basis)


def cmd_steady(zeta: float, xi1: float, xi2: float, solver: str, out: str | None = None) -> int:
    ev = _evaluate_point(zeta, xi1, xi2, solver)
    lines = [f"steady state at zeta = {zeta:g}, xi1 = {xi1:g}, xi2 = {xi2:g} (solver: {solver})"]
    if "equation_residual" in ev:
        lines.append(f"equation residual = {ev['equation_residual'][0]:.17g}")
    if "gap" in ev:
        lines.append(f"superoperator residual = {ev['superoperator_residual'][0]:.17g} "
                     f"(gap {ev['gap'][0]:.6g})")
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


def cmd_sweep(zeta_range: tuple, xi1_range: tuple, xi2: float, solver: str, out: str,
              workers: int = 1) -> int:
    """CSV over the (MIN, MAX, STEPS) ranges of _parse_grid, zeta-major."""
    zs = np.linspace(*zeta_range[:2], zeta_range[2])
    xs = np.linspace(*xi1_range[:2], xi1_range[2])
    grid = (np.repeat(zs, len(xs)), np.tile(xs, len(zs)), np.full(len(zs) * len(xs), xi2))
    # one contiguous run of the grid per worker, through the same blocks
    parts = min(workers, len(grid[0]))
    runs = [(*run, solver) for run in zip(*(np.array_split(v, parts) for v in grid))]
    if len(runs) > 1:
        with multiprocessing.get_context("spawn").Pool(len(runs)) as pool:
            rows = np.concatenate(pool.starmap(_sweep_rows, runs))
    else:
        rows = _sweep_rows(*runs[0])
    _write_csv(out, _CSV_HEADER, rows.tolist())
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
    full = build_full_model(p)
    result = steady_state(build_liouvillian(full))
    dims = full.space.dims
    a_op = _embed(_mode_lowering(p.n_max), 2, dims)
    rho = result.rho.matrix
    amp = complex(np.trace(rho @ a_op))
    nbar = float(np.trace(rho @ (a_op.conj().T @ a_op)).real)
    sig1 = complex(np.trace(rho @ _embed(SIGMA_MINUS, 0, dims)))
    sig2 = complex(np.trace(rho @ _embed(SIGMA_MINUS, 1, dims)))
    return partial_trace(result.rho, (0, 1)), amp, nbar, sig1, sig2


def cmd_validate(p: PhysicalParams, t_final: float, out: str | None = None) -> int:
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
    eff = steady_state(build_liouvillian(build_effective_model(dp)))
    td = trace_distance(reduced, eff.rho)
    predicted = adiabatic_amplitude(sig1, sig2, p)
    evolved = evolve(build_effective_model(dp), _ground_state(), t_final)
    td_dyn = trace_distance(evolved, eff.rho)
    cavity = abs(p.alpha / (p.delta + 1j * p.kappa))
    lines = [
        f"validation report (kappa/J = {p.kappa / p.j:g})",
        f"rates: J = {p.j:g}, Delta = {p.delta:g}, kappa = {p.kappa:g}, "
        f"gamma = {p.gamma:g}, alpha = {p.alpha.real:g}{p.alpha.imag:+g}i, n_max = {p.n_max}",
        f"mapped parameters: zeta = {dp.zeta:.17g}, xi = {dp.xi1:.17g} {dp.xi2:+.17g}i",
        "note: mapping uses zeta = Re[J^2/(gamma (Delta + i kappa))]; a factor-2 "
        f"variant seen in the literature would quote zeta = {2 * dp.zeta:.17g}",
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


def cmd_dynamics(
    zeta: float,
    xi1: float,
    xi2: float,
    t_final: float,
    dt: float,
    sample_every: int,
    out: str,
) -> int:
    model = build_effective_model(DimensionlessParams(zeta, xi1, xi2))
    rho0 = _ground_state()
    rows = [(0.0, concurrence(rho0), 0.0, 0.0, 0.0, 1.0, 0.0)]

    def observer(step, t, mat, drift):
        pops = mat.diagonal().real
        rows.append((t, concurrence(DensityMatrix(TWO_QUBITS, mat)), *pops, drift))

    evolve(model, rho0, t_final, dt, _observer=observer, _every=sample_every)
    _write_csv(out, ("t", "concurrence", "pop_ee", "pop_ge", "pop_eg", "pop_gg", "trace_drift"), rows)
    print(f"wrote {len(rows)} samples to {out}")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


# per-subcommand option tables: dest -> (converter, default, help)
_OPTIONS = {
    "steady": {
        "zeta": (float, 0.0, "hopping strength"),
        "xi1": (float, 0.0, "real drive component"),
        "xi2": (float, 0.0, "imaginary drive component"),
        "solver": (str, "both", "analytic, numeric, or both"),
        "out": (str, None, "also write the report to this file"),
    },
    "sweep": {
        "grid": (str, DEFAULT_GRID, "ZMIN:ZMAX:ZSTEPS,XMIN:XMAX:XSTEPS"),
        "xi2": (float, 0.0, "fixed imaginary drive component"),
        "solver": (str, "analytic", "analytic, numeric, or both"),
        "out": (str, None, "output CSV path (required)"),
        "workers": (_positive_int, 1, "worker processes, one contiguous part of the grid each"),
    },
    "witness": {
        "zeta": (float, 0.0, "hopping strength"),
        "xi1": (float, 0.0, "real drive component"),
        "xi2": (float, 0.0, "imaginary drive component"),
        "out": (str, None, "also write the report to this file"),
    },
    "validate": {
        "j": (float, 1.0, "qubit-mode coupling"),
        "delta": (float, 10.0, "mode detuning"),
        "kappa": (float, 10.0, "mode decay rate"),
        "gamma": (float, 0.01, "qubit decay rate"),
        "alpha_re": (float, 0.5, "drive amplitude, real part"),
        "alpha_im": (float, 0.0, "drive amplitude, imaginary part"),
        "nmax": (_positive_int, 4, "photon-number cutoff"),
        "t_final": (float, 20.0, "dynamics cross-check horizon"),
        "out": (str, None, "also write the report to this file"),
    },
    "dynamics": {
        "zeta": (float, 0.0, "hopping strength"),
        "xi1": (float, 0.0, "real drive component"),
        "xi2": (float, 0.0, "imaginary drive component"),
        "t_final": (float, 50.0, "integration horizon"),
        "dt": (float, 1e-3, "integrator step"),
        "sample_every": (_positive_int, 100, "steps between CSV samples"),
        "out": (str, None, "output CSV path (required)"),
    },
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polent",
        description="Steady states, entanglement, and witnesses of two dissipative "
        "qubits coupled through a lossy bosonic mode.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, table in _OPTIONS.items():
        p = sub.add_parser(command)
        for dest, (conv, _default, help_text) in table.items():
            flag = "--" + dest.replace("_", "-")
            if conv in (float, int, _positive_int):
                p.add_argument(flag, dest=dest, type=conv, default=None, help=help_text)
            else:
                p.add_argument(flag, dest=dest, default=None, help=help_text)
        p.add_argument("--config", default=None, help="flat key = value file of defaults")
    return parser


def _load_config(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
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


def _merge(args: argparse.Namespace) -> argparse.Namespace:
    table = _OPTIONS[args.command]
    config = _load_config(args.config) if args.config else {}
    for key in config:
        if key not in table:
            raise _UsageError(f"unknown config key {key!r} for command {args.command!r}")
    for dest, (conv, default, _help) in table.items():
        if getattr(args, dest) is not None:
            continue  # explicit flag wins
        if dest in config:
            try:
                setattr(args, dest, conv(config[dest]))
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise _UsageError(f"config key {dest!r}: {exc}") from exc
        else:
            setattr(args, dest, default)
    for dest, (conv, _default, _help) in table.items():
        value = getattr(args, dest)
        if conv is float and not math.isfinite(value):
            raise _UsageError(f"--{dest.replace('_', '-')} must be finite, got {value!r}")
    return args


def _parse_grid(text: str) -> tuple[tuple[float, float, int], tuple[float, float, int]]:
    parts = text.split(",")
    if len(parts) != 2:
        raise _UsageError(f"grid must be two comma-separated ranges, got {text!r}")
    ranges = []
    for part in parts:
        fields = part.split(":")
        if len(fields) != 3:
            raise _UsageError(f"grid range must be MIN:MAX:STEPS, got {part!r}")
        try:
            lo, hi, steps = float(fields[0]), float(fields[1]), int(fields[2])
        except ValueError as exc:
            raise _UsageError(f"bad grid range {part!r}: {exc}") from exc
        if steps < 1:
            raise _UsageError(f"grid steps must be >= 1, got {steps}")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise _UsageError(f"grid bounds must be finite, got {lo:g}:{hi:g}")
        if lo > hi:
            raise _UsageError(f"grid minimum {lo:g} exceeds maximum {hi:g}")
        ranges.append((lo, hi, steps))
    return ranges[0], ranges[1]


def _check_solver(solver: str) -> str:
    """The solver check of steady and sweep; every route covers every drive."""
    if solver not in SOLVERS:
        raise _UsageError(f"solver must be analytic, numeric, or both, got {solver!r}")
    return solver


def _check_horizon(t_final: float) -> None:
    # a non-positive horizon takes no step, so there would be nothing to report
    if t_final <= 0:
        raise _UsageError(f"t-final must be positive, got {t_final:g}")


def _run_steady(args: argparse.Namespace) -> int:
    solver = _check_solver(args.solver)
    return cmd_steady(args.zeta, args.xi1, args.xi2, solver, args.out)


def _run_sweep(args: argparse.Namespace) -> int:
    if args.out is None:
        raise _UsageError("sweep requires --out")
    zeta_range, xi1_range = _parse_grid(args.grid)
    solver = _check_solver(args.solver)
    return cmd_sweep(zeta_range, xi1_range, args.xi2, solver, args.out, args.workers)


def _run_witness(args: argparse.Namespace) -> int:
    return cmd_witness(args.zeta, args.xi1, args.xi2, args.out)


def _run_validate(args: argparse.Namespace) -> int:
    try:
        params = PhysicalParams(
            args.j, args.delta, args.kappa, args.gamma,
            complex(args.alpha_re, args.alpha_im), args.nmax,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    _check_horizon(args.t_final)
    return cmd_validate(params, args.t_final, args.out)


def _run_dynamics(args: argparse.Namespace) -> int:
    if args.out is None:
        raise _UsageError("dynamics requires --out")
    if args.dt <= 0:
        raise _UsageError(f"dt must be positive, got {args.dt:g}")
    _check_horizon(args.t_final)
    return cmd_dynamics(
        args.zeta, args.xi1, args.xi2, args.t_final, args.dt, args.sample_every, args.out
    )


_RUNNERS = {
    "steady": _run_steady,
    "sweep": _run_sweep,
    "witness": _run_witness,
    "validate": _run_validate,
    "dynamics": _run_dynamics,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _RUNNERS[args.command](_merge(args))
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
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
