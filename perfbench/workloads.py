"""Seeded workloads for the polent benchmark and the checks on their outputs.

A workload is one pass: a fixed list of CLI argv lists that the benchmark
hands to ``polent.cli.main``. The seed only moves the inputs inside a region
where every command succeeds and the amount of work stays the same:

map        sweep --solver both over an 81x81 (zeta, xi1) grid whose window
           is shifted slightly around the default 0:10,0:4. Many small
           problems, each through the closed form and the Liouvillian null
           space; no RK4 and no witness sampling.
point      entangled points on the concurrence ridge, each run through
           steady (both routes), witness and dynamics to t = 50 at
           dt = 1e-3. RK4 and separable-floor sampling dominate; no grid.
reduction  validate --nmax 6 at physical rates where the photon cutoff has
           converged (784^2 and 1296^2 Liouvillians), followed by the
           entanglement of the mapped reduced model. One large dense solve
           dominates.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("map", "point", "reduction")

GRID_STEPS = 81
POINTS = 2
NMAX = 6
# smoke sizes: same commands and checks, a fraction of the work
SMOKE_GRID_STEPS = 9
SMOKE_NMAX = 4

# physical rates of validate that the seed does not move (the CLI defaults)
J, DELTA, GAMMA = 1.0, 10.0, 0.01

ROUTE_TOL = 1e-9        # closed form against null space, Frobenius norm
FLOOR_TOL = -1e-8       # sampled separable floor may not go below this
RELAX_TOL = 1e-6        # final RK4 concurrence against the steady one
ADIABATIC_TOL = 1e-6    # full-model <a> against the adiabatic prediction
DYNAMICS_TOL = 1e-6     # validate's RK4 trace distance to the steady state
MAPPING_RTOL = 1e-12    # printed mapped parameters against the formula
GAUGE_TOL = 1e-9        # entanglement at xi against |xi| (local phase)


@dataclass(frozen=True)
class Command:
    kind: str
    argv: tuple[str, ...]
    csv: Path | None = None  # file the command writes


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    commands: tuple[Command, ...]
    setup_argv: tuple[str, ...]
    # Liouvillian side length of validate's n_max + 2 convergence probe; 0 if none
    probe_side: int = 0
    # (zeta, xi1, xi2) that validate's mapping should print; reduction only
    mapped: tuple[float, float, float] | None = None


@dataclass
class Output:
    command: Command
    exit: int | str  # exit code, or a description of what escaped main
    stdout: str
    stderr: str
    seconds: float
    csv: bytes | None = None
    ref: float = 1.0  # yardstick seconds around the command (run.reference_seconds)


def _num(x: float) -> str:
    return f"{x:.6f}"


def _ridge_point(rng: random.Random) -> tuple[str, str]:
    # concurrence stays above 0.16 on this band: xi1 in [1, 1 + zeta/10]
    zeta = _num(rng.uniform(4.0, 10.0))
    xi1 = _num(1.0 + rng.uniform(0.0, 1.0) * float(zeta) / 10.0)
    return zeta, xi1


def make(name: str, seed: int, outdir: Path, smoke: bool = False) -> Workload:
    """The workload ``name`` for ``seed``, writing its CSV files under ``outdir``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{name}:{seed}")
    z0, x0 = _ridge_point(rng)
    setup = ("steady", "--zeta", z0, "--xi1", x0, "--solver", "both")
    if name == "map":
        steps = SMOKE_GRID_STEPS if smoke else GRID_STEPS
        zlo, xlo = float(_num(rng.uniform(0.0, 0.25))), float(_num(rng.uniform(0.0, 0.1)))
        grid = f"{_num(zlo)}:{_num(zlo + 10)}:{steps},{_num(xlo)}:{_num(xlo + 4)}:{steps}"
        csv = outdir / f"map-{seed}.csv"
        cmd = Command("sweep", ("sweep", "--grid", grid, "--solver", "both",
                                "--workers", "1", "--out", str(csv)), csv)
        return Workload(name, seed, (cmd,), setup)
    if name == "point":
        t_final, dt = ("40", "0.01") if smoke else ("50", "0.001")
        commands = []
        for i in range(1 if smoke else POINTS):
            zeta, xi1 = _ridge_point(rng)
            at = ("--zeta", zeta, "--xi1", xi1)
            csv = outdir / f"point-{seed}-{i}.csv"
            commands += [
                Command("steady", ("steady", *at, "--solver", "both")),
                Command("witness", ("witness", *at)),
                Command("dynamics", ("dynamics", *at, "--t-final", t_final, "--dt", dt,
                                     "--out", str(csv)), csv),
            ]
        return Workload(name, seed, tuple(commands), setup)
    nmax = SMOKE_NMAX if smoke else NMAX
    kappa, alpha = _num(rng.uniform(10.0, 40.0)), _num(rng.uniform(0.3, 0.7))
    den = GAMMA * complex(DELTA, float(kappa))
    zeta = (J**2 / den).real
    xi = float(alpha) * J / den
    commands = (
        Command("validate", ("validate", "--kappa", kappa, "--alpha-re", alpha,
                             "--nmax", str(nmax))),
        # the drive phase is a local gauge (rotate both qubits about z), so the
        # entanglement at xi equals the entanglement at |xi| on the real axis
        Command("steady", ("steady", "--zeta", repr(zeta), "--xi1", repr(xi.real),
                           "--xi2", repr(xi.imag), "--solver", "numeric")),
        Command("steady", ("steady", "--zeta", repr(zeta), "--xi1", repr(abs(xi)),
                           "--solver", "both")),
    )
    side = (4 * (nmax + 3)) ** 2
    return Workload(name, seed, commands, setup, side, (zeta, xi.real, xi.imag))


# ---------------------------------------------------------------------------
# output checks: each returns a list of failure messages for one command


def _field(text: str, label: str) -> float:
    match = re.search(re.escape(label) + r" = (\S+)", text)
    if match is None:
        raise ValueError(f"no {label!r} in output")
    return float(match.group(1))


def _csv_rows(data: bytes) -> list[list[float]]:
    lines = data.decode("utf-8").splitlines()[1:]
    return [[float(v) for v in line.split(",")] for line in lines]


def _check_sweep(out: Output, first: Output | None) -> list[str]:
    errors = []
    rows = _csv_rows(out.csv)
    argv = out.command.argv
    steps = int(argv[argv.index("--grid") + 1].split(",")[0].split(":")[2])
    if len(rows) != steps * steps:
        errors.append(f"{len(rows)} rows, expected {steps * steps}")
    worst = max(r[10] for r in rows)
    if not worst < ROUTE_TOL:
        errors.append(f"route discrepancy {worst:.3e} >= {ROUTE_TOL:g}")
    if not all(0.0 <= r[3] <= 1.0 for r in rows):
        errors.append("concurrence outside [0, 1]")
    if first is not None and out.csv != first.csv:
        errors.append("CSV bytes differ from the first pass")
    return errors


def _check_point(outs: list[Output]) -> list[list[str]]:
    errors: list[list[str]] = [[] for _ in outs]
    for i in range(0, len(outs), 3):
        steady, witness, dynamics = outs[i:i + 3]
        gap = _field(steady.stdout, "analytic-numeric discrepancy (Frobenius)")
        if not gap < ROUTE_TOL:
            errors[i].append(f"route discrepancy {gap:.3e} >= {ROUTE_TOL:g}")
        value = _field(witness.stdout, "Tr[W rho]")
        if not value < 0:
            errors[i + 1].append(f"Tr[W rho] = {value:.3e} is not negative")
        floor = _field(witness.stdout, "min sampled separable expectation")
        if not floor >= FLOOR_TOL:
            errors[i + 1].append(f"separable floor {floor:.3e} < {FLOOR_TOL:g}")
        c_final = _csv_rows(dynamics.csv)[-1][1]
        c_steady = _field(steady.stdout, "concurrence")
        if not abs(c_final - c_steady) < RELAX_TOL:
            errors[i + 2].append(f"final concurrence {c_final!r} vs steady {c_steady!r}")
    return errors


def _check_reduction(w: Workload, outs: list[Output]) -> list[list[str]]:
    validate, at_xi, at_abs = outs
    errors: list[list[str]] = [[], [], []]
    mismatch = _field(validate.stdout, "|<a> - adiabatic prediction|")
    if not mismatch < ADIABATIC_TOL:
        errors[0].append(f"adiabatic mismatch {mismatch:.3e} >= {ADIABATIC_TOL:g}")
    drift = _field(validate.stdout, "trace distance to steady state")
    if not drift < DYNAMICS_TOL:
        errors[0].append(f"dynamics cross-check {drift:.3e} >= {DYNAMICS_TOL:g}")
    match = re.search(r"mapped parameters: zeta = (\S+), xi = (\S+) (\S+)i", validate.stdout)
    printed = tuple(float(g) for g in match.groups()) if match else None
    if printed is None or not all(
        math.isclose(a, b, rel_tol=MAPPING_RTOL, abs_tol=1e-300) for a, b in zip(printed, w.mapped)
    ):
        errors[0].append(f"mapped parameters {printed} differ from {w.mapped}")
    gap = _field(at_abs.stdout, "analytic-numeric discrepancy (Frobenius)")
    if not gap < ROUTE_TOL:
        errors[2].append(f"route discrepancy {gap:.3e} >= {ROUTE_TOL:g}")
    for label in ("concurrence", "negativity"):
        a, b = _field(at_xi.stdout, label), _field(at_abs.stdout, label)
        if not abs(a - b) < GAUGE_TOL:
            errors[1].append(f"{label} {a!r} at xi vs {b!r} at |xi|")
    return errors


def check(w: Workload, outs: list[Output], first: list[Output] | None) -> list[list[str]]:
    """Failure messages per command of one pass; ``first`` is the run's first pass."""
    errors: list[list[str]] = [[] for _ in outs]
    for i, out in enumerate(outs):
        if out.exit != 0:
            errors[i].append(f"exit {out.exit}: {out.stderr.strip()[-300:]}")
    if any(errors):
        return errors  # a failed command leaves nothing meaningful to compare
    try:
        if w.name == "map":
            return [_check_sweep(outs[0], first[0] if first else None)]
        if w.name == "point":
            return _check_point(outs)
        return _check_reduction(w, outs)
    except (ValueError, IndexError, TypeError, UnicodeDecodeError) as exc:
        return [[f"unreadable output: {exc}"] for _ in outs]
