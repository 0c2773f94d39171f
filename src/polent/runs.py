"""Library reports, as frozen dataclasses: evaluate's steady states, witness_report's witness and
validate_reduction's check; and dynamics' relaxation run.

The layers are called through their modules (lindblad.steady_state, not a
copy of the name), so a tracer that rebinds a module's functions sees them.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from . import analytic, entangle, lindblad, model, qops
from .lindblad import DegenerateSteadyStateError, Liouvillian
from .model import DimensionlessParams, PhysicalParams
from .qops import SIGMA_MINUS, TWO_QUBITS, DensityMatrix, InvalidStateError

SOLVERS = ("analytic", "numeric", "both")
# a full-model observable that moves this much from n_max to n_max + 2 is not converged
TRUNCATION_TOL = 1e-6
# failures of one point; numpy's LinAlgError is a ValueError
_POINT_FAILURES = (InvalidStateError, DegenerateSteadyStateError, ValueError)


class TruncationError(Exception):
    """Full-model observables still moving when the photon cutoff is raised; n_max is the cutoff to try."""

    def __init__(self, message: str, n_max: int):
        super().__init__(message)
        self.n_max = n_max


@dataclasses.dataclass(frozen=True, eq=False)
class Evaluation:
    """The steady state at one point (floats) or at each point of a block (arrays), and its figures.

    A field is None where its route did not run: closed_form for "numeric", gap and the residual for
    "analytic", discrepancy (the routes' Frobenius distance) unless "both". rho is the numeric state
    where that route ran. The cached figures are formed on first read, from checked states.
    """

    rho: DensityMatrix
    liouvillian: Liouvillian
    closed_form: DensityMatrix | None
    gap: float | np.ndarray | None
    superoperator_residual: float | np.ndarray | None
    discrepancy: float | np.ndarray | None

    @functools.cached_property
    def equation_residual(self):
        """||L vec(rho)|| of the closed-form state against the same L, or None where it was not formed."""
        if self.closed_form is None:
            return None
        m = self.closed_form.matrix
        return lindblad.stationarity_residuals(self.liouvillian, m).reshape(m.shape[:-2])

    @functools.cached_property
    def populations(self) -> np.ndarray:
        return self.rho.matrix.diagonal(axis1=-2, axis2=-1).real  # (ee, ge, eg, gg) on the last axis

    @functools.cached_property
    def purity(self):
        m = self.rho.matrix
        return (m.real**2 + m.imag**2).sum(axis=(-2, -1))  # Tr rho^2 of a Hermitian rho

    @functools.cached_property
    def entanglement(self):
        """(concurrence, negativity), from one partial-transpose spectrum."""
        return entangle.entanglement(self.rho)


def evaluate(zeta, xi1, xi2, solver: str) -> Evaluation:
    """The steady state at one point (floats) or a block (arrays) by the solver's routes, with every check.

    "analytic" is the closed form, "numeric" the Liouvillian null space,
    "both" the two. A block's Liouvillians are one stacked build, and one
    point has the bits it has in a block. A failure names the first failing
    point, as it would at that point alone.
    """
    if solver not in SOLVERS:
        raise ValueError(f"solver must be one of {SOLVERS}, got {solver!r}")
    if np.ndim(zeta) or np.ndim(xi1) or np.ndim(xi2):  # as in DimensionlessParams; one point keeps its floats
        zeta, xi1, xi2 = np.broadcast_arrays(zeta, xi1, xi2)
    try:
        liouv = lindblad.build_liouvillian(model.build_effective_model(DimensionlessParams(zeta, xi1, xi2)))
        exact = discrepancy = None
        if solver != "numeric":
            exact = analytic.closed_form(zeta, xi1, xi2).reshape(np.shape(zeta) + (4, 4))
            exact = DensityMatrix(TWO_QUBITS, exact)
            if solver == "analytic":
                return Evaluation(exact, liouv, exact, None, None, None)
        result = lindblad.steady_state(liouv)
    except _POINT_FAILURES as exc:
        if np.ndim(zeta):
            for k in range(len(zeta)):
                evaluate(zeta[k], xi1[k], xi2[k], solver)
            raise
        raise type(exc)(f"at (zeta, xi1, xi2) = ({zeta:.17g}, {xi1:.17g}, {xi2:.17g}): {exc}") from exc
    if exact is not None:
        diff = exact.matrix - result.rho.matrix
        discrepancy = np.sqrt((diff.real**2 + diff.imag**2).sum(axis=(-2, -1)))
    return Evaluation(result.rho, liouv, exact, result.gap, result.residual, discrepancy)


@dataclasses.dataclass(frozen=True, eq=False)
class WitnessReport:
    """The witness of the numeric steady state at one point, its value there and its sampled separable floor."""

    witness: entangle.Witness
    expectation: float  # Tr[W rho]
    separable_floor: float  # the smallest Tr[W sigma] over the sampled separable states
    n_pure: int  # the pure product states sampled
    n_mixed: int  # and the mixtures of two


def witness_report(zeta: float, xi1: float, xi2: float) -> WitnessReport:
    """entangle.construct_witness of the numeric steady state at one point, with separable_floor's default samples.

    Raises entangle.NotEntangledError where the state's partial transpose has no negative eigenvalue.
    """
    rho = evaluate(zeta, xi1, xi2, "numeric").rho
    wit = entangle.construct_witness(rho)
    n_pure, n_mixed = entangle.N_PURE_SAMPLES, entangle.N_MIXED_SAMPLES
    return WitnessReport(wit, wit.expectation(rho), entangle.separable_floor(wit, n_pure, n_mixed), n_pure, n_mixed)


def ground_state() -> DensityMatrix:
    """Both qubits in |g>: |gg><gg|, where dynamics runs start."""
    return DensityMatrix(TWO_QUBITS, np.diag([0j, 0j, 0j, 1.0]))


def dynamics(zeta: float, xi1: float, xi2: float, t_final: float, dt: float, sample_every: int):
    """lindblad.evolve's (steps, rho, drift) from ground_state() under the reduced model's L at one point."""
    liouv = lindblad.build_liouvillian(model.build_effective_model(DimensionlessParams(zeta, xi1, xi2)))
    return lindblad.evolve(liouv, ground_state(), t_final, dt, sample_every)


@dataclasses.dataclass(frozen=True, eq=False)
class ValidationReport:
    """The full model at physical rates against the reduced model at the mapped point."""

    mapped: DimensionlessParams  # the reduced model's (zeta, xi1, xi2)
    occupation: float  # <a+a> of the full model
    truncation_shift: float  # the largest move of the qubit pair's state, <a> or <a+a> at n_max + 2
    reduction_distance: float  # trace distance of the full model's qubit pair to the reduced state
    adiabatic_mismatch: float  # |<a> - model.adiabatic_amplitude|: the cutoff and the solver only
    dynamics_distance: float  # trace distance of the reduced model's run from |gg> to its steady state
    dynamics_time: float  # the time that run reached: round(t_final / dt) steps, at least one
    cavity_amplitude: float  # |alpha / (Delta + i kappa)|, the empty cavity's |<a>|


def validate_reduction(p: PhysicalParams, t_final: float) -> ValidationReport:
    """The full model at p.n_max and p.n_max + 2 against the reduced model at map_physical(p).

    Raises TruncationError when the qubit pair's state, <a> or <a+a> moves
    by TRUNCATION_TOL or more as the cutoff is raised.
    """
    qubits, amp, nbar, sig1, sig2 = _marginals(p)
    qubits2, amp2, nbar2, _, _ = _marginals(dataclasses.replace(p, n_max=p.n_max + 2))
    shift = max(float(np.abs(qubits2.matrix - qubits.matrix).max()), abs(amp2 - amp), abs(nbar2 - nbar))
    if shift >= TRUNCATION_TOL:
        raise TruncationError(f"observables moved {shift:.3e} from n_max = {p.n_max} to {p.n_max + 2}",
                              p.n_max + 2)
    dp = model.map_physical(p)
    ev = evaluate(dp.zeta, dp.xi1, dp.xi2, "numeric")
    distance = qops.trace_distance(qubits, ev.rho)
    mismatch = abs(amp - model.adiabatic_amplitude(sig1, sig2, p))
    # a run under the L that gave the steady state; its samples are rho0 and its last state
    steps, samples, _ = lindblad.evolve(ev.liouvillian, ground_state(), t_final)
    return ValidationReport(dp, nbar, shift, distance, mismatch, qops.trace_distance(samples, ev.rho)[-1],
                            steps[-1] * lindblad.DEFAULT_DT, abs(p.alpha / (p.delta + 1j * p.kappa)))


def _marginals(p: PhysicalParams):
    """The full model's qubit pair, <a>, <a+a> and <sigma-_j> at p, all from marginals of its steady state."""
    rho = lindblad.steady_state(lindblad.build_liouvillian(model.build_full_model(p))).rho
    qubits, mode = qops.partial_trace(rho, (0, 1)), qops.partial_trace(rho, (2,)).matrix
    a_op = model.mode_lowering(p.n_max)
    amp = complex(np.trace(mode @ a_op))
    nbar = float(np.trace(mode @ (a_op.conj().T @ a_op)).real)
    sig1, sig2 = (complex(np.trace(qops.partial_trace(qubits, (k,)).matrix @ SIGMA_MINUS)) for k in (0, 1))
    return qubits, amp, nbar, sig1, sig2
