"""Liouvillian assembly, steady-state solving, and fixed-step time evolution.

Vectorization is column-stacking: vec(A rho B) = (B^T kron A) vec(rho), with
vec(rho) = rho.ravel(order="F").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DimensionlessParams, LindbladModel, build_effective_model
from .qops import TWO_QUBITS, DensityMatrix, HilbertSpace

GAP_FLOOR = 1e-8
RESIDUAL_TOL = 1e-9
DRIFT_ABORT = 1e-6
DEFAULT_DT = 1e-3


class DegenerateSteadyStateError(Exception):
    """The Liouvillian null space is not one-dimensional within tolerance."""


class IntegrationError(Exception):
    """The fixed-step integrator lost the trace beyond the abort threshold."""


@dataclass(frozen=True, eq=False)
class Liouvillian:
    """Superoperator matrix acting on column-stacked density matrices.

    ``matrix`` is one (d^2, d^2) matrix or a stack of them along a leading axis.
    """

    space: HilbertSpace
    matrix: np.ndarray

    def __post_init__(self):
        d = self.space.dim
        m = np.array(self.matrix, dtype=complex)
        if m.ndim not in (2, 3) or m.shape[-2:] != (d * d, d * d):
            raise ValueError(f"matrix shape {m.shape} does not match space dimension {d}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True, eq=False)
class SteadyStateResult:
    """Steady state with its defect norm and the uniqueness gap.

    residual is ||L vec(rho)||_2; gap is the second-smallest singular value
    of L, which bounds the distance to a second stationary solution. For a
    stacked Liouvillian, rho is a stack and residual and gap are arrays.
    """

    rho: DensityMatrix
    residual: float | np.ndarray
    gap: float | np.ndarray


def _vec(m: np.ndarray) -> np.ndarray:
    return m.ravel(order="F")


def _unvec(v: np.ndarray, d: int) -> np.ndarray:
    return v.reshape(d, d, order="F")


def _commutator(h: np.ndarray) -> np.ndarray:
    # -i[H, .] as a superoperator
    eye = np.eye(h.shape[0], dtype=complex)
    return -1j * (np.kron(eye, h) - np.kron(h.T, eye))


def build_liouvillian(m: LindbladModel) -> Liouvillian:
    """Assemble -i[H, .] plus the jump dissipators as one superoperator matrix."""
    h = m.hamiltonian
    d = h.shape[0]
    eye = np.eye(d, dtype=complex)
    mat = _commutator(h)
    for jump in m.jumps:
        if jump.shape != h.shape:
            raise ValueError(f"jump shape {jump.shape} does not match Hamiltonian {h.shape}")
        jdj = jump.conj().T @ jump
        mat += np.kron(jump.conj(), jump)
        mat -= 0.5 * (np.kron(eye, jdj) + np.kron(jdj.T, eye))
    return Liouvillian(m.space, mat)


def effective_basis() -> np.ndarray:
    """(L0, Lz, Lx1, Lx2): the reduced model's Liouvillian is L0 + zeta Lz + xi1 Lx1 + xi2 Lx2.

    L0 is build_liouvillian of the undriven, uncoupled model; each other
    term is the commutator with the model's Hamiltonian at one unit
    parameter, so build_effective_model stays the only source of the model.
    Each entry of L depends on at most one parameter, so the affine sum
    equals build_liouvillian at every point bit for bit.
    """
    base = build_liouvillian(build_effective_model(DimensionlessParams(0.0, 0.0))).matrix
    units = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    return np.stack([base] + [
        _commutator(build_effective_model(DimensionlessParams(*u)).hamiltonian) for u in units
    ])


def effective_liouvillians(basis: np.ndarray, zeta, xi1, xi2) -> Liouvillian:
    """Stacked reduced-model Liouvillians at arrays of (zeta, xi1, xi2), from effective_basis()."""
    l0, lz, lx1, lx2 = basis

    def column(v):
        return np.asarray(v, dtype=float)[:, None, None]

    return Liouvillian(TWO_QUBITS, l0 + column(zeta) * lz + column(xi1) * lx1 + column(xi2) * lx2)


def steady_state(liouv: Liouvillian) -> SteadyStateResult:
    """Solve L vec(rho) = 0 with Tr rho = 1, for one Liouvillian or a stack.

    The trace condition replaces the row of L for the first population, and
    the square system is solved directly (the direct method of QuTiP;
    Johansson, Nation and Nori, CPC 183, 1760 (2012)). That row is
    redundant: the population rows of L sum to zero. Raises
    DegenerateSteadyStateError when the singular-value probe finds a second
    near-null direction, rather than returning an arbitrary mixture, and
    when the residual exceeds RESIDUAL_TOL; for a stack, the message names
    the first failing Liouvillian.
    """
    d = liouv.space.dim
    lm = liouv.matrix.reshape(-1, d * d, d * d)
    n = len(lm)
    gaps = np.linalg.svd(lm, compute_uv=False)[:, -2]
    degenerate = ~(gaps > GAP_FLOOR)  # "not >" so that NaN fails
    if degenerate.any():
        k = int(np.argmax(degenerate))
        raise DegenerateSteadyStateError(
            f"stationary space is degenerate (gap {gaps[k]:.3e} <= {GAP_FLOOR:g})" + _which(k, n)
        )
    bordered = lm.copy()
    bordered[:, 0, :] = _vec(np.eye(d, dtype=complex))
    rhs = np.zeros((n, d * d, 1), dtype=complex)
    rhs[:, 0] = 1.0
    mats = np.linalg.solve(bordered, rhs).reshape(n, d, d).swapaxes(-1, -2)  # unvec
    mats = 0.5 * (mats + mats.conj().swapaxes(-1, -2))
    defect = (lm @ mats.swapaxes(-1, -2).reshape(n, d * d, 1))[..., 0]
    residuals = np.sqrt((defect.real**2 + defect.imag**2).sum(axis=-1))
    failed = ~(residuals <= RESIDUAL_TOL)
    if failed.any():
        k = int(np.argmax(failed))
        raise DegenerateSteadyStateError(
            f"steady-state residual {residuals[k]:.3e} exceeds {RESIDUAL_TOL:g}" + _which(k, n)
        )
    if liouv.matrix.ndim == 2:
        mats, residuals, gaps = mats[0], float(residuals[0]), float(gaps[0])
    return SteadyStateResult(DensityMatrix(liouv.space, mats), residuals, gaps)


def _which(k: int, n: int) -> str:
    return f" (Liouvillian {k} of a stack of {n})" if n > 1 else ""


def evolve(
    m: LindbladModel,
    rho0: DensityMatrix,
    t_final: float,
    dt: float = DEFAULT_DT,
    _observer=None,
) -> DensityMatrix:
    """Propagate rho0 with fixed-step fourth-order Runge-Kutta.

    The state is re-symmetrized once per step; the trace is monitored and
    never renormalized, and drift beyond DRIFT_ABORT aborts the run.
    ``_observer(step, t, matrix, drift)`` is called after every step.
    """
    if rho0.space.dims != m.space.dims:
        raise ValueError("initial state lives on a different space than the model")
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    lm = build_liouvillian(m).matrix
    d = m.space.dim
    v = _vec(rho0.matrix.astype(complex))
    nsteps = max(1, int(round(t_final / dt))) if t_final > 0 else 0
    mat = rho0.matrix
    for step in range(1, nsteps + 1):
        k1 = lm @ v
        k2 = lm @ (v + (0.5 * dt) * k1)
        k3 = lm @ (v + (0.5 * dt) * k2)
        k4 = lm @ (v + dt * k3)
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        mat = _unvec(v, d)
        mat = 0.5 * (mat + mat.conj().T)
        v = _vec(mat)
        drift = abs(np.trace(mat) - 1.0)
        # "not <=" instead of ">" so a NaN trace (overflowed state) also aborts
        if not drift <= DRIFT_ABORT:
            raise IntegrationError(
                f"trace drift {drift:.3e} at t = {step * dt:.6g} exceeds "
                f"{DRIFT_ABORT:g}; reduce dt below {dt:g}"
            )
        if _observer is not None:
            _observer(step, step * dt, mat, drift)
    return DensityMatrix(m.space, mat)
