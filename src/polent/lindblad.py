"""Liouvillian assembly, steady-state solving, and fixed-step time evolution.

The stationarity of any state is judged here only, as ||L vec(rho)|| with
the Liouvillian built from the model (stationarity_residuals); the
closed-form and numeric routes are both checked against it.

Vectorization is column-stacking: vec(A rho B) = (B^T kron A) vec(rho), with
vec(rho) = rho.ravel(order="F"). With A = -iH - 1/2 sum_j J_j^dagger J_j, the
Liouvillian is

    L = I kron A + conj(A) kron I + sum_j conj(J_j) kron J_j,

because -i[H, rho] - 1/2 {J^dagger J, rho} = A rho + rho A^dagger for Hermitian
H and J^dagger J. build_liouvillian writes the Kronecker sum into the
diagonal blocks of one zero matrix and adds each conj(J) kron J only at the
products of J's nonzero entries, so no dense Kronecker product is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DimensionlessParams, LindbladModel, build_effective_model
from .qops import TWO_QUBITS, DensityMatrix, HilbertSpace, InvalidStateError

GAP_FLOOR = 1e-8
RESIDUAL_TOL = 1e-9
DRIFT_ABORT = 1e-6
STABILITY_SLACK = 1e-9
DEFAULT_DT = 1e-3
# evolve's steps per anchor, and strides checked per batch: 4,096 states, a
# working set of 0.8 MB at d = 4 that does not grow with the run
STRIDE = 128
STRIDE_BATCH = 32


class DegenerateSteadyStateError(Exception):
    """The Liouvillian null space is not one-dimensional within tolerance."""


class IntegrationError(Exception):
    """The fixed-step integrator went unstable, lost the trace or left the density matrices."""


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
    """Steady state with its defect norm and a certified uniqueness gap.

    residual is ||L vec(rho)||_2; gap is a certified lower bound on the second-smallest
    singular value of L. For a stack, rho is a stack and residual and gap are arrays.
    """

    rho: DensityMatrix
    residual: float | np.ndarray
    gap: float | np.ndarray


def _unvec(v: np.ndarray, d: int) -> np.ndarray:
    return v.reshape(*v.shape[:-1], d, d).swapaxes(-1, -2)


def _kronecker_sum(a: np.ndarray) -> np.ndarray:
    """I kron A + conj(A) kron I, written into one new zero matrix.

    In the (d, d, d, d) view of L, I kron A is A on the blocks [i, :, i, :]
    and conj(A) kron I is conj(A) on [:, k, :, k]; both are writable
    diagonal views, so only the (d^2, d^2) result is allocated.
    """
    d = a.shape[0]
    out = np.zeros((d * d, d * d), dtype=complex)
    blocks = out.reshape(d, d, d, d)
    np.einsum("ikil->ikl", blocks)[...] += a
    np.einsum("ikjk->kij", blocks)[...] += a.conj()
    return out


def build_liouvillian(m: LindbladModel) -> Liouvillian:
    """Assemble -i[H, .] plus the jump dissipators as one superoperator matrix.

    Each conj(J) kron J is added at the products of J's nonzero entries
    only; these positions are distinct, so one fancy-indexed += adds each
    product once, and a dense J gives the terms of np.kron.
    """
    d = m.space.dim
    a = -1j * m.hamiltonian
    for jump in m.jumps:
        a -= 0.5 * (jump.conj().T @ jump)
    mat = _kronecker_sum(a)
    for jump in m.jumps:
        rows, cols = np.nonzero(jump)
        values = jump[rows, cols]
        mat[rows[:, None] * d + rows, cols[:, None] * d + cols] += values.conj()[:, None] * values
    return Liouvillian(m.space, mat)


def effective_basis() -> np.ndarray:
    """(L0, Lz, Lx1, Lx2): the reduced model's Liouvillian is L0 + zeta Lz + xi1 Lx1 + xi2 Lx2.

    L0 is build_liouvillian of the undriven, uncoupled model; each other
    term is -i[H, .], the Kronecker sum of -iH, with the model's Hamiltonian
    at one unit parameter, so build_effective_model stays the only source of
    the model and both share build_liouvillian's assembly.
    Each entry of L depends on at most one parameter, so the affine sum
    equals build_liouvillian at every point bit for bit.
    """
    base = build_liouvillian(build_effective_model(DimensionlessParams(0.0, 0.0))).matrix
    units = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    return np.stack([base] + [
        _kronecker_sum(-1j * build_effective_model(DimensionlessParams(*u)).hamiltonian)
        for u in units
    ])


def effective_liouvillians(basis: np.ndarray, zeta, xi1, xi2) -> Liouvillian:
    """Stacked reduced-model Liouvillians at arrays of (zeta, xi1, xi2), from effective_basis()."""
    l0, lz, lx1, lx2 = basis

    def column(v):
        return np.asarray(v, dtype=float)[:, None, None]

    return Liouvillian(TWO_QUBITS, l0 + column(zeta) * lz + column(xi1) * lx1 + column(xi2) * lx2)


def steady_state(liouv: Liouvillian) -> SteadyStateResult:
    """Solve L vec(rho) = 0 with Tr rho = 1, for one Liouvillian or a stack.

    B, L with the trace condition in place of a row (_bordered), is inverted
    once (the direct method of QuTiP; Johansson, Nation and Nori, CPC 183,
    1760 (2012)). Column 0 of B^-1 gives rho, Hermitian by construction;
    gap = 1/||B^-1||_F <= sigma_min(B) <= sigma_{n-1}(L), as B - L has rank
    one (Horn and Johnson, Topics in Matrix Analysis, Thm 3.3.16). Raises
    DegenerateSteadyStateError when gap <= GAP_FLOOR, and when the residual
    exceeds RESIDUAL_TOL times the largest entry of L (at least 1), so that
    c L gives the state of L at every scale c; a stack names its first failure.
    """
    d = liouv.space.dim
    lm = liouv.matrix.reshape(-1, d * d, d * d)
    n = len(lm)
    inverse = _inverse(_bordered(lm, d))
    gaps = 1.0 / np.sqrt(np.einsum("kij,kij->k", inverse, inverse))
    degenerate = ~(gaps > GAP_FLOOR)  # "not >" so that NaN fails
    if degenerate.any():
        k = int(np.argmax(degenerate))
        raise DegenerateSteadyStateError(
            f"stationary space is degenerate (gap {gaps[k]:.3e} <= {GAP_FLOOR:g})" + _which(k, n)
        )
    mats = _unvec(_from_coordinates(inverse[..., 0], d), d)
    residuals = stationarity_residuals(liouv, mats)
    # the largest entry of L sets its scale; unlike a norm it cannot overflow
    bounds = RESIDUAL_TOL * np.maximum(1.0, np.abs(lm).max(axis=(-2, -1)))
    failed = ~(residuals <= bounds)
    if failed.any():
        k = int(np.argmax(failed))
        raise DegenerateSteadyStateError(
            f"steady-state residual {residuals[k]:.3e} exceeds {bounds[k]:.3g}" + _which(k, n)
        )
    if liouv.matrix.ndim == 2:
        mats, residuals, gaps = mats[0], float(residuals[0]), float(gaps[0])
    return SteadyStateResult(DensityMatrix(liouv.space, mats), residuals, gaps)


def _inverse(mats: np.ndarray) -> np.ndarray:
    """inv of each matrix of a stack; an exactly singular one gets an infinite inverse (gap 0)."""
    try:
        return np.linalg.inv(mats)
    except np.linalg.LinAlgError:  # one singular member fails the whole stack
        return np.stack([_inverse(m) for m in mats]) if mats.ndim > 2 else mats + np.inf


def stationarity_residuals(liouv: Liouvillian, states: np.ndarray) -> np.ndarray:
    """||L vec(rho)||_2 for each Liouvillian of a stack and the state at the same index.

    ``states`` is an (N, d, d) stack for a stack of N Liouvillians, or one
    (d, d) matrix for one Liouvillian; the result is an (N,) array. This is
    the one stationarity residual: steady_state checks its solutions with
    it, and the closed form is checked with it against the same L.
    """
    d = liouv.space.dim
    lm = liouv.matrix.reshape(-1, d * d, d * d)
    rho = np.asarray(states).reshape(-1, d, d)
    vecs = rho.swapaxes(-1, -2).reshape(len(lm), d * d, 1)  # column-stacked
    defect = (lm @ vecs)[..., 0]
    # an exact power-of-two scaling before squaring keeps a finite defect's norm finite
    exponent = np.frexp(np.maximum(abs(defect.real), abs(defect.imag)).max(axis=-1))[1]
    re, im = (np.ldexp(part, -exponent[:, None]) for part in (defect.real, defect.imag))
    return np.ldexp(np.sqrt((re**2 + im**2).sum(axis=-1)), exponent)


def _which(k: int, n: int) -> str:
    return f" (Liouvillian {k} of a stack of {n})" if n > 1 else ""


def _hermitian_pairs(d: int) -> tuple[np.ndarray, ...]:
    """Orthonormal Hermitian B_k with vec(B_k) = a_k e_{p_k} + b_k e_{q_k}, for d x d matrices.

    E_ii (p = q, b = 0), then (E_ij + E_ji)/sqrt(2) and i (E_ij - E_ji)/sqrt(2)
    for i < j (p at (i, j), q at (j, i)): real coordinates give Hermitian matrices.
    """
    i, j = np.triu_indices(d, 1)
    diag, upper, lower, s = np.arange(d) * (d + 1), i + j * d, j + i * d, 1.0 / np.sqrt(2.0)
    p, q = np.concatenate([diag, upper, upper]), np.concatenate([diag, lower, lower])
    counts = [d, len(i), len(i)]
    return p, q, np.repeat([1.0, s, 1j * s], counts), np.repeat([0.0, s, -1j * s], counts)


def _from_coordinates(r: np.ndarray, d: int) -> np.ndarray:
    """vec of sum_k r_k B_k for each row r of an (N, d^2) array of real coordinates."""
    p, q, a, b = _hermitian_pairs(d)
    vecs = np.zeros(r.shape, dtype=complex)
    np.add.at(vecs.T, np.concatenate([p, q]), np.concatenate([a * r, b * r], axis=-1).T)
    return vecs


def _bordered(lm: np.ndarray, d: int) -> np.ndarray:
    """Re(U^dagger L U), vec(B_k) of _hermitian_pairs in column k of U, with row 0 set to Tr B_k.

    Row 0 is the first population's, redundant as the population rows of L
    sum to zero. Each entry is a +-sum of up to four real or imaginary parts
    of L's entries, scaled once by 1, 1/sqrt(2) or 1/2: scaling first would
    leave rounding of the largest entries (1e183 at zeta 1e200) where they cancel.
    """
    p, q, a, b = _hermitian_pairs(d)
    off = (b != 0).astype(int)
    a, b = a / abs(a), b / abs(a)  # 0, +-1 or +-i: multiplying by them is exact
    scale = np.array([1.0, 1.0 / np.sqrt(2.0), 0.5])  # |a_k a_l| by the off-diagonal units
    out = np.empty(lm.shape)
    for k in np.array_split(np.arange(lm.shape[-1]), max(1, lm.size // 2**14)):  # 256 kB temporaries
        half = a[k, None].conj() * lm[:, p[k]] + b[k, None].conj() * lm[:, q[k]]
        out[:, k] = (half[..., p] * a + half[..., q] * b).real * scale[off[k, None] + off]
    out[:, 0] = 1 - off
    return out


def _step_powers(increment: np.ndarray, count: int) -> np.ndarray:
    """X_j = P^j - I for j = 1..count, from X_1 = P - I, by X_{m+j} = X_m + X_j + X_m X_j.

    P^j itself is never formed, so no X_j is rounded against the identity.
    """
    powers = np.empty((count,) + increment.shape)
    powers[0] = increment
    done = 1
    while done < count:
        k = min(done, count - done)
        last = powers[done - 1]
        powers[done:done + k] = last + powers[:k] + last @ powers[:k]
        done += k
    return powers


def evolve(m: LindbladModel, rho0: DensityMatrix, t_final: float, dt: float = DEFAULT_DT,
           sample_every: int | None = None) -> tuple[np.ndarray, DensityMatrix, np.ndarray]:
    """Propagate rho0 with fixed-step fourth-order Runge-Kutta; return (steps, rho, drift).

    For the linear equation d vec(rho)/dt = L vec(rho), one RK4 step is
    exactly the matrix P = sum_{k<=4} (dt L)^k / k!. It is formed once, from
    one Liouvillian, and written in a real orthonormal basis of Hermitian
    matrices (_hermitian_pairs), so the state stays Hermitian by
    construction. The increment X_1 = P - I is kept apart from the identity:
    rounding P itself would move its fixed point by about 1e-16 / (dt * gap
    of L), 1e-12 at dt = 1e-3. From it, X_j = P^j - I for j = 1..STRIDE are
    formed by doubling (_step_powers), STRIDE d^4 floats. Only the anchors,
    every STRIDE-th state, are stepped in order, r_{(b+1)S} = r_{bS} +
    X_S r_{bS}; the states between are r_{bS+j} = r_{bS} + X_j r_{bS}, all
    of a stride from one matrix-vector product with the stacked X_j. So a
    state does not depend on the length of the run, and a run is a prefix of
    any longer one bit for bit. The states are formed STRIDE_BATCH strides
    at a time, so memory beyond the samples and the drift does not grow
    with the run. The trace of every step is checked and never
    renormalized; drift beyond DRIFT_ABORT, or a NaN trace, aborts the run
    at the first failing step. A spectral radius of P above
    1 + STABILITY_SLACK aborts it before the first step, as the drift shows
    a growing mode only after a growth of ~1e10. The run takes
    round(t_final / dt) steps, at least one when t_final > 0. ``steps`` is 0,
    k, 2k, ... and the last step for k = sample_every (0 and the last step for
    None or k beyond the run), ``rho`` the stack of the states there, rho0
    first, and ``drift`` |Tr rho - 1| after every step, step 0 first. RK4
    does not keep positivity: a sample that is not a density matrix (checked
    in one batch) raises an IntegrationError that names its t and dt.
    """
    if rho0.space.dims != m.space.dims:
        raise ValueError("initial state lives on a different space than the model")
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    a = dt * build_liouvillian(m).matrix
    d = m.space.dim
    n = d * d
    eye = np.eye(n)
    increment = a @ (eye + (a / 2) @ (eye + (a / 3) @ (eye + a / 4)))  # P - I
    u = _from_coordinates(eye, d).T  # column k is vec(B_k)
    increment = (u.conj().T @ increment @ u).real
    finite = np.isfinite(increment).all()  # a non-finite P is left to the trace check
    radius = np.abs(np.linalg.eigvals(eye + increment)).max() if finite else 1.0
    if radius > 1.0 + STABILITY_SLACK:
        raise IntegrationError(f"RK4 step spectral radius {radius:.6g} > 1; reduce dt below {dt:g}")
    r = (u.conj().T @ rho0.matrix.ravel(order="F")).real
    nsteps = max(1, int(round(t_final / dt))) if t_final > 0 else 0
    every = min(sample_every or nsteps, nsteps) or 1  # np.arange takes no step beyond int64
    steps = np.append(np.arange(0, nsteps, every), nsteps)
    samples = np.empty((len(steps), n))
    samples[0] = r
    drift = np.empty(nsteps + 1)
    drift[0] = abs(r[:d].sum() - 1.0)
    powers = _step_powers(increment, STRIDE).reshape(STRIDE * n, n)
    span = STRIDE * min(STRIDE_BATCH, nsteps // STRIDE + 1)  # steps per batch
    batch = np.empty((span // STRIDE, STRIDE, n))
    for start in range(0, nsteps, span):  # steps start + 1 .. stop
        stop = min(nsteps, start + span)
        for stride in batch[:(stop - start - 1) // STRIDE + 1]:  # the strides that reach stop
            np.matmul(powers, r, out=stride.reshape(-1))  # X_j r for j = 1..STRIDE
            stride += r
            r = stride[-1].copy()
        coords = batch.reshape(-1, n)[:stop - start]
        drift[start + 1:stop + 1] = abs(coords[:, :d].sum(axis=1) - 1.0)
        # "not <=" instead of ">" so a NaN trace (overflowed state) also aborts
        lost = ~(drift[start + 1:stop + 1] <= DRIFT_ABORT)
        if lost.any():
            step = start + 1 + int(np.argmax(lost))
            raise IntegrationError(
                f"trace drift {drift[step]:.3e} at t = {step * dt:.6g} exceeds "
                f"{DRIFT_ABORT:g}; reduce dt below {dt:g}"
            )
        first, last = np.searchsorted(steps, [start + 1, stop + 1])
        samples[first:last] = coords[steps[first:last] - start - 1]
    mats = _unvec(_from_coordinates(samples, d), d)  # elementwise, so row-independent
    try:
        return steps, DensityMatrix(m.space, mats), drift
    except InvalidStateError:  # a stable step can still overshoot a fast transient
        for step, mat in zip(steps, mats):  # the first failing sample, as in a run of one
            try:
                DensityMatrix(m.space, mat)
            except InvalidStateError as exc:
                raise IntegrationError(f"state at t = {step * dt:.6g} is not a density matrix "
                                       f"({exc}); reduce dt below {dt:g}") from exc
        raise
