"""Two-qubit entanglement: concurrence, negativity, and witness construction.

Pauli labels are ordered ("id", "x", "y", "z"); a coefficient array c[j, k]
refers to the operator (sigma^j on qubit 1) tensor (sigma^k on qubit 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qops import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityMatrix,
    Operator,
    eig_hermitian,
    kron,
    partial_transpose,
)

PAULI_LABELS = ("id", "x", "y", "z")
_PAULI = {"id": IDENTITY_2, "x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}

# conjugation matrix of the spin flip: sigma_y on both qubits, real antidiagonal
_FLIP = kron(SIGMA_Y, SIGMA_Y).real

# transpose the second qubit; either side gives the same spectrum
_PT_SIDE = 1

SAMPLING_SEED = 20260817
# a partial-transpose eigenvalue this close to zero is rounding residue, not
# detectable entanglement; witness construction treats it as separable
DETECTION_FLOOR = 1e-12
WITNESS_TOL = 1e-10
_TIE_TOL = 1e-12


class NotEntangledError(Exception):
    """Witness construction requires a state with a negative partial transpose."""


def pair_operator(label1: str, label2: str) -> np.ndarray:
    """Matrix of (sigma^label1 on qubit 1) tensor (sigma^label2 on qubit 2)."""
    return kron(_PAULI[label2], _PAULI[label1])  # qubit 1 is the fast index


@dataclass(frozen=True, eq=False)
class Witness:
    """Hermitian operator, negative on a target state, nonnegative on separables."""

    op: Operator
    coefficients: np.ndarray  # 4x4 real, indexed by PAULI_LABELS x PAULI_LABELS

    def __post_init__(self):
        c = np.array(self.coefficients, dtype=float)
        if c.shape != (4, 4):
            raise ValueError(f"coefficient array must be 4x4, got {c.shape}")
        m = self.op.matrix
        if np.linalg.norm(m - m.conj().T) > WITNESS_TOL:
            raise ValueError("witness operator is not Hermitian within tolerance")
        rebuilt = sum(
            c[j, k] * pair_operator(PAULI_LABELS[j], PAULI_LABELS[k])
            for j in range(4)
            for k in range(4)
        )
        if np.linalg.norm(rebuilt - m) > WITNESS_TOL:
            raise ValueError("coefficients do not reconstruct the operator")
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)

    def expectation(self, rho: DensityMatrix) -> float:
        return float(np.trace(self.op.matrix @ rho.matrix).real)


def spin_flip(rho: DensityMatrix) -> Operator:
    """The conjugated complex conjugate (sigma_y sigma_y) rho* (sigma_y sigma_y)."""
    if rho.space.dims != (2, 2):
        raise ValueError(f"spin flip is defined for two qubits, got dims {rho.space.dims}")
    return Operator(rho.space, _FLIP @ rho.matrix.conj() @ _FLIP)


def _check_two_qubits(rho: DensityMatrix, what: str) -> None:
    if rho.space.dims != (2, 2):
        raise ValueError(f"{what} is defined for two qubits, got dims {rho.space.dims}")


def _per_state(values: np.ndarray):
    # a float for one state, an array for a stack
    return float(values) if values.ndim == 0 else values


def concurrence(rho: DensityMatrix):
    """Wootters concurrence of a two-qubit state, or of each state in a stack.

    Uses the Hermitian route: rho = W W^dagger from the spectrum of rho
    (eigenvalues clipped at 0), tau = W^T (sigma_y sigma_y) W, and
    C = max(0, s1 - s2 - s3 - s4) over the descending singular values of
    tau, which are the square roots of the spectrum of rho rho~. Returns a
    float for one state and an array for a stack.
    """
    _check_two_qubits(rho, "concurrence")
    w, v = np.linalg.eigh(rho.matrix)
    roots = v * np.sqrt(np.maximum(w, 0.0))[..., None, :]
    tau = roots.swapaxes(-1, -2) @ (_FLIP @ roots)
    s = np.linalg.svd(tau, compute_uv=False)
    c = s[..., 0] - s[..., 1] - s[..., 2] - s[..., 3]
    return _per_state(np.clip(c, 0.0, 1.0) + 0.0)  # + 0.0 normalizes -0.0


def negativity(rho: DensityMatrix):
    """Total weight of the negative partial-transpose spectrum; 0 iff separable here.

    Returns a float for one state and an array for a stack.
    """
    _check_two_qubits(rho, "negativity")
    w = np.linalg.eigvalsh(partial_transpose(rho, _PT_SIDE).matrix)
    return _per_state(-np.minimum(w, 0.0).sum(axis=-1) + 0.0)  # + 0.0 normalizes -0.0 when PPT


def construct_witness(rho: DensityMatrix) -> Witness:
    """Witness from the most-negative partial-transpose eigenvector of rho.

    W is the partial transpose of that eigenvector's projector, so
    Tr[W rho] equals the negative eigenvalue and Tr[W sigma] >= 0 for every
    separable sigma. The projector normalization leaves the Frobenius norm
    of W at exactly 1. Ties in the bottom eigenvalue are broken toward the
    eigenvector with the largest |ee> overlap, then the phase is fixed by
    making the first nonzero component real-positive, for reproducibility.
    """
    w, v = eig_hermitian(partial_transpose(rho, _PT_SIDE))
    if w[0] >= -DETECTION_FLOOR:
        raise NotEntangledError(
            f"partial transpose has no negative eigenvalue (lowest {w[0]:.3e})"
        )
    ties = np.flatnonzero(w - w[0] < _TIE_TOL)
    eta = v[:, ties[np.argmax(np.abs(v[0, ties]))]]
    lead = np.flatnonzero(np.abs(eta) > _TIE_TOL)[0]
    eta = eta * (eta[lead].conj() / abs(eta[lead]))
    projector = DensityMatrix(rho.space, np.outer(eta, eta.conj()))
    op = partial_transpose(projector, _PT_SIDE)
    return Witness(op, pauli_decompose(op))


def pauli_decompose(w) -> np.ndarray:
    """Real coefficients c[j, k] = Tr[w (sigma^j tensor sigma^k)] / 4."""
    m = w if isinstance(w, np.ndarray) else w.matrix
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {m.shape}")
    if np.linalg.norm(m - m.conj().T) > WITNESS_TOL:
        raise ValueError("Pauli decomposition requires a Hermitian matrix")
    out = np.empty((4, 4))
    for j, lj in enumerate(PAULI_LABELS):
        for k, lk in enumerate(PAULI_LABELS):
            out[j, k] = np.trace(m @ pair_operator(lj, lk)).real / 4.0
    return out


def _bloch_pure(rng: np.random.Generator) -> np.ndarray:
    # uniform on the sphere: cos(theta) uniform in [-1, 1], phase uniform
    z = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * np.pi)
    return np.array([np.sqrt((1.0 + z) / 2.0), np.exp(1j * phi) * np.sqrt((1.0 - z) / 2.0)])


def _product_expectation(m: np.ndarray, rng: np.random.Generator) -> float:
    psi = np.kron(_bloch_pure(rng), _bloch_pure(rng))
    return float((psi.conj() @ (m @ psi)).real)


def separable_floor(
    w, n_pure: int = 10000, n_mixed: int = 1000, seed: int = SAMPLING_SEED
) -> float:
    """Minimum witness expectation over sampled separable states.

    Samples n_pure pure product states (Bloch-uniform on each qubit) plus
    n_mixed random convex pairs of fresh product states. Each sample draws
    from its own index-derived generator, so the result is independent of
    evaluation order.
    """
    m = w.op.matrix if isinstance(w, Witness) else (w if isinstance(w, np.ndarray) else w.matrix)
    floor = np.inf
    for i in range(n_pure):
        rng = np.random.default_rng([seed, i])
        floor = min(floor, _product_expectation(m, rng))
    for i in range(n_mixed):
        rng = np.random.default_rng([seed, n_pure + i])
        p = rng.uniform()
        val = p * _product_expectation(m, rng) + (1.0 - p) * _product_expectation(m, rng)
        floor = min(floor, val)
    return float(floor)
