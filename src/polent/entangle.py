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
    partial_transpose,
)

PAULI_LABELS = ("id", "x", "y", "z")
_PAULI = {"id": IDENTITY_2, "x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}

# conjugation matrix of the spin flip: sigma_y on both qubits, real antidiagonal
_FLIP = np.kron(SIGMA_Y, SIGMA_Y).real

# transpose the second qubit; either side gives the same spectrum
_PT_SIDE = 1

SAMPLING_SEED = 20260817
# a partial-transpose eigenvalue this close to zero is rounding residue, not
# detectable entanglement; witness construction treats it as separable
DETECTION_FLOOR = 1e-12
WITNESS_TOL = 1e-10
_TIE_TOL = 1e-12
# separable samples drawn and evaluated at a time: temporaries stay near 100 kB
FLOOR_BLOCK = 1024


class NotEntangledError(Exception):
    """Witness construction requires a state with a negative partial transpose."""


def pair_operator(label1: str, label2: str) -> np.ndarray:
    """Matrix of (sigma^label1 on qubit 1) tensor (sigma^label2 on qubit 2)."""
    return np.kron(_PAULI[label2], _PAULI[label1])  # qubit 1 is the fast index


# the 16 Pauli pairs as one (4, 4, 4, 4) tensor: _PAIRS[j, k] = pair_operator(j, k)
_PAIRS = np.array([[pair_operator(a, b) for b in PAULI_LABELS] for a in PAULI_LABELS])
_PAIRS.setflags(write=False)


def _pauli_coefficients(m: np.ndarray) -> np.ndarray:
    # Re Tr[m P_jk] / 4, the coefficients of the Hermitian part of m
    return np.einsum("jkab,ba->jk", _PAIRS, m).real / 4.0


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
        rebuilt = np.einsum("jk,jkab->ab", c, _PAIRS)
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
    # the partial transpose of a validated state is exactly Hermitian
    w, v = np.linalg.eigh(partial_transpose(rho, _PT_SIDE).matrix)
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
    return _pauli_coefficients(m)


def _product_expectations(c: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Tr[W (a x b)] for the product states that the uniforms u (n, 4) pick.

    Each qubit takes cos(theta) = 2 u - 1 and phase 2 pi u' from its pair
    of uniforms, which is Bloch-uniform on the sphere. For Bloch vectors
    s = (1, s_x, s_y, s_z) of qubit 1 and t of qubit 2 the expectation is
    the real bilinear form s^T c t, with c the Pauli coefficients of W.
    """
    return np.einsum("nj,jk,nk->n", _bloch_vectors(u[:, :2]), c, _bloch_vectors(u[:, 2:]))


def _bloch_vectors(u: np.ndarray) -> np.ndarray:
    z = 2.0 * u[:, 0] - 1.0
    phi = 2.0 * np.pi * u[:, 1]
    radius = np.sqrt((1.0 - z) * (1.0 + z))
    return np.column_stack([np.ones_like(z), radius * np.cos(phi), radius * np.sin(phi), z])


def separable_floor(
    w, n_pure: int = 10000, n_mixed: int = 1000, seed: int = SAMPLING_SEED
) -> float:
    """Minimum witness expectation over sampled separable states.

    Samples n_pure pure product states (Bloch-uniform on each qubit) plus
    n_mixed random convex pairs of fresh product states, all drawn in order
    from one default_rng(seed), the pure samples first, so the result is
    deterministic. A product state's expectation is the real bilinear form
    of its two Bloch vectors with the Pauli coefficients of W
    (_product_expectations). Samples are drawn and evaluated FLOOR_BLOCK at
    a time, which bounds the temporaries and does not change the draws. For
    a matrix that is not Hermitian this is the floor of its Hermitian part.
    """
    m = w.op.matrix if isinstance(w, Witness) else (w if isinstance(w, np.ndarray) else w.matrix)
    c = _pauli_coefficients(m)
    rng = np.random.default_rng(seed)
    floor = np.inf
    for start in range(0, n_pure, FLOOR_BLOCK):
        u = rng.random((min(FLOOR_BLOCK, n_pure - start), 4))
        floor = min(floor, _product_expectations(c, u).min())
    for start in range(0, n_mixed, FLOOR_BLOCK):
        u = rng.random((min(FLOOR_BLOCK, n_mixed - start), 9))
        p = u[:, 0]
        mixed = p * _product_expectations(c, u[:, 1:5]) + (1.0 - p) * _product_expectations(
            c, u[:, 5:])
        floor = min(floor, mixed.min())
    return float(floor)
