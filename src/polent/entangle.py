"""Two-qubit entanglement: concurrence, negativity, and witness construction.

Pauli labels are ordered ("id", "x", "y", "z"); a coefficient array c[j, k]
refers to the operator (sigma^j on qubit 1) tensor (sigma^k on qubit 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qops
from .qops import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    TWO_QUBITS,
    DensityMatrix,
    partial_transpose,
)

PAULI_LABELS = ("id", "x", "y", "z")
_PAULI = {"id": IDENTITY_2, "x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}

# the spin flip sigma_y x sigma_y is real and antidiagonal: it reverses the rows of
# what it multiplies and signs them by its antidiagonal, (-1, 1, 1, -1)
_FLIP_SIGNS = np.fliplr(np.kron(SIGMA_Y, SIGMA_Y).real).diagonal()[:, None]

# transpose the second qubit; either side gives the same spectrum
_PT_SIDE = 1

SAMPLING_SEED = 20260817
# a partial-transpose eigenvalue this close to zero is rounding residue, not
# detectable entanglement; witness construction treats it as separable
DETECTION_FLOOR = 1e-12
WITNESS_TOL = 1e-10
# separable samples drawn and evaluated at a time: temporaries stay near 100 kB
FLOOR_BLOCK = 1024


class NotEntangledError(Exception):
    """Witness construction requires a state with a negative partial transpose."""


def pair_operator(label1: str, label2: str) -> np.ndarray:
    """Matrix of (sigma^label1 on qubit 1) tensor (sigma^label2 on qubit 2); a label not in PAULI_LABELS
    raises ValueError."""
    for label in (label1, label2):
        if label not in PAULI_LABELS:
            raise ValueError(f"Pauli label must be one of {PAULI_LABELS}, got {label!r}")
    return np.kron(_PAULI[label2], _PAULI[label1])  # qubit 1 is the fast index


# the 16 Pauli pairs as one (4, 4, 4, 4) tensor: _PAIRS[j, k] = pair_operator(j, k)
_PAIRS = np.array([[pair_operator(a, b) for b in PAULI_LABELS] for a in PAULI_LABELS])
_PAIRS.setflags(write=False)


def _pauli_coefficients(m: np.ndarray) -> np.ndarray:
    # Re Tr[m P_jk] / 4, the coefficients of the Hermitian part of m, of one matrix or a stack
    return np.einsum("jkab,...ba->...jk", _PAIRS, m).real / 4.0


@dataclass(frozen=True, eq=False)
class Witness:
    """W = sum c[j, k] sigma^j x sigma^k, negative on a target state, nonnegative on separables.

    Tr[W rho] is a sum of the local Pauli correlations of rho; the matrix W is never formed.
    """

    coefficients: np.ndarray  # 4x4 real, indexed by PAULI_LABELS x PAULI_LABELS

    def __post_init__(self):
        c = np.array(self.coefficients, dtype=float)
        if c.shape != (4, 4):
            raise ValueError(f"coefficient array must be 4x4, got {c.shape}")
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)

    def expectation(self, rho: DensityMatrix):
        # sum of c[j, k] <sigma^j x sigma^k>, a float for one state and an array for a stack
        _check_two_qubits(rho, "a witness expectation")
        return _per_state(4.0 * (self.coefficients * _pauli_coefficients(rho.matrix)).sum((-2, -1)))


def _check_two_qubits(rho: DensityMatrix, what: str) -> None:
    if rho.space.dims != (2, 2):
        raise ValueError(f"{what} is defined for two qubits, got dims {rho.space.dims}")


def _per_state(values: np.ndarray):
    # a float for one state, an array for a stack
    return float(values) if values.ndim == 0 else values


def _in_blocks(f, m: np.ndarray):
    """f of one state, or of a stack qops.CHECK_ELEMENTS entries at a time (read at each call), joined.

    f acts on each state alone, so the temporaries follow the block and the values do not.
    It gives one value per state, or rows of them, and the blocks join on the last axis.
    """
    if m.ndim == 2:
        return _per_state(f(m))
    size = max(1, qops.CHECK_ELEMENTS // (m.shape[-1] ** 2))
    return np.concatenate([f(m[start:start + size]) for start in range(0, max(len(m), 1), size)], axis=-1)


def concurrence(rho: DensityMatrix):
    """Wootters concurrence of a two-qubit state, or of each state in a stack.

    Takes any W with rho = W W^dagger, forms tau = W^T (sigma_y sigma_y) W,
    and returns C = max(0, s1 - s2 - s3 - s4) over the descending singular
    values of tau, the square roots of the spectrum of rho rho~, which no
    choice of W changes. W is the Cholesky factor of each state, built over
    the stack column by column (_cholesky), which is backward stable (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 10); a state with a
    pivot that is not positive, such as |gg>, a Bell state or most pure
    states, takes W from its spectrum instead, with the eigenvalues clipped
    at 0. Returns a float for one
    state and an array for a stack, evaluated 4,096 states
    (qops.CHECK_ELEMENTS entries) at a time, so memory follows the block.
    """
    _check_two_qubits(rho, "concurrence")
    return _in_blocks(_concurrence, rho.matrix)


def _cholesky(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower factors L with m = L L^dagger of a stack, and whether each state's pivots were all > 0.

    Read from the lower triangle, as eigh reads it. Every operation is
    elementwise over the stack, so a state's bits are its own whatever its
    neighbours; a state whose pivot fails gets a factor that is not used.
    """
    a = m.copy()
    factor = np.zeros_like(m)
    positive = np.ones(len(m), dtype=bool)
    for j in range(m.shape[-1]):
        pivot = a[:, j, j].real
        positive &= pivot > 0.0
        column = a[:, j:, j] * (1.0 / np.sqrt(np.where(positive, pivot, 1.0)))[:, None]
        factor[:, j:, j] = column
        a[:, j + 1:, j + 1:] -= column[:, 1:, None] * column[:, None, 1:].conj()
    return factor, positive


def _roots(m: np.ndarray) -> np.ndarray:
    """W with m = W W^dagger for each state of a stack.

    The state's Cholesky factor or, where a pivot is not positive, its
    eigenvectors times the square roots of its spectrum clipped at 0.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a failed pivot's factor is discarded
        roots, positive = _cholesky(m)
    if not positive.all():
        w, v = np.linalg.eigh(m[~positive])
        roots[~positive] = v * np.sqrt(np.maximum(w, 0.0))[..., None, :]
    return roots


def _concurrence(m: np.ndarray) -> np.ndarray:
    roots = _roots(m.reshape((-1,) + m.shape[-2:]))
    tau = roots.swapaxes(-1, -2) @ (roots[:, ::-1] * _FLIP_SIGNS)
    s = np.linalg.svd(tau, compute_uv=False)
    c = s[..., 0] - s[..., 1] - s[..., 2] - s[..., 3]
    return (np.clip(c, 0.0, 1.0) + 0.0).reshape(m.shape[:-2])  # + 0.0 normalizes -0.0


def entanglement(rho: DensityMatrix):
    """(concurrence, negativity) of a two-qubit state, or of each state in a stack, from one spectrum.

    The negativity is the total weight of the negative spectrum of the
    partial transpose rho^Gamma, 0 iff rho^Gamma is positive. For two qubits
    a positive partial transpose means separable (Horodecki, Horodecki &
    Horodecki, PLA 223, 1 (1996)), and a separable state has C = 0
    (Wootters, PRL 80, 2245 (1998)). So only a state whose lowest rho^Gamma
    eigenvalue lies below DETECTION_FLOOR takes concurrence's factor and
    singular values; every other state gets C = 0.0, the value concurrence
    gives it too, as there s1 - s2 - s3 - s4 <= -2 lambda_min(rho^Gamma).
    Returns two floats for one state and two arrays for a stack, evaluated
    in blocks as concurrence is.
    """
    _check_two_qubits(rho, "entanglement")
    c, n = _in_blocks(_entanglement, rho.matrix)
    return _per_state(c), _per_state(n)


def _entanglement(m: np.ndarray) -> np.ndarray:
    # row 0 the concurrence, row 1 the negativity, of one state or of each state of a stack
    states = m.reshape((-1,) + m.shape[-2:])
    w = np.linalg.eigvalsh(qops._partial_transpose(states, TWO_QUBITS.dims, _PT_SIDE))
    out = np.zeros((2, len(states)))
    out[1] = -np.minimum(w, 0.0).sum(axis=-1) + 0.0  # + 0.0 normalizes -0.0 when PPT
    detected = w[:, 0] < DETECTION_FLOOR  # not certified separable
    if detected.any():
        out[0, detected] = _concurrence(states[detected])
    return out.reshape((2,) + m.shape[:-2])


def construct_witness(rho: DensityMatrix) -> Witness:
    """W = (|eta><eta|)^{T_2}, eta the negative partial-transpose eigenvector of rho.

    Lewenstein, Kraus, Cirac & Horodecki, PRA 62, 052310 (2000): Tr[W rho] is that eigenvalue
    and ||W||_F = 1. eta is unique up to a phase, which the projector does not see: a two-qubit
    partial transpose has at most one negative eigenvalue (Sanpera, Tarrach & Vidal, PRA 58,
    826 (1998)). Tr[W a x b] = |<eta|a x conj(b)>|^2 >= 0, and some product vector is orthogonal
    to eta, so W's separable floor is exactly 0; separable_floor samples an upper estimate.
    """
    _check_two_qubits(rho, "construct_witness")
    if rho.matrix.ndim > 2:
        raise ValueError(f"construct_witness takes one state, not a stack of {len(rho.matrix)}")
    # the partial transpose of a validated state is exactly Hermitian
    w, v = np.linalg.eigh(partial_transpose(rho, _PT_SIDE))
    if w[0] >= -DETECTION_FLOOR:
        raise NotEntangledError(
            f"partial transpose has no negative eigenvalue (lowest {w[0]:.3e})"
        )
    projector = DensityMatrix(rho.space, np.outer(v[:, 0], v[:, 0].conj()))  # |eta><eta|
    return Witness(pauli_decompose(partial_transpose(projector, _PT_SIDE)))


def pauli_decompose(m: np.ndarray) -> np.ndarray:
    """Real coefficients c[j, k] = Tr[m (sigma^j tensor sigma^k)] / 4 of a Hermitian 4x4 m."""
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
    w: Witness, n_pure: int = 10000, n_mixed: int = 1000, seed: int = SAMPLING_SEED
) -> float:
    """Minimum witness expectation over sampled separable states.

    Samples n_pure pure product states (Bloch-uniform on each qubit) plus
    n_mixed random convex pairs of fresh product states, all drawn in order
    from one default_rng(seed), the pure samples first, so the result is
    deterministic. A product state's expectation is the real bilinear form
    of its two Bloch vectors with the Pauli coefficients of W
    (_product_expectations). Samples are drawn and evaluated FLOOR_BLOCK at
    a time, which bounds the temporaries and does not change the draws.
    """
    c = w.coefficients
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
