"""Dense operator primitives for small multipartite quantum systems.

Subsystems are indexed little-endian: subsystem 0 varies fastest in the
composite basis. With the single-qubit basis ordered {|e>, |g>} this makes
the two-qubit basis {|ee>, |ge>, |eg>, |gg>}, the first letter being qubit 1,
and an operator acting on qubit 1 alone is np.kron(identity, op).
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass

import numpy as np

# validation tolerances for double precision at dimension <= a few hundred
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_FLOOR = -1e-8

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)  # +1 on |e>
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)  # |g><e|
SIGMA_PLUS = np.array([[0, 1], [0, 0]], dtype=complex)  # |e><g|
for _m in (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, SIGMA_MINUS, SIGMA_PLUS):
    _m.setflags(write=False)
del _m


class InvalidStateError(Exception):
    """A density-matrix invariant (shape, Hermiticity, trace, positivity) failed."""


@dataclass(frozen=True)
class HilbertSpace:
    """Composite Hilbert space as a tuple of subsystem dimensions, fastest first."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 2 for d in dims):
            raise ValueError(f"subsystem dimensions must all be >= 2, got {dims!r}")
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)


TWO_QUBITS = HilbertSpace((2, 2))


def _as_matrix(op) -> np.ndarray:
    if isinstance(op, np.ndarray):
        return op
    return op.matrix


@dataclass(frozen=True, eq=False)
class Operator:
    """A square matrix tied to a HilbertSpace, or a stack of them; not required to be Hermitian."""

    space: HilbertSpace
    matrix: np.ndarray

    def __post_init__(self):
        m = _stack_of(self.matrix, self.space.dim, ValueError)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated quantum state, or stack of states along the leading axis.

    Each state is Hermitian, has unit trace, and is positive within
    PSD_FLOOR. A stack is checked in one batched pass; the error names the
    first failing state and its first failing check.
    """

    space: HilbertSpace
    matrix: np.ndarray

    def __post_init__(self):
        m = _stack_of(self.matrix, self.space.dim, InvalidStateError)
        states = m.reshape((-1,) + m.shape[-2:])
        herm = _frobenius(states - _dagger(states))
        tr = np.trace(states, axis1=-2, axis2=-1)
        # "not <=" so that NaN fails; a failed (maybe non-finite) state skips the spectrum
        herm_bad = ~(herm <= HERMITICITY_TOL)
        trace_bad = ~(abs(tr - 1.0) <= TRACE_TOL)
        sym = np.where(herm_bad[:, None, None], 0.0, 0.5 * (states + _dagger(states)))
        lo = np.linalg.eigvalsh(sym)[:, 0]
        bad = herm_bad | trace_bad | (lo < PSD_FLOOR)
        if bad.any():
            k = int(np.argmax(bad))
            if herm_bad[k]:
                message = "density matrix is not Hermitian within tolerance"
            elif trace_bad[k]:
                message = f"trace {tr[k]:.6g} differs from 1 beyond tolerance"
            else:
                message = f"negative eigenvalue {lo[k]:.3e} below the PSD floor"
            if len(states) > 1:
                message += f" (state {k} of a stack of {len(states)})"
            raise InvalidStateError(message)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def _stack_of(matrix, d: int, error: type[Exception]) -> np.ndarray:
    m = np.array(matrix, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-2:] != (d, d):
        raise error(f"matrix shape {m.shape} does not match space dimension {d}")
    return m


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _frobenius(m: np.ndarray) -> np.ndarray:
    # elementwise squares and a sum over each matrix only, so that a state's
    # value does not depend on its position in the stack
    return np.sqrt((m.real**2 + m.imag**2).sum(axis=(-2, -1)))


def partial_transpose(rho, subsystem: int) -> Operator:
    """Transpose the indices of one subsystem, of one operator or of a stack.

    Preserves trace and Hermiticity exactly (index moves plus conjugation);
    the result need not be positive, which is the point of the map.
    """
    space = rho.space
    dims = space.dims
    n = len(dims)
    if not 0 <= subsystem < n:
        raise ValueError(f"subsystem index {subsystem} outside 0..{n - 1}")
    m = _as_matrix(rho)
    lead = m.shape[:-2]  # stack axes, if any
    rev = dims[::-1]
    t = m.reshape(lead + rev + rev)
    # axis of subsystem k: row block n-1-k, column block 2n-1-k, after the stack axes
    t = np.swapaxes(t, len(lead) + n - 1 - subsystem, len(lead) + 2 * n - 1 - subsystem)
    return Operator(space, t.reshape(m.shape))


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every subsystem not listed in ``keep`` (indices, any order)."""
    dims = rho.space.dims
    n = len(dims)
    kept = sorted({int(k) for k in keep})
    if not kept:
        raise ValueError("keep set must be nonempty")
    if kept[0] < 0 or kept[-1] >= n:
        raise ValueError(f"keep indices {kept} outside 0..{n - 1}")
    rev = dims[::-1]
    t = _as_matrix(rho).reshape(rev + rev)
    letters = iter(string.ascii_lowercase)
    row, col = {}, {}
    for k in range(n):
        if k in kept:
            row[k] = next(letters)
            col[k] = next(letters)
        else:
            row[k] = col[k] = next(letters)  # repeated letter contracts the pair
    src = "".join(row[k] for k in reversed(range(n))) + "".join(col[k] for k in reversed(range(n)))
    dst = "".join(row[k] for k in reversed(kept)) + "".join(col[k] for k in reversed(kept))
    out = np.einsum(f"{src}->{dst}", t)
    d = math.prod(dims[k] for k in kept)
    return DensityMatrix(HilbertSpace(tuple(dims[k] for k in kept)), out.reshape(d, d))


def trace_distance(a, b) -> float:
    """Half the trace norm of (a - b) for Hermitian a, b."""
    diff = _as_matrix(a) - _as_matrix(b)
    diff = 0.5 * (diff + diff.conj().T)
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))
