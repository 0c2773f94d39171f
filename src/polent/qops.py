"""Dense operator primitives for small multipartite quantum systems.

Subsystems are indexed little-endian: subsystem 0 varies fastest in the
composite basis. With the single-qubit basis ordered {|e>, |g>} this makes
the two-qubit basis {|ee>, |ge>, |eg>, |gg>}, the first letter being qubit 1,
and an operator acting on qubit 1 alone is np.kron(identity, op). An operator
is a plain ndarray; DensityMatrix, the one wrapper, ties a validated state to
its HilbertSpace, and it is the one judge of a state: a failure raises
InvalidStateError, which names the failing state of a stack by ``index`` and
gives its own message as ``reason``.

Positivity is certified by one batched Cholesky factorization of each state
less PSD_FLOOR/2 times the identity: its backward error, about n^2 u (1e-14
at n = 28), is far inside the 5e-9 margin, so a block that factors needs no
spectrum, and only one that fails takes eigvalsh (DensityMatrix).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# validation tolerances for double precision at dimension <= a few hundred
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_FLOOR = -1e-8
# entries per block of DensityMatrix's check (4,096 states of 4x4): its
# temporaries follow the block, not the stack
CHECK_ELEMENTS = 1 << 16

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
    """A density-matrix invariant (shape, finiteness, Hermiticity, trace, positivity) failed.

    ``reason`` is the message the failing state gives on its own, and
    ``index`` its place in the stack (0 for one state, None for a shape
    error). The message adds "(state index of a stack of size)" for a stack.
    """

    def __init__(self, reason: str, index: int | None = None, size: int = 1):
        super().__init__(reason + (f" (state {index} of a stack of {size})" if size > 1 else ""))
        self.reason, self.index = reason, index


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


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated quantum state, or stack of states along the leading axis.

    Each state is Hermitian, has unit trace, and is positive within
    PSD_FLOOR. A stack is checked in blocks of CHECK_ELEMENTS entries, each
    in one batched pass; the error names the first failing state by its
    index in the whole stack (InvalidStateError.index), and its first
    failing check (InvalidStateError.reason), as the state alone would.

    Positivity is decided on the Hermitian part, sym, by one batched
    Cholesky factorization of sym - (PSD_FLOOR/2) I per block. If it
    succeeds, sym + dE - (PSD_FLOOR/2) I = L L^dagger for a backward error
    ||dE|| of about n^2 u ||sym||, about 1e-14 for a trace-1 state of side
    n <= 28 and 1e-11 at a few hundred (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., sec. 10.1). That is far below the margin
    |PSD_FLOOR|/2 = 5e-9, so lambda_min(sym) > PSD_FLOOR and eigvalsh
    would have passed every state of the block: the block needs no
    spectrum. If the factorization fails, or gives a factor that is not
    finite (sym near overflow), the block's eigvalsh decides, by
    the rule and with the message it always had. A state with a non-finite
    entry, one that is not Hermitian, or one whose trace is wrong fails
    with its own message first, in that order.

    The matrix is copied, unless it is a read-only complex ndarray that owns
    its data: that one is handed over and kept as it is, as evolve hands
    over its samples.
    """

    space: HilbertSpace
    matrix: np.ndarray

    def __post_init__(self):
        m, d = self.matrix, self.space.dim
        if not (type(m) is np.ndarray and m.dtype == complex and m.flags.owndata and not m.flags.writeable):
            m = np.array(m, dtype=complex)
        if m.ndim not in (2, 3) or m.shape[-2:] != (d, d):
            raise InvalidStateError(f"matrix shape {m.shape} does not match space dimension {d}")
        states = m.reshape((-1,) + m.shape[-2:])
        size = max(1, CHECK_ELEMENTS // (d * d))
        for start in range(0, len(states), size):
            failure = _first_failure(states[start:start + size])
            if failure:
                k, reason = failure
                raise InvalidStateError(reason, start + k, len(states))
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def _first_failure(states: np.ndarray) -> tuple[int, str] | None:
    """The first state of a block that is not a density matrix, and its first failing check."""
    finite_bad = ~np.isfinite(states).all(axis=(-2, -1))
    if finite_bad.any():  # zeroed: they fail first anyway, and inf - inf below would warn
        states = np.where(finite_bad[:, None, None], 0.0, states)
    herm = _frobenius(states - _dagger(states))
    tr = np.trace(states, axis1=-2, axis2=-1)
    # "not <=" so that NaN fails; a failed (maybe non-finite) state is not factored
    herm_bad = ~(herm <= HERMITICITY_TOL)
    trace_bad = ~(abs(tr - 1.0) <= TRACE_TOL)
    # halved before the sum, so entries near the largest float cannot overflow; else as 0.5 (a + b)
    sym = 0.5 * _dagger(states)
    sym += 0.5 * states
    sym[herm_bad] = 0.0
    bad = finite_bad | herm_bad | trace_bad
    try:
        if not np.isfinite(np.linalg.cholesky(sym - 0.5 * PSD_FLOOR * np.eye(states.shape[-1]))).all():
            raise np.linalg.LinAlgError  # a factor of inf or NaN, of a sym near overflow, certifies nothing
    except np.linalg.LinAlgError:  # some state may be below the floor: its spectrum decides
        lo = np.linalg.eigvalsh(sym)[:, 0]
        bad |= lo < PSD_FLOOR
    if not bad.any():
        return None
    k = int(np.argmax(bad))
    if finite_bad[k]:
        return k, "density matrix has non-finite entries"
    if herm_bad[k]:
        return k, "density matrix is not Hermitian within tolerance"
    if trace_bad[k]:
        imag = f"{tr[k].imag:+.17g}j" if tr[k].imag else ""
        return k, f"trace {tr[k].real:.17g}{imag} differs from 1 beyond tolerance"
    return k, f"negative eigenvalue {lo[k]:.3e} below the PSD floor"


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _frobenius(m: np.ndarray) -> np.ndarray:
    # elementwise squares and a sum over each matrix only, so that a state's
    # value does not depend on its position in the stack
    return np.sqrt((m.real**2 + m.imag**2).sum(axis=(-2, -1)))


def partial_transpose(rho: DensityMatrix, subsystem: int) -> np.ndarray:
    """Matrix of rho with the indices of one subsystem transposed, of one state or a stack.

    Preserves trace and Hermiticity exactly (index moves only); the result
    need not be positive, which is the point of the map.
    """
    return _partial_transpose(rho.matrix, rho.space.dims, subsystem)


def _partial_transpose(m: np.ndarray, dims: tuple[int, ...], subsystem: int) -> np.ndarray:
    """partial_transpose of the matrix or stack m on the space of dims, for a block of a state's stack."""
    n = len(dims)
    if not 0 <= subsystem < n:
        raise ValueError(f"subsystem index {subsystem} outside 0..{n - 1}")
    lead = m.shape[:-2]  # stack axes, if any
    rev = dims[::-1]
    t = m.reshape(lead + rev + rev)
    # axis of subsystem k: row block n-1-k, column block 2n-1-k, after the stack axes
    t = np.swapaxes(t, len(lead) + n - 1 - subsystem, len(lead) + 2 * n - 1 - subsystem)
    return t.reshape(m.shape)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every subsystem not listed in ``keep`` (indices, any order) of one state."""
    dims = rho.space.dims
    n = len(dims)
    kept = sorted({int(k) for k in keep})
    if not kept:
        raise ValueError("keep set must be nonempty")
    if kept[0] < 0 or kept[-1] >= n:
        raise ValueError(f"keep indices {kept} outside 0..{n - 1}")
    if rho.matrix.ndim > 2:
        raise ValueError(f"partial_trace takes one state, not a stack of {len(rho.matrix)}")
    rev = dims[::-1]
    t = rho.matrix.reshape(rev + rev)
    # subsystem k's row axis is label k, its column axis k + n if kept and k
    # (contracting the pair) if traced; the axes run from subsystem n - 1 down
    cols = [k + n if k in kept else k for k in range(n)]
    out = np.einsum(t, [*reversed(range(n)), *reversed(cols)],
                    [*reversed(kept), *(k + n for k in reversed(kept))])
    d = math.prod(dims[k] for k in kept)
    return DensityMatrix(HilbertSpace(tuple(dims[k] for k in kept)), out.reshape(d, d))


def trace_distance(a: DensityMatrix, b: DensityMatrix):
    """Half the trace norm of (a - b): a float for two states, one value per state for stacks.

    A stack is compared with one state or with a stack of its size; states
    on different spaces, or stacks of different sizes, raise ValueError.
    """
    stacks = [m.shape[0] for m in (a.matrix, b.matrix) if m.ndim == 3]
    if a.space.dims != b.space.dims or len(set(stacks)) > 1:
        raise ValueError(f"trace_distance compares states on one space, or stacks of one size: got dims "
                         f"{a.space.dims} shape {a.matrix.shape} and dims {b.space.dims} shape {b.matrix.shape}")
    diff = a.matrix - b.matrix
    diff = 0.5 * (diff + _dagger(diff))
    distance = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum(axis=-1)
    return float(distance) if distance.ndim == 0 else distance
