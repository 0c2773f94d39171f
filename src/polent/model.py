"""Model builders: the driven two-qubit-plus-mode system and its reduced form.

The full model couples two lossy qubits symmetrically to one driven, lossy
bosonic mode. When the mode is fast (large kappa) it can be eliminated,
leaving a two-qubit model governed by a single hopping strength zeta and a
complex drive xi, with time measured in units of the inverse qubit decay rate.
The reduced model is built at one point or, from array parameters, at a stack
of points: a stack of Hamiltonians on shared jumps, one L each in build_liouvillian.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .qops import IDENTITY_2, SIGMA_MINUS, HilbertSpace, TWO_QUBITS


@dataclass(frozen=True)
class PhysicalParams:
    """Rates of the full model, all in units of one reference frequency.

    alpha is the complex product of the drive-to-mode coupling and the drive
    amplitude; n_max is the photon-number cutoff of the mode.
    """

    j: float
    delta: float
    kappa: float
    gamma: float
    alpha: complex
    n_max: int = 4

    def __post_init__(self):
        for name in ("j", "delta", "kappa", "gamma", "alpha"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.kappa > 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not isinstance(self.n_max, numbers.Integral):
            raise ValueError(f"n_max must be an integer, got {self.n_max!r}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")


@dataclass(frozen=True, eq=False)
class DimensionlessParams:
    """Reduced-model parameters: hopping zeta and drive xi = xi1 + i xi2, floats or broadcast arrays."""

    zeta: float | np.ndarray
    xi1: float | np.ndarray
    xi2: float | np.ndarray = 0.0

    def __post_init__(self):
        for name in ("zeta", "xi1", "xi2"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        np.broadcast_shapes(np.shape(self.zeta), np.shape(self.xi1), np.shape(self.xi2))  # ValueError if not


@dataclass(frozen=True, eq=False)
class LindbladModel:
    """Hamiltonian, (d, d) or a stack (N, d, d), plus shared (d, d) jump operators on a common space."""

    space: HilbertSpace
    hamiltonian: np.ndarray
    jumps: tuple[np.ndarray, ...]

    def __post_init__(self):
        d = self.space.dim
        h = np.array(self.hamiltonian, dtype=complex)
        if h.ndim not in (2, 3) or h.shape[-2:] != (d, d):
            raise ValueError(f"Hamiltonian shape {h.shape} does not match dimension {d}")
        js = tuple(np.array(j, dtype=complex) for j in self.jumps)
        for j in js:
            if j.shape != (d, d):
                raise ValueError(f"jump shape {j.shape} does not match dimension {d}")
            j.setflags(write=False)
        h.setflags(write=False)
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "jumps", js)


def _embed(op: np.ndarray, which: int, dims: tuple[int, ...]) -> np.ndarray:
    # subsystem 0 is the fastest index, so it sits last in the kron chain
    mats = [np.eye(d, dtype=complex) for d in dims]
    mats[which] = op
    out = mats[-1]
    for k in range(len(dims) - 2, -1, -1):
        out = np.kron(out, mats[k])
    return out


def mode_lowering(n_max: int) -> np.ndarray:
    """Annihilation operator of a mode truncated at n_max photons."""
    return np.diag(np.sqrt(np.arange(1, n_max + 1, dtype=float)), 1).astype(complex)


def build_full_model(p: PhysicalParams) -> LindbladModel:
    """Two qubits exchanging excitations with one driven, detuned, lossy mode.

    Subsystem order (qubit 1, qubit 2, mode). Jump operators are
    sqrt(2 gamma) sigma_j for each qubit and sqrt(2 kappa) a for the mode.
    """
    dims = (2, 2, p.n_max + 1)
    s1 = _embed(SIGMA_MINUS, 0, dims)
    s2 = _embed(SIGMA_MINUS, 1, dims)
    a = _embed(mode_lowering(p.n_max), 2, dims)
    ad = a.conj().T
    h = p.j * (s1 @ ad + s1.conj().T @ a + s2 @ ad + s2.conj().T @ a)
    h -= p.delta * (ad @ a)
    h += p.alpha * ad + np.conj(p.alpha) * a
    jumps = (
        math.sqrt(2 * p.gamma) * s1,
        math.sqrt(2 * p.gamma) * s2,
        math.sqrt(2 * p.kappa) * a,
    )
    return LindbladModel(HilbertSpace(dims), h, jumps)


def build_effective_model(d: DimensionlessParams) -> LindbladModel:
    """Reduced two-qubit model with unit qubit decay (jumps sqrt(2) sigma_j); a stack for arrays."""
    s1 = np.kron(IDENTITY_2, SIGMA_MINUS)
    s2 = np.kron(SIGMA_MINUS, IDENTITY_2)
    zeta, xi1, xi2 = (np.asarray(v, dtype=float)[..., None, None] for v in (d.zeta, d.xi1, d.xi2))
    xi = xi1 + 1j * xi2
    h = zeta * (s1 @ s2.conj().T + s1.conj().T @ s2)
    h = h + (xi * (s1.conj().T + s2.conj().T) + np.conj(xi) * (s1 + s2))
    jumps = (math.sqrt(2) * s1, math.sqrt(2) * s2)
    return LindbladModel(TWO_QUBITS, h, jumps)


def map_physical(p: PhysicalParams) -> DimensionlessParams:
    """Reduce physical rates: zeta = Re[J^2/(gamma(Delta+i kappa))], xi = alpha J/(gamma(Delta+i kappa))."""
    den = p.gamma * (p.delta + 1j * p.kappa)
    if den == 0:
        raise ZeroDivisionError("delta and kappa cannot both be zero")
    zeta = (p.j**2 / den).real
    xi = p.alpha * p.j / den
    return DimensionlessParams(zeta, xi.real, xi.imag)


def adiabatic_amplitude(sigma1_expect: complex, sigma2_expect: complex, p: PhysicalParams) -> complex:
    """(J (<sigma-_1> + <sigma-_2>) + alpha) / (Delta + i kappa): a full-model steady <a>.

    Exact up to the cutoff: d<a>/dt = 0 gives (Delta + i kappa) <a> = J <S K> + alpha <K>, with
    S = sigma-_1 + sigma-_2, K = 1 - (N+1) Pi_N and Pi_N the projector on the top Fock level N.
    So it cannot tell a wrong reduction; it measures only the cutoff and the solver error.
    """
    return (p.j * (sigma1_expect + sigma2_expect) + p.alpha) / (p.delta + 1j * p.kappa)
