"""Exact steady state of the reduced two-qubit model.

The density matrix is parametrized by 15 real numbers (populations A, E, H
and seven complex coherences split into real/imaginary parts); stationarity
turns into 16 real linear equations in those 15 unknowns, one of which is
redundant. closed_form solves them at every complex drive xi = xi1 + i xi2,
from one formula in xi: the drive phase is a local gauge. The assembled
linear system (solve_linear_system) is the independent route it is checked
against, and it is in turn independent of the superoperator route in
lindblad.
"""

from __future__ import annotations

import numpy as np

SOLVE_RESIDUAL_TOL = 1e-10

_FIELDS = ("a", "b1", "b2", "c1", "c2", "d1", "d2", "e", "f1", "f2", "g1", "g2", "h", "i1", "i2")
_IDX = {name: k for k, name in enumerate(_FIELDS)}


class DegenerateSystemError(Exception):
    """The stationarity system lost rank or failed to reach a consistent solution."""


# (position, field) of the free populations, and (row, column, index of the
# real part) of the upper-triangle coherences; gg is 1 - a - e - h
_DIAGONAL = ((0, _IDX["a"]), (1, _IDX["e"]), (2, _IDX["h"]))
_UPPER = ((0, 1, _IDX["b1"]), (0, 2, _IDX["c1"]), (0, 3, _IDX["d1"]),
          (1, 2, _IDX["f1"]), (1, 3, _IDX["g1"]), (2, 3, _IDX["i1"]))


def _matrices(v) -> np.ndarray:
    """(..., 15) parameter vectors in _FIELDS order to (..., 4, 4) Hermitian matrices."""
    v = np.asarray(v, dtype=float)
    m = np.zeros(v.shape[:-1] + (4, 4), dtype=complex)
    for k, i in _DIAGONAL:
        m[..., k, k] = v[..., i]
    m[..., 3, 3] = 1.0 - v[..., _IDX["a"]] - v[..., _IDX["e"]] - v[..., _IDX["h"]]
    for r, c, i in _UPPER:
        m[..., r, c] = v[..., i] + 1j * v[..., i + 1]
        m[..., c, r] = v[..., i] - 1j * v[..., i + 1]
    return m


def _vectors(m: np.ndarray) -> np.ndarray:
    """Inverse of _matrices; drops the redundant gg entry."""
    v = np.empty(m.shape[:-2] + (15,))
    for k, i in _DIAGONAL:
        v[..., i] = m[..., k, k].real
    for r, c, i in _UPPER:
        v[..., i] = m[..., r, c].real
        v[..., i + 1] = m[..., r, c].imag
    return v


def closed_form(zeta, xi1, xi2=0.0) -> np.ndarray:
    """Exact steady states at arrays of (zeta, xi1, xi2) as an (N, 4, 4) stack, not validated.

    With xi = xi1 + i xi2, x2 = |xi|^2 and D = zeta^2 + (1 + 2 x2)^2, the
    entries times D are: ee x2^2; ge and eg x2 + x2^2; (ge, eg) x2;
    (ee, ge) and (ee, eg) -i xi x2; (ee, gg) xi^2 (-1 + i zeta); (ge, gg)
    and (eg, gg) -(zeta xi + i (xi + xi x2)). A drive phase phi is the
    local gauge diag(e^{2i phi}, e^{i phi}, e^{i phi}, 1), so every drive
    takes the same formula.
    """
    z, x1, y = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float))
                                     for v in (zeta, xi1, xi2)))
    xi = x1 + 1j * y
    x2 = x1 * x1 + y * y
    d = z * z + (1.0 + 2.0 * x2) * (1.0 + 2.0 * x2)

    def parts(numerator):
        # real and imaginary parts over the real D one by one: a complex
        # numerator / D multiplies by a reciprocal and is not bit for bit
        return numerator.real / d, numerator.imag / d

    pop = (x2 + x2 * x2) / d
    ee_ge = parts(-1j * xi * x2)
    ge_gg = parts(-(z * xi + 1j * (xi + xi * x2)))
    return _matrices(np.stack([
        x2 * x2 / d, *ee_ge, *ee_ge, *parts(xi * xi * (-1.0 + 1j * z)),
        pop, x2 / d, np.zeros_like(d), *ge_gg,
        pop, *ge_gg,
    ], axis=-1))


def _system(zeta: float, xi1: float, xi2: float) -> tuple[np.ndarray, np.ndarray]:
    """The 16x15 stationarity system M p = b.

    Row order follows the matrix entries whose time derivatives vanish:
    (11, Re 12, Im 12, Re 13, Im 13, Re 14, Im 14, 22, Re 23, Im 23,
    Re 24, Im 24, 33, Re 34, Im 34, 44). Shared verbatim by
    solve_linear_system and (split into its constant parts) the residuals,
    so a transcription slip cannot self-confirm against the independent
    closed form.
    """
    m = np.zeros((16, 15))
    b = np.zeros(16)

    def row(r, **terms):
        for name, coeff in terms.items():
            m[r, _IDX[name]] = coeff

    row(0, a=-4, b1=2 * xi2, b2=-2 * xi1, c1=2 * xi2, c2=-2 * xi1)
    row(1, a=-xi2, b1=-3, c2=-zeta, d1=xi2, d2=-xi1, e=xi2, f1=xi2, f2=-xi1)
    row(2, a=xi1, b2=-3, c1=zeta, d1=xi1, d2=xi2, e=-xi1, f1=-xi1, f2=-xi2)
    row(3, a=-xi2, b2=-zeta, c1=-3, d1=xi2, d2=-xi1, f1=xi2, f2=xi1, h=xi2)
    row(4, a=xi1, b1=zeta, c2=-3, d1=xi1, d2=xi2, f1=-xi1, f2=xi2, h=-xi1)
    row(5, b1=-xi2, b2=-xi1, c1=-xi2, c2=-xi1, d1=-2, g1=xi2, g2=xi1, i1=xi2, i2=xi1)
    row(6, b1=xi1, b2=-xi2, c1=xi1, c2=-xi2, d2=-2, g1=-xi1, g2=xi2, i1=-xi1, i2=xi2)
    row(7, a=2, b1=-2 * xi2, b2=2 * xi1, e=-2, f2=-2 * zeta, g1=2 * xi2, g2=-2 * xi1)
    row(8, b1=-xi2, b2=xi1, c1=-xi2, c2=xi1, f1=-2, g1=xi2, g2=-xi1, i1=xi2, i2=-xi1)
    row(9, b1=xi1, b2=xi2, c1=-xi1, c2=-xi2, e=zeta, f2=-2, g1=xi1, g2=xi2, h=-zeta,
        i1=-xi1, i2=-xi2)
    row(10, a=-xi2, c1=2, d1=-xi2, d2=xi1, e=-2 * xi2, f1=-xi2, f2=-xi1, g1=-1, h=-xi2,
        i2=zeta)
    row(11, a=xi1, c2=2, d1=-xi1, d2=-xi2, e=2 * xi1, f1=xi1, f2=-xi2, g2=-1, h=xi1,
        i1=-zeta)
    row(12, a=2, c1=-2 * xi2, c2=2 * xi1, f2=2 * zeta, h=-2, i1=2 * xi2, i2=-2 * xi1)
    row(13, a=-xi2, b1=2, d1=-xi2, d2=xi1, e=-xi2, f1=-xi2, f2=xi1, g2=zeta, h=-2 * xi2,
        i1=-1)
    row(14, a=xi1, b2=2, d1=-xi1, d2=-xi2, e=xi1, f1=xi1, f2=xi2, g1=-zeta, h=2 * xi1,
        i2=-1)
    row(15, e=2, g1=-2 * xi2, g2=2 * xi1, h=2, i1=-2 * xi2, i2=2 * xi1)

    # the drive enters inhomogeneously through the 24 and 34 coherences
    b[10] = -xi2
    b[11] = xi1
    b[13] = -xi2
    b[14] = xi1
    return m, b


def solve_linear_system(zeta: float, xi1: float, xi2: float) -> np.ndarray:
    """Least-squares solution of the 16-equation system as a 4x4 matrix, not validated.

    The system is consistent by construction. This is the independent
    reference route that closed_form is tested against.
    """
    m, b = _system(zeta, xi1, xi2)
    sol, _, rank, _ = np.linalg.lstsq(m, b, rcond=None)
    if rank < 15:
        raise DegenerateSystemError(f"stationarity system has rank {rank} < 15")
    defect = float(np.linalg.norm(m @ sol - b))
    if defect > SOLVE_RESIDUAL_TOL * max(1.0, float(np.linalg.norm(b))):
        raise DegenerateSystemError(f"inconsistent solve, residual {defect:.3e}")
    return _matrices(sol)


def _split_system() -> tuple[np.ndarray, ...]:
    # _system is affine in the parameters and each entry holds at most one of
    # them, so these constants reproduce it bit for bit (see _system_stack)
    m0, _ = _system(0.0, 0.0, 0.0)
    (mz, _), (mx1, bx1), (mx2, bx2) = (_system(*u) for u in ((1.0, 0, 0), (0, 1.0, 0), (0, 0, 1.0)))
    return m0, mz - m0, mx1 - m0, mx2 - m0, bx1, bx2


_SPLIT = _split_system()


def _system_stack(zeta, xi1, xi2) -> tuple[np.ndarray, np.ndarray]:
    """_system at arrays of points: M0 + zeta Mz + xi1 Mx1 + xi2 Mx2 and b = xi1 bx1 + xi2 bx2."""
    m0, mz, mx1, mx2, bx1, bx2 = _SPLIT
    z, x1, x2 = (np.asarray(v, dtype=float)[:, None] for v in (zeta, xi1, xi2))
    m = m0 + z[..., None] * mz + x1[..., None] * mx1 + x2[..., None] * mx2
    return m, x1 * bx1 + x2 * bx2


def stationarity_residuals(zeta, xi1, xi2, states: np.ndarray) -> np.ndarray:
    """Euclidean norm of all 16 stationarity equations for each state of an (N, 4, 4) stack."""
    m, b = _system_stack(zeta, xi1, xi2)
    r = (m @ _vectors(states)[..., None])[..., 0] - b
    return np.sqrt((r * r).sum(axis=-1))
