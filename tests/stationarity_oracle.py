"""The paper slice's 16 stationarity equations, typed by hand: a test oracle.

The rows below are written out from the master equation at epsilon = eta = 0
and share no code with polent, where the library derives the same equations
as the Liouvillian L. The tests check the closed form and the numeric route
against both encodings.

The unknowns are 15 real numbers: the populations a, e, h of ee, ge, eg and
the real/imaginary parts of the six upper-triangle coherences, in _FIELDS
order; gg is 1 - a - e - h. _matrices lays them out as 4x4 Hermitian
matrices and _vectors reads them back.
"""

import numpy as np

_FIELDS = ("a", "b1", "b2", "c1", "c2", "d1", "d2", "e", "f1", "f2", "g1", "g2", "h", "i1", "i2")
_IDX = {name: k for k, name in enumerate(_FIELDS)}

# (position, field) of the free populations, and (row, column, index of the
# real part) of the upper-triangle coherences
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
    """Inverse of _matrices; drops the redundant gg entry.

    A coherence's parts are those that re + 1j im and re - 1j im (in
    _matrices and in closed_form) were given, so _matrices rebuilds both
    entries bit for bit: both add 0 im - 0 to re, so a zero re shows its
    sign -0 in one entry only, and an im of -0 shows only as a re of -0
    above the diagonal.
    """
    v = np.empty(m.shape[:-2] + (15,))
    for k, i in _DIAGONAL:
        v[..., i] = m[..., k, k].real
    for r, c, i in _UPPER:
        upper, lower = m[..., r, c], m[..., c, r]
        negative = np.signbit(upper.real) | np.signbit(lower.real)
        v[..., i] = np.where(upper.real == 0, np.where(negative, -0.0, 0.0), upper.real)
        minus_zero = (upper.imag == 0) & (upper.real == 0) & np.signbit(upper.real)
        v[..., i + 1] = np.where(minus_zero, -0.0, upper.imag)
    return v


def _system(zeta: float, xi1: float, xi2: float) -> tuple[np.ndarray, np.ndarray]:
    """The 16x15 stationarity system M p = b.

    Row order follows the matrix entries whose time derivatives vanish:
    (11, Re 12, Im 12, Re 13, Im 13, Re 14, Im 14, 22, Re 23, Im 23,
    Re 24, Im 24, 33, Re 34, Im 34, 44). Shared by solve_linear_system
    and equation_residuals, so a transcription slip cannot self-confirm
    against the independent closed form.
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

    The system is consistent by construction; a rank or consistency failure
    fails the calling test.
    """
    m, b = _system(zeta, xi1, xi2)
    sol, _, rank, _ = np.linalg.lstsq(m, b, rcond=None)
    assert rank == 15, f"stationarity system has rank {rank} < 15"
    defect = float(np.linalg.norm(m @ sol - b))
    assert defect <= 1e-10 * max(1.0, float(np.linalg.norm(b))), (
        f"inconsistent solve, residual {defect:.3e}")
    return _matrices(sol)


def equation_residuals(zeta, xi1, xi2, states) -> np.ndarray:
    """Euclidean norm of all 16 equations for each state of an (N, 4, 4) stack, point by point."""
    residuals = []
    for z, x1, x2, v in zip(zeta, xi1, xi2, _vectors(np.asarray(states))):
        m, b = _system(z, x1, x2)
        residuals.append(np.linalg.norm(m @ v - b))
    return np.array(residuals)
