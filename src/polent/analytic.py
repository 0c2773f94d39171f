"""Exact steady state of the reduced two-qubit model.

The density matrix is parametrized by 15 real numbers (populations A, E, H
and seven complex coherences split into real/imaginary parts), which
_matrices lays out as 4x4 Hermitian matrices. closed_form gives the
stationary state at every complex drive xi = xi1 + i xi2, from one formula
in xi: the drive phase is a local gauge. Its stationarity is checked as
||L vec(rho)|| against the Liouvillian that lindblad builds from the model
(lindblad.stationarity_residuals), so the equation of motion is written
down once, in model.
"""

from __future__ import annotations

import numpy as np

_FIELDS = ("a", "b1", "b2", "c1", "c2", "d1", "d2", "e", "f1", "f2", "g1", "g2", "h", "i1", "i2")
_IDX = {name: k for k, name in enumerate(_FIELDS)}

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
