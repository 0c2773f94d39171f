"""Exact steady state of the reduced two-qubit model.

closed_form gives the stationary state at every complex drive
xi = xi1 + i xi2 as a stack of 4x4 Hermitian matrices, from one formula in
xi: the drive phase is a local gauge. Its stationarity is checked as
||L vec(rho)|| against the Liouvillian that lindblad builds from the model
(lindblad.stationarity_residuals), so the equation of motion is written
down once, in model.
"""

from __future__ import annotations

import numpy as np


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

    ee = x2 * x2 / d
    pop = (x2 + x2 * x2) / d
    ee_ge = parts(-1j * xi * x2)
    ge_gg = parts(-(z * xi + 1j * (xi + xi * x2)))
    m = np.zeros(d.shape + (4, 4), dtype=complex)
    m[:, 0, 0] = ee
    m[:, 1, 1] = m[:, 2, 2] = pop
    m[:, 3, 3] = 1.0 - ee - pop - pop
    m[:, 1, 2] = m[:, 2, 1] = x2 / d
    for r, c, (re, im) in ((0, 1, ee_ge), (0, 2, ee_ge), (1, 3, ge_gg), (2, 3, ge_gg),
                           (0, 3, parts(xi * xi * (-1.0 + 1j * z)))):
        # re - 1j im, not conj(), which flips the sign of a zero imaginary part; reports print it
        m[:, r, c] = re + 1j * im
        m[:, c, r] = re - 1j * im
    return m
