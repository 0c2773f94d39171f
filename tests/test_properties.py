"""Property tests of the closed form over the whole drive plane (Hypothesis, derandomized)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from polent.analytic import closed_form, stationarity_residuals
from polent.entangle import concurrence, negativity
from polent.lindblad import effective_basis, effective_liouvillians, steady_state
from polent.qops import TWO_QUBITS, DensityMatrix

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)
BASIS = effective_basis()

zetas = st.floats(-1e3, 1e3)
# each drive component is exactly zero often, so both real axes are covered
components = st.just(0.0) | st.floats(-30.0, 30.0)
points = st.lists(st.tuples(zetas, components, components), min_size=1, max_size=16)


@SETTINGS
@given(points)
def test_closed_form_is_the_stationary_state(pts):
    zeta, xi1, xi2 = np.array(pts).T
    exact = closed_form(zeta, xi1, xi2)
    numeric = steady_state(effective_liouvillians(BASIS, zeta, xi1, xi2)).rho.matrix
    assert np.abs(exact - numeric).max() <= 1e-12
    assert stationarity_residuals(zeta, xi1, xi2, exact).max() <= 1e-12


@SETTINGS
@given(st.lists(st.tuples(zetas, st.floats(0.0, 30.0), st.floats(0.0, 2.0 * np.pi)),
                min_size=1, max_size=16))
def test_entanglement_depends_on_the_drive_modulus_only(pts):
    zeta, modulus, phase = np.array(pts).T
    turned = DensityMatrix(TWO_QUBITS, closed_form(zeta, modulus * np.cos(phase),
                                                   modulus * np.sin(phase)))
    real = DensityMatrix(TWO_QUBITS, closed_form(zeta, modulus))
    # the phase is the local gauge U = diag(e^{2i phase}, e^{i phase}, e^{i phase}, 1)
    u = np.exp(1j * phase[:, None] * np.array([2.0, 1.0, 1.0, 0.0]))
    gauged = u[:, :, None] * real.matrix * u.conj()[:, None, :]
    assert np.abs(turned.matrix - gauged).max() <= 1e-12
    assert np.abs(concurrence(turned) - concurrence(real)).max() <= 1e-12
    assert np.abs(negativity(turned) - negativity(real)).max() <= 1e-12
