"""Property tests of the closed form and the command line (Hypothesis, derandomized)."""

import contextlib
import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stationarity_oracle import equation_residuals

from polent.analytic import closed_form
from polent.cli import main
from polent.entangle import concurrence, negativity
from polent.lindblad import (
    effective_basis,
    effective_liouvillians,
    stationarity_residuals,
    steady_state,
)
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
    liouv = effective_liouvillians(BASIS, zeta, xi1, xi2)
    assert np.abs(exact - steady_state(liouv).rho.matrix).max() <= 1e-12
    # the Liouvillian and the hand-written rows: two encodings of one equation
    assert stationarity_residuals(liouv, exact).max() <= 1e-12
    assert equation_residuals(zeta, xi1, xi2, exact).max() <= 1e-12


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


# every float, inf and NaN, and values at the scales where products overflow
magnitudes = st.floats() | st.builds(lambda m, s: m * s, st.floats(-10.0, 10.0),
                                     st.sampled_from([1e300, 1e-300, 1e200, 1e9]))
commands = st.sampled_from([["steady", "--solver=analytic"], ["steady", "--solver=numeric"],
                            ["steady", "--solver=both"], ["steady", "--solver=bogus"],
                            ["witness"]])


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(commands, magnitudes, magnitudes, magnitudes)
def test_every_argv_ends_in_a_documented_exit_code(command, zeta, xi1, xi2):
    argv = [*command, f"--zeta={zeta!r}", f"--xi1={xi1!r}", f"--xi2={xi2!r}"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 2, 3, 4)
