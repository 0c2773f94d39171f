"""Tests for the closed-form steady state and the 16-equation system it solves."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from polent.analytic import (
    _IDX,
    _matrices,
    _vectors,
    closed_form,
    solve_linear_system,
    stationarity_residuals,
)
from polent.entangle import concurrence
from polent.lindblad import build_liouvillian, steady_state
from polent.model import DimensionlessParams, build_effective_model
from polent.qops import TWO_QUBITS, DensityMatrix, InvalidStateError

# real drives, the mirrored branch xi1 = 0, and drives at other phases
POINTS = [(0.0, 1.0, 0.0), (5.0, 1.0, 0.0), (10.0, 2.135, 0.0), (3.7, 0.9, 0.0), (0.0, 0.0, 0.0),
          (5.0, 0.0, 1.0), (10.0, 1.5, 1.5), (-4.0, 0.5, -0.25), (8.3, -3.6, 2.2)]


def params(**fields):
    """A 15-vector of the parametrization, zero where a field is not given."""
    v = np.zeros(15)
    for name, value in fields.items():
        v[_IDX[name]] = value
    return v


def test_closed_form_reference_point():
    # at zeta = 0, xi1 = 1 the normalization is (1 + 2)^2 = 9
    assert_allclose(
        _vectors(closed_form(0.0, 1.0)[0]),
        (
            1 / 9,            # a
            0.0, -1 / 9,      # b
            0.0, -1 / 9,      # c
            -1 / 9, 0.0,      # d
            2 / 9,            # e
            1 / 9, 0.0,       # f
            0.0, -2 / 9,      # g
            2 / 9,            # h
            0.0, -2 / 9,      # i
        ),
        atol=1e-15,
    )


def test_closed_form_populations():
    rho = closed_form(0.0, 1.0)[0]
    assert_allclose(rho.diagonal().real, [1 / 9, 2 / 9, 2 / 9, 4 / 9], atol=1e-15)


def test_to_density_matrix_layout():
    expected = np.array(
        [
            [1, -1j, -1j, -1],
            [1j, 2, 1, -2j],
            [1j, 1, 2, -2j],
            [-1, 2j, 2j, 4],
        ],
        dtype=complex,
    ) / 9
    rho = DensityMatrix(TWO_QUBITS, closed_form(0.0, 1.0)[0])
    assert_allclose(rho.matrix, expected, atol=1e-15)


def test_to_density_matrix_hermitian_completion():
    # the (gg, ge) entry is the conjugate of g1 + i g2
    v = _vectors(closed_form(4.0, 1.5)[0])
    m = _matrices(v)
    g1, g2 = v[_IDX["g1"]], v[_IDX["g2"]]
    assert_allclose(m[3, 1], g1 - 1j * g2, atol=1e-15)
    assert_allclose(m[1, 3], g1 + 1j * g2, atol=1e-15)
    assert_allclose(m, m.conj().T, atol=1e-15)


def test_parametrization_validation():
    # DensityMatrix rejects a negative population and populations beyond 1
    with pytest.raises(InvalidStateError):
        DensityMatrix(TWO_QUBITS, _matrices(params(a=-0.1)))
    with pytest.raises(InvalidStateError):
        DensityMatrix(TWO_QUBITS, _matrices(params(a=0.5, e=0.4, h=0.2)))


def test_to_density_matrix_rejects_indefinite_input():
    # an |ee><gg| coherence with no population behind it
    with pytest.raises(InvalidStateError):
        DensityMatrix(TWO_QUBITS, _matrices(params(d1=0.5)))


def test_zero_drive_gives_ground_state():
    rho = closed_form(5.0, 0.0)[0]
    assert_allclose(_vectors(rho), np.zeros(15), atol=1e-15)
    assert_allclose(rho.diagonal().real, [0, 0, 0, 1], atol=1e-15)


def test_closed_form_matches_linear_solver():
    for zeta, xi1, xi2 in POINTS:
        direct = _vectors(closed_form(zeta, xi1, xi2)[0])
        solved = _vectors(solve_linear_system(zeta, xi1, xi2))
        assert np.abs(direct - solved).max() <= 1e-12


def test_closed_form_residual_is_zero():
    zeta, xi1, xi2 = np.array(POINTS + [(5.0, 2.0, 0.0), (8.3, 3.6, 0.0)]).T
    assert stationarity_residuals(zeta, xi1, xi2, closed_form(zeta, xi1, xi2)).max() <= 1e-13


def test_solver_handles_imaginary_drive():
    # a drive along the other quadrature mirrors the real-drive solution
    mirrored = solve_linear_system(5.0, 0.0, 1.0)
    reference = closed_form(5.0, 1.0)[0]
    assert stationarity_residuals([5.0], [0.0], [1.0], mirrored[None])[0] <= 1e-13
    rho_m = DensityMatrix(TWO_QUBITS, mirrored)
    rho_r = DensityMatrix(TWO_QUBITS, reference)
    assert_allclose(rho_m.matrix.diagonal(), rho_r.matrix.diagonal(), atol=1e-12)
    assert abs(concurrence(rho_m) - concurrence(rho_r)) <= 1e-12


def test_numeric_steady_state_satisfies_equations():
    rho = steady_state(build_liouvillian(build_effective_model(DimensionlessParams(7.0, 1.3)))).rho
    assert stationarity_residuals([7.0], [1.3], [0.0], rho.matrix[None])[0] <= 1e-9


def test_from_matrix_roundtrip():
    v = _vectors(closed_form(6.0, 2.4)[0])
    assert_allclose(_vectors(_matrices(v)), v, atol=1e-15)


def test_qubit_exchange_symmetry():
    for xi2 in (0.0, -0.5):
        v = _vectors(closed_form(3.0, 2.0, xi2)[0])
        for one, two in (("b1", "c1"), ("b2", "c2"), ("e", "h"), ("g1", "i1"), ("g2", "i2")):
            assert v[_IDX[one]] == v[_IDX[two]]
