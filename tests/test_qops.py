"""Tests for the dense operator primitives."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from polent.qops import (
    IDENTITY_2,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    TWO_QUBITS,
    DensityMatrix,
    HilbertSpace,
    InvalidStateError,
    Operator,
    partial_trace,
    partial_transpose,
    trace_distance,
)

E = np.array([1.0, 0.0], dtype=complex)  # |e>, index 0
G = np.array([0.0, 1.0], dtype=complex)  # |g>, index 1
BELL = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2)  # (|ee> + |gg>)/sqrt(2)


def random_density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return m / np.trace(m)


def test_pauli_algebra():
    for s in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        assert_allclose(s @ s, IDENTITY_2, atol=1e-15)
    assert_allclose(SIGMA_X @ SIGMA_Y - SIGMA_Y @ SIGMA_X, 2j * SIGMA_Z, atol=1e-15)
    # ladder operators against the {|e>, |g>} ordering
    assert_allclose(SIGMA_MINUS @ E, G)
    assert_allclose(SIGMA_PLUS @ G, E)
    assert_allclose(SIGMA_Z @ E, E)
    assert_allclose(SIGMA_Z @ G, -G)


def test_constants_are_readonly():
    with pytest.raises(ValueError):
        SIGMA_X[0, 0] = 5.0


def test_hilbert_space():
    assert HilbertSpace((2, 3, 4)).dim == 24
    assert TWO_QUBITS.dims == (2, 2)
    with pytest.raises(ValueError):
        HilbertSpace((1, 2))
    with pytest.raises(ValueError):
        HilbertSpace(())


def test_kron_ordering():
    # subsystem 0 is fastest, so acting on qubit 1 alone puts the identity first
    on_qubit_1 = np.kron(IDENTITY_2, SIGMA_Z)
    on_qubit_2 = np.kron(SIGMA_Z, IDENTITY_2)
    assert_allclose(np.diag(on_qubit_1).real, [1, -1, 1, -1])
    assert_allclose(np.diag(on_qubit_2).real, [1, 1, -1, -1])


def test_operator_shape_validation():
    with pytest.raises(ValueError):
        Operator(HilbertSpace((2,)), np.eye(3))


def test_density_matrix_accepts_valid_states():
    rho = DensityMatrix(TWO_QUBITS, np.outer(BELL, BELL.conj()))
    assert rho.matrix.shape == (4, 4)
    assert not rho.matrix.flags.writeable


def test_density_matrix_rejects_bad_states():
    with pytest.raises(InvalidStateError):
        DensityMatrix(TWO_QUBITS, np.eye(2))  # wrong shape
    with pytest.raises(InvalidStateError):
        DensityMatrix(HilbertSpace((2,)), np.array([[0.5, 0.3], [0.0, 0.5]]))
    with pytest.raises(InvalidStateError):
        DensityMatrix(HilbertSpace((2,)), np.diag([0.6, 0.6]))
    with pytest.raises(InvalidStateError):
        DensityMatrix(TWO_QUBITS, np.diag([1.5, -0.5, 0.0, 0.0]))


def test_partial_transpose_involution_and_trace():
    rng = np.random.default_rng(7)
    rho = DensityMatrix(TWO_QUBITS, random_density(rng, 4))
    for sub in (0, 1):
        pt = partial_transpose(rho, sub)
        m = pt.matrix
        assert_allclose(m, m.conj().T, atol=1e-14)  # Hermiticity preserved
        assert_allclose(np.trace(m), 1.0, atol=1e-14)
        again = partial_transpose(pt, sub)
        assert_allclose(again.matrix, rho.matrix, atol=1e-15)


def test_partial_transpose_of_product_state():
    rng = np.random.default_rng(11)
    r1 = random_density(rng, 2)
    r2 = random_density(rng, 2)
    rho = DensityMatrix(TWO_QUBITS, np.kron(r2, r1))  # qubit 1 fast
    assert_allclose(partial_transpose(rho, 0).matrix, np.kron(r2, r1.T), atol=1e-15)
    assert_allclose(partial_transpose(rho, 1).matrix, np.kron(r2.T, r1), atol=1e-15)


def test_partial_transpose_bell_spectrum():
    rho = DensityMatrix(TWO_QUBITS, np.outer(BELL, BELL.conj()))
    w = np.linalg.eigvalsh(partial_transpose(rho, 1).matrix)
    assert_allclose(w, [-0.5, 0.5, 0.5, 0.5], atol=1e-14)


def test_partial_transpose_index_validation():
    rho = DensityMatrix(TWO_QUBITS, np.eye(4) / 4)
    with pytest.raises(ValueError):
        partial_transpose(rho, 2)


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(3)
    r1 = random_density(rng, 2)
    r2 = random_density(rng, 2)
    rho = DensityMatrix(TWO_QUBITS, np.kron(r2, r1))
    assert_allclose(partial_trace(rho, (0,)).matrix, r1, atol=1e-14)
    assert_allclose(partial_trace(rho, (1,)).matrix, r2, atol=1e-14)


def test_partial_trace_of_bell_state():
    rho = DensityMatrix(TWO_QUBITS, np.outer(BELL, BELL.conj()))
    for sub in (0, 1):
        assert_allclose(partial_trace(rho, (sub,)).matrix, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_three_subsystems():
    rng = np.random.default_rng(5)
    r1 = random_density(rng, 2)
    r2 = random_density(rng, 2)
    rm = random_density(rng, 3)
    space = HilbertSpace((2, 2, 3))
    rho = DensityMatrix(space, np.kron(rm, np.kron(r2, r1)))
    assert_allclose(partial_trace(rho, (0, 1)).matrix, np.kron(r2, r1), atol=1e-14)
    assert_allclose(partial_trace(rho, (2,)).matrix, rm, atol=1e-14)
    assert_allclose(partial_trace(rho, (1, 2)).matrix, np.kron(rm, r2), atol=1e-14)
    # keep order does not matter, kept axes stay in subsystem order
    assert_allclose(
        partial_trace(rho, (1, 0)).matrix, partial_trace(rho, (0, 1)).matrix, atol=1e-15
    )


def test_partial_trace_validation():
    rho = DensityMatrix(TWO_QUBITS, np.eye(4) / 4)
    with pytest.raises(ValueError):
        partial_trace(rho, ())
    with pytest.raises(ValueError):
        partial_trace(rho, (2,))


def test_trace_distance():
    ee = np.outer(E, E.conj())
    gg = np.outer(G, G.conj())
    assert trace_distance(ee, ee) == 0.0
    assert_allclose(trace_distance(ee, gg), 1.0, atol=1e-15)
    assert_allclose(trace_distance(ee, np.eye(2) / 2), 0.5, atol=1e-15)
    space = HilbertSpace((2,))
    a = DensityMatrix(space, ee)
    b = DensityMatrix(space, gg)
    assert_allclose(trace_distance(a, b), trace_distance(b, a), atol=1e-15)
