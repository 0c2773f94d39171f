"""Tests for the physical and reduced Lindblad model builders."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from polent.model import (
    DimensionlessParams,
    PhysicalParams,
    adiabatic_amplitude,
    build_effective_model,
    build_full_model,
    dressed_energies,
    map_physical,
)
from polent.qops import IDENTITY_2, SIGMA_MINUS

PHYS = PhysicalParams(j=1.0, delta=10.0, kappa=10.0, gamma=0.01, alpha=0.5, n_max=4)


def test_physical_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(1.0, 10.0, 0.0, 0.01, 0.5)  # kappa must be positive
    with pytest.raises(ValueError):
        PhysicalParams(1.0, 10.0, 10.0, -0.01, 0.5)
    with pytest.raises(ValueError):
        PhysicalParams(1.0, 10.0, 10.0, 0.01, 0.5, n_max=0)


def test_dimensionless_params_validation():
    with pytest.raises(ValueError):
        DimensionlessParams(np.inf, 0.0)
    with pytest.raises(ValueError):
        DimensionlessParams(0.0, np.nan)


def test_dressed_energies():
    up, dn = dressed_energies(1, 2.0, 0.5)
    assert_allclose((up, dn), (2.5, 1.5))
    up, dn = dressed_energies(2, 2.0, 0.5)
    assert_allclose((up, dn), (4.0 + 0.5 * np.sqrt(2), 4.0 - 0.5 * np.sqrt(2)))
    with pytest.raises(ValueError):
        dressed_energies(0, 1.0, 1.0)


def test_full_model_shapes_and_hermiticity():
    m = build_full_model(PHYS)
    d = 4 * (PHYS.n_max + 1)
    assert m.space.dims == (2, 2, PHYS.n_max + 1)
    assert m.hamiltonian.shape == (d, d)
    assert_allclose(m.hamiltonian, m.hamiltonian.conj().T, atol=1e-14)
    assert len(m.jumps) == 3


def test_full_model_jump_rates():
    m = build_full_model(PHYS)
    nph = PHYS.n_max + 1
    s1 = np.kron(np.eye(nph), np.kron(IDENTITY_2, SIGMA_MINUS))
    assert_allclose(m.jumps[0], np.sqrt(2 * PHYS.gamma) * s1, atol=1e-15)
    lower = np.diag(np.sqrt(np.arange(1, nph)), 1)
    a = np.kron(lower, np.eye(4))
    assert_allclose(m.jumps[2], np.sqrt(2 * PHYS.kappa) * a, atol=1e-15)


def test_full_model_decoupled_is_diagonal():
    p = PhysicalParams(j=0.0, delta=3.0, kappa=1.0, gamma=1.0, alpha=0.0, n_max=3)
    m = build_full_model(p)
    # only the -Delta a+a term survives, diagonal in the number basis
    assert_allclose(m.hamiltonian, np.diag(np.diag(m.hamiltonian)), atol=1e-15)
    n = np.kron(np.diag(np.arange(4.0)), np.eye(4))
    assert_allclose(m.hamiltonian, -p.delta * n, atol=1e-15)


def test_full_model_single_excitation_block():
    # one excitation shared by (qubit 1, qubit 2, mode) couples as a 3-level
    # chain with eigenvalues {0, +/- sqrt(2) J} at zero detuning
    p = PhysicalParams(j=1.3, delta=0.0, kappa=1.0, gamma=1.0, alpha=0.0, n_max=1)
    h = build_full_model(p).hamiltonian
    idx = [2, 1, 7]  # |e g 0>, |g e 0>, |g g 1>
    block = h[np.ix_(idx, idx)]
    w = np.linalg.eigvalsh(block)
    assert_allclose(w, [-np.sqrt(2) * p.j, 0.0, np.sqrt(2) * p.j], atol=1e-12)


def test_full_model_conserves_excitations_without_drive():
    p = PhysicalParams(j=1.0, delta=2.0, kappa=1.0, gamma=1.0, alpha=0.0, n_max=3)
    m = build_full_model(p)
    nph = p.n_max + 1
    number_q = np.diag([1.0, 0.0])  # |e> counts as one excitation
    n_total = (
        np.kron(np.eye(nph), np.kron(IDENTITY_2, number_q))
        + np.kron(np.eye(nph), np.kron(number_q, IDENTITY_2))
        + np.kron(np.diag(np.arange(float(nph))), np.eye(4))
    )
    comm = m.hamiltonian @ n_total - n_total @ m.hamiltonian
    assert_allclose(comm, np.zeros_like(comm), atol=1e-13)


def test_full_model_qubit_swap_invariance():
    m = build_full_model(PHYS)
    nph = PHYS.n_max + 1
    swap2 = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float)
    swap = np.kron(np.eye(nph), swap2)
    assert_allclose(swap @ m.hamiltonian @ swap, m.hamiltonian, atol=1e-14)


def test_map_physical_values():
    d = map_physical(PHYS)
    # J^2/(gamma (Delta + i kappa)) = 1/(0.1 + 0.1i) = 5 - 5i
    assert_allclose(d.zeta, 5.0, atol=1e-12)
    assert_allclose((d.xi1, d.xi2), (2.5, -2.5), atol=1e-12)


def test_map_physical_scales_with_drive():
    base = map_physical(PHYS)
    double = map_physical(
        PhysicalParams(PHYS.j, PHYS.delta, PHYS.kappa, PHYS.gamma, 2 * PHYS.alpha, PHYS.n_max)
    )
    assert_allclose(double.zeta, base.zeta)
    assert_allclose((double.xi1, double.xi2), (2 * base.xi1, 2 * base.xi2))


def test_effective_model_structure():
    m = build_effective_model(DimensionlessParams(1.0, 0.0))
    assert m.space.dims == (2, 2)
    assert_allclose(m.hamiltonian, m.hamiltonian.conj().T, atol=1e-15)
    # pure exchange at zeta = 1: spectrum {-1, 0, 0, 1}
    assert_allclose(np.linalg.eigvalsh(m.hamiltonian), [-1.0, 0.0, 0.0, 1.0], atol=1e-14)
    s1 = np.kron(IDENTITY_2, SIGMA_MINUS)
    assert_allclose(m.jumps[0], np.sqrt(2) * s1, atol=1e-15)
    assert len(m.jumps) == 2


def test_effective_model_drive_terms():
    d = DimensionlessParams(0.0, 0.3, -0.7)
    m = build_effective_model(d)
    xi = d.xi1 + 1j * d.xi2
    s1 = np.kron(IDENTITY_2, SIGMA_MINUS)
    s2 = np.kron(SIGMA_MINUS, IDENTITY_2)
    expected = xi * (s1 + s2).conj().T + np.conj(xi) * (s1 + s2)
    assert_allclose(m.hamiltonian, expected, atol=1e-15)


def test_adiabatic_amplitude_formula():
    amp = adiabatic_amplitude(0.1 - 0.2j, 0.05 + 0.0j, PHYS)
    expected = (PHYS.j * (0.15 - 0.2j) + PHYS.alpha) / (PHYS.delta + 1j * PHYS.kappa)
    assert_allclose(amp, expected, atol=1e-15)
