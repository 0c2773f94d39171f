"""Tests for the physical and reduced Lindblad model builders."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from polent.lindblad import build_liouvillian, steady_state
from polent.model import (
    DimensionlessParams,
    LindbladModel,
    PhysicalParams,
    adiabatic_amplitude,
    build_effective_model,
    build_full_model,
    map_physical,
    mode_lowering,
)
from polent.qops import IDENTITY_2, SIGMA_MINUS, TWO_QUBITS

PHYS = PhysicalParams(j=1.0, delta=10.0, kappa=10.0, gamma=0.01, alpha=0.5, n_max=4)


def test_physical_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(1.0, 10.0, 0.0, 0.01, 0.5)  # kappa must be positive
    with pytest.raises(ValueError):
        PhysicalParams(1.0, 10.0, 10.0, -0.01, 0.5)
    with pytest.raises(ValueError):
        PhysicalParams(1.0, 10.0, 10.0, 0.01, 0.5, n_max=0)


@pytest.mark.parametrize("field", ["j", "delta", "kappa", "gamma", "alpha"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, complex(0.5, np.inf)])
def test_physical_params_refuse_a_non_finite_rate(field, value):
    # named at construction, not as a numpy warning and a later "zeta must be finite"
    with np.errstate(all="raise"), pytest.raises(ValueError, match=f"^{field} must be finite, got "):
        PhysicalParams(**{**vars(PHYS), field: value})


@pytest.mark.parametrize("n_max", [2.5, 4.0, "4"])
def test_physical_params_refuse_a_cutoff_that_is_not_an_integer(n_max):
    # not the TypeError of building the mode's identity later
    with pytest.raises(ValueError, match=f"^n_max must be an integer, got {re.escape(repr(n_max))}$"):
        PhysicalParams(1.0, 10.0, 10.0, 0.01, 0.5, n_max=n_max)
    assert PhysicalParams(1.0, 10.0, 10.0, 0.01, 0.5, n_max=np.int64(4)).n_max == 4


def test_dimensionless_params_validation():
    with pytest.raises(ValueError):
        DimensionlessParams(np.inf, 0.0)
    with pytest.raises(ValueError):
        DimensionlessParams(0.0, np.nan)


def test_lindblad_model_refuses_operators_of_the_wrong_shape():
    with pytest.raises(ValueError, match=r"^Hamiltonian shape \(2, 2\) does not match dimension 4$"):
        LindbladModel(TWO_QUBITS, np.eye(2), ())
    with pytest.raises(ValueError, match=r"^jump shape \(4, 2\) does not match dimension 4$"):
        LindbladModel(TWO_QUBITS, np.eye(4), (np.eye(4), np.ones((4, 2))))
    # a stack is (N, d, d) on shared (d, d) jumps; any other rank or trailing shape is refused
    for shape in [(4,), (2, 3, 4, 4), (3, 4, 2), (3, 2, 4), ()]:
        with pytest.raises(ValueError, match=rf"^Hamiltonian shape {re.escape(str(shape))} does not match"):
            LindbladModel(TWO_QUBITS, np.zeros(shape), ())
    with pytest.raises(ValueError, match=r"^jump shape \(3, 4, 4\) does not match dimension 4$"):
        LindbladModel(TWO_QUBITS, np.zeros((3, 4, 4)), (np.zeros((3, 4, 4)),))
    assert LindbladModel(TWO_QUBITS, np.zeros((3, 4, 4)), (np.eye(4),)).hamiltonian.shape == (3, 4, 4)


def test_effective_model_stacks_on_broadcast_parameters():
    # a member of a stack is the model at its own point, bit for bit
    stack = build_effective_model(DimensionlessParams(np.array([10.0, -0.0, 1e3]), 2.135, [0.0, -0.5, 3.0]))
    assert stack.hamiltonian.shape == (3, 4, 4)
    for h, point in zip(stack.hamiltonian, [(10.0, 2.135, 0.0), (-0.0, 2.135, -0.5), (1e3, 2.135, 3.0)]):
        assert h.tobytes() == build_effective_model(DimensionlessParams(*point)).hamiltonian.tobytes()
    with pytest.raises(ValueError, match="^xi2 must be finite$"):
        DimensionlessParams([1.0, 2.0], 0.0, [0.0, np.inf])
    with pytest.raises(ValueError, match="cannot be broadcast"):
        DimensionlessParams([1.0, 2.0], [1.0, 2.0, 3.0])


def test_stacked_parameters_compare_by_identity_and_hash():
    # array fields make a field-wise == ambiguous and the fields unhashable, so
    # parameters compare and hash by identity, as LindbladModel and DensityMatrix do
    stack = DimensionlessParams(np.array([1.0, 2.0]), 0.5)
    same = DimensionlessParams(np.array([1.0, 2.0]), 0.5)
    assert stack == stack and stack != same
    assert hash(stack) != hash(same) and {stack: 1}[stack] == 1
    assert DimensionlessParams(1.0, 0.5) != DimensionlessParams(1.0, 0.5)


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


@pytest.mark.parametrize("n_max", [1, 2, 3, 4])
def test_adiabatic_amplitude_is_exact_up_to_the_top_fock_level(n_max):
    # d<a>/dt = 0: (Delta + i kappa) <a> = J <S K> + alpha <K>, K = 1 - (N+1) Pi_N
    rng = np.random.default_rng(1300 + n_max)
    eye2 = np.eye(2)
    s = np.kron(np.eye(n_max + 1), np.kron(eye2, SIGMA_MINUS) + np.kron(SIGMA_MINUS, eye2))
    fock = np.ones(n_max + 1)
    fock[-1] -= n_max + 1
    k = np.kron(np.diag(fock), np.eye(4))
    a = np.kron(mode_lowering(n_max), np.eye(4))
    for _ in range(5):
        alpha = 5 * rng.random() * np.exp(2j * np.pi * rng.random())
        p = PhysicalParams(1.0, rng.uniform(-10, 10), rng.uniform(5, 20), 0.01, alpha, n_max)
        rho = steady_state(build_liouvillian(build_full_model(p))).rho.matrix
        amp, sk, kk = (np.trace(rho @ op) for op in (a, s @ k, k))
        assert abs((p.delta + 1j * p.kappa) * amp - (p.j * sk + p.alpha * kk)) <= 1e-14
