"""Tests for the Liouvillian builder, steady-state solver, and integrator."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from polent.analytic import closed_form
from polent.lindblad import (
    DRIFT_ABORT,
    DegenerateSteadyStateError,
    IntegrationError,
    build_liouvillian,
    evolve,
    steady_state,
)
from polent.model import DimensionlessParams, LindbladModel, PhysicalParams, build_effective_model, build_full_model
from polent.qops import (
    IDENTITY_2,
    SIGMA_MINUS,
    TWO_QUBITS,
    DensityMatrix,
    HilbertSpace,
    trace_distance,
)

ONE_QUBIT = HilbertSpace((2,))


def ground_pair():
    m = np.zeros((4, 4), dtype=complex)
    m[3, 3] = 1.0
    return DensityMatrix(TWO_QUBITS, m)


def random_density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return m / np.trace(m)


def random_model(rng, space):
    d = space.dim
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    jumps = tuple(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(2))
    return LindbladModel(space, g + g.conj().T, jumps)


def rk4_reference(m, rho0, nsteps, dt):
    # the explicit four-stage step on vec(rho), re-symmetrized every step
    lm = build_liouvillian(m).matrix
    d = m.space.dim
    v = rho0.matrix.astype(complex).ravel(order="F")
    for _ in range(nsteps):
        k1 = lm @ v
        k2 = lm @ (v + (0.5 * dt) * k1)
        k3 = lm @ (v + (0.5 * dt) * k2)
        k4 = lm @ (v + dt * k3)
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        mat = v.reshape(d, d, order="F")
        v = (0.5 * (mat + mat.conj().T)).ravel(order="F")
    return v.reshape(d, d, order="F")


def test_liouvillian_zero_model():
    m = LindbladModel(ONE_QUBIT, np.zeros((2, 2)), ())
    lv = build_liouvillian(m)
    assert lv.matrix.shape == (4, 4)
    assert_allclose(lv.matrix, np.zeros((4, 4)), atol=1e-15)


def test_liouvillian_single_qubit_decay():
    # rho = |e><e| decays at rate 2: L vec(|e><e|) = 2 vec(|g><g| - |e><e|)
    m = LindbladModel(ONE_QUBIT, np.zeros((2, 2)), (np.sqrt(2) * SIGMA_MINUS,))
    lv = build_liouvillian(m).matrix
    vec_ee = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)  # column-stacked
    expected = 2.0 * np.array([-1.0, 0.0, 0.0, 1.0], dtype=complex)
    assert_allclose(lv @ vec_ee, expected, atol=1e-14)


def test_liouvillian_annihilates_trace():
    # Tr(L rho) = 0 for every rho, i.e. vec(I)^T L = 0
    rng = np.random.default_rng(2)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = g + g.conj().T
    j1 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = LindbladModel(TWO_QUBITS, h, (j1,))
    lv = build_liouvillian(m).matrix
    tr_vec = np.eye(4).reshape(-1, order="F")
    assert_allclose(tr_vec @ lv, np.zeros(16), atol=1e-12)


def test_liouvillian_preserves_hermiticity():
    rng = np.random.default_rng(9)
    m = build_effective_model(DimensionlessParams(3.0, 1.5, -0.5))
    lv = build_liouvillian(m).matrix
    for _ in range(20):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        herm = g + g.conj().T
        out = (lv @ herm.reshape(-1, order="F")).reshape(4, 4, order="F")
        assert_allclose(out, out.conj().T, atol=1e-12)


def test_steady_state_pure_decay():
    result = steady_state(build_liouvillian(build_effective_model(DimensionlessParams(0.0, 0.0))))
    expected = np.zeros((4, 4))
    expected[3, 3] = 1.0
    assert_allclose(result.rho.matrix, expected, atol=1e-12)
    assert result.residual <= 1e-9
    assert result.gap > 0


def test_steady_state_full_model_without_drive():
    p = PhysicalParams(j=1.0, delta=10.0, kappa=10.0, gamma=0.01, alpha=0.0, n_max=2)
    result = steady_state(build_liouvillian(build_full_model(p)))
    expected = np.zeros((12, 12))
    expected[3, 3] = 1.0  # |g g 0>
    assert_allclose(result.rho.matrix, expected, atol=1e-10)


def test_steady_state_matches_closed_form():
    rho_a = DensityMatrix(TWO_QUBITS, closed_form(10.0, 2.135)[0])
    result = steady_state(build_liouvillian(build_effective_model(DimensionlessParams(10.0, 2.135))))
    assert np.linalg.norm(rho_a.matrix - result.rho.matrix) <= 1e-9


def test_steady_state_qubit_swap_invariance():
    result = steady_state(build_liouvillian(build_effective_model(DimensionlessParams(7.0, 1.2))))
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float)
    m = result.rho.matrix
    assert_allclose(swap @ m @ swap, m, atol=1e-10)


def test_steady_state_degenerate_raises():
    # decay on qubit 1 only leaves qubit 2 free: a whole family of fixed points
    jump = np.sqrt(2) * np.kron(IDENTITY_2, SIGMA_MINUS)
    m = LindbladModel(TWO_QUBITS, np.zeros((4, 4)), (jump,))
    with pytest.raises(DegenerateSteadyStateError):
        steady_state(build_liouvillian(m))


def test_evolve_constant_under_zero_generator():
    m = LindbladModel(TWO_QUBITS, np.zeros((4, 4)), ())
    rng = np.random.default_rng(4)
    rho0 = DensityMatrix(TWO_QUBITS, random_density(rng, 4))
    out = evolve(m, rho0, t_final=1.0, dt=1e-2)
    assert_allclose(out.matrix, rho0.matrix, atol=1e-14)


def test_evolve_single_qubit_decay_curve():
    # d rho_ee / dt = -2 rho_ee, so rho_ee(t) = exp(-2 t)
    m = LindbladModel(ONE_QUBIT, np.zeros((2, 2)), (np.sqrt(2) * SIGMA_MINUS,))
    rho0 = DensityMatrix(ONE_QUBIT, np.diag([1.0, 0.0]))
    out = evolve(m, rho0, t_final=1.0, dt=1e-3)
    assert_allclose(out.matrix[0, 0].real, np.exp(-2.0), atol=1e-10)


def test_evolve_pair_decay_curve():
    # both qubits decaying: the doubly excited population falls as exp(-4 t)
    m = build_effective_model(DimensionlessParams(0.0, 0.0))
    rho0 = DensityMatrix(TWO_QUBITS, np.diag([1.0, 0.0, 0.0, 0.0]))
    out = evolve(m, rho0, t_final=1.0, dt=1e-3)
    assert_allclose(out.matrix[0, 0].real, np.exp(-4.0), atol=1e-10)


def test_evolve_relaxes_to_steady_state():
    m = build_effective_model(DimensionlessParams(10.0, 2.135))
    target = steady_state(build_liouvillian(m)).rho
    out = evolve(m, ground_pair(), t_final=20.0, dt=1e-3)
    assert trace_distance(out, target) <= 1e-6


def test_evolve_relaxes_from_random_states():
    m = build_effective_model(DimensionlessParams(5.0, 1.0))
    target = steady_state(build_liouvillian(m)).rho
    rng = np.random.default_rng(12)
    for _ in range(10):
        rho0 = DensityMatrix(TWO_QUBITS, random_density(rng, 4))
        out = evolve(m, rho0, t_final=50.0, dt=1e-2)
        assert trace_distance(out, target) <= 1e-6


def test_evolve_reports_drift_to_observer():
    m = build_effective_model(DimensionlessParams(10.0, 2.135))
    drifts = []
    times = []

    def observer(step, t, mat, drift):
        drifts.append(drift)
        times.append(t)

    evolve(m, ground_pair(), t_final=1.0, dt=1e-3, _observer=observer)
    assert len(drifts) == 1000
    assert max(drifts) <= 1e-8
    assert_allclose(times[-1], 1.0, atol=1e-12)


@pytest.mark.parametrize("space", [ONE_QUBIT, TWO_QUBITS], ids=["d2", "d4"])
def test_evolve_matches_the_four_stage_step(space):
    rng = np.random.default_rng(31 + space.dim)
    for _ in range(3):
        m = random_model(rng, space)
        rho0 = DensityMatrix(space, random_density(rng, space.dim))
        out = evolve(m, rho0, t_final=1.0, dt=1e-3)
        assert np.abs(out.matrix - rk4_reference(m, rho0, 1000, 1e-3)).max() <= 1e-12
        assert np.array_equal(out.matrix, out.matrix.conj().T)


def test_evolve_keeps_the_stationary_state():
    # P - I is stored apart from I: rounding P itself would move its fixed
    # point by ~1e-16 / (dt * gap), up to 2.6e-12 here after 20,000 steps
    for zeta, xi1 in ((10.0, 2.135), (5.0, 1.0), (2.0, 0.5)):
        rho = DensityMatrix(TWO_QUBITS, closed_form(zeta, xi1)[0])
        out = evolve(build_effective_model(DimensionlessParams(zeta, xi1)), rho, 20.0, 1e-3)
        assert np.abs(out.matrix - rho.matrix).max() <= 1e-14


def test_evolve_observer_cadence():
    m = build_effective_model(DimensionlessParams(10.0, 2.135))
    final = evolve(m, ground_pair(), t_final=1.0, dt=1e-2).matrix
    for every in (1, 7, 100, 250):
        seen = []
        evolve(m, ground_pair(), t_final=1.0, dt=1e-2,
               _observer=lambda step, t, mat, drift: seen.append((step, t, mat)), _every=every)
        expected = sorted(set(range(every, 101, every)) | {100})
        assert [step for step, _, _ in seen] == expected
        assert [t for _, t, _ in seen] == [step * 1e-2 for step in expected]
        assert np.array_equal(seen[-1][2], final)


def test_evolve_aborts_at_the_first_bad_step_even_when_unobserved():
    m = build_effective_model(DimensionlessParams(10.0, 2.135))
    drifts = []
    with pytest.raises(IntegrationError) as every_step:
        evolve(m, ground_pair(), t_final=20.0, dt=0.5,
               _observer=lambda step, t, mat, drift: drifts.append(drift))
    assert drifts and max(drifts) <= DRIFT_ABORT
    # the run stopped at the step after the last observed one
    assert f"at t = {(len(drifts) + 1) * 0.5:.6g} " in str(every_step.value)
    seen = []
    with pytest.raises(IntegrationError) as unobserved:
        evolve(m, ground_pair(), t_final=20.0, dt=0.5,
               _observer=lambda *args: seen.append(args), _every=1000)
    assert seen == []
    assert str(unobserved.value) == str(every_step.value)


def test_evolve_aborts_on_a_nan_trace():
    m = LindbladModel(ONE_QUBIT, np.nan * SIGMA_MINUS, ())
    rho0 = DensityMatrix(ONE_QUBIT, np.diag([1.0, 0.0]))
    with pytest.raises(IntegrationError, match=r"trace drift nan at t = 0\.1 "):
        evolve(m, rho0, t_final=1.0, dt=0.1)


def test_evolve_aborts_on_unstable_step():
    m = build_effective_model(DimensionlessParams(10.0, 2.135))
    with pytest.raises(IntegrationError):
        evolve(m, ground_pair(), t_final=20.0, dt=0.5)


def test_evolve_input_validation():
    m = build_effective_model(DimensionlessParams(1.0, 0.0))
    with pytest.raises(ValueError):
        evolve(m, ground_pair(), t_final=1.0, dt=0.0)
    one_qubit_state = DensityMatrix(ONE_QUBIT, np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        evolve(m, one_qubit_state, t_final=1.0)
