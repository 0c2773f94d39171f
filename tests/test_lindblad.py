"""Tests for the Liouvillian builder, steady-state solver, and integrator."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from polent import lindblad
from polent.analytic import closed_form
from polent.lindblad import (
    DegenerateSteadyStateError,
    IntegrationError,
    Liouvillian,
    build_liouvillian,
    effective_basis,
    effective_liouvillians,
    evolve,
    stationarity_residuals,
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


def evolve_final(*args, **kwargs):
    """The last state of an evolve run."""
    _, rho, _ = evolve(*args, **kwargs)
    return DensityMatrix(rho.space, rho.matrix[-1])


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


def dense_liouvillian(m):
    # the textbook assembly, one dense Kronecker product per term:
    # -i(I kron H - H^T kron I) + sum_j conj(J) kron J - 1/2 (I kron J^dag J + (J^dag J)^T kron I)
    h = m.hamiltonian
    eye = np.eye(h.shape[0], dtype=complex)
    mat = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for jump in m.jumps:
        jdj = jump.conj().T @ jump
        mat += np.kron(jump.conj(), jump)
        mat -= 0.5 * (np.kron(eye, jdj) + np.kron(jdj.T, eye))
    return mat


def random_jump(rng, d, kind):
    jump = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    if kind == "sparse":  # about one entry in three
        jump *= rng.random((d, d)) < 0.35
    elif kind == "explicit_zeros":  # dense storage with whole rows and a column of zeros
        jump[::2] = 0.0
        jump[:, -1] = 0.0
    return jump


def assert_matches_dense(m):
    lm, dense = build_liouvillian(m).matrix, dense_liouvillian(m)
    assert np.abs(lm - dense).max() <= 1e-15 * np.abs(dense).max()


@pytest.mark.parametrize("dims", [(2,), (3,), (2, 2), (5,), (2, 3)], ids=lambda dims: f"d{np.prod(dims)}")
@pytest.mark.parametrize("kinds", [(), ("dense",), ("sparse", "sparse"), ("explicit_zeros",),
                                   ("dense", "sparse", "explicit_zeros")],
                         ids=lambda kinds: "-".join(kinds) or "no_jumps")
def test_build_liouvillian_matches_the_dense_kronecker_formula(dims, kinds):
    space = HilbertSpace(dims)
    d = space.dim
    rng = np.random.default_rng([d, len(kinds)])
    for _ in range(3):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        assert_matches_dense(LindbladModel(space, g + g.conj().T,
                                           tuple(random_jump(rng, d, k) for k in kinds)))


@pytest.mark.parametrize("n_max", [1, 2, 3, 4])
def test_build_liouvillian_matches_the_dense_formula_on_full_models(n_max):
    p = PhysicalParams(j=1.3, delta=-7.0, kappa=4.0, gamma=0.02, alpha=0.6 - 0.45j, n_max=n_max)
    assert_matches_dense(build_full_model(p))


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


def test_stationarity_residuals_are_the_solver_residuals():
    zeta, xi1, xi2 = np.linspace(0.0, 10.0, 7), np.linspace(0.0, 4.0, 7), np.full(7, -0.3)
    liouv = effective_liouvillians(effective_basis(), zeta, xi1, xi2)
    result = steady_state(liouv)
    residuals = stationarity_residuals(liouv, result.rho.matrix)
    assert residuals.shape == (7,)
    assert residuals.tobytes() == result.residual.tobytes()
    # one Liouvillian takes one (d, d) state and gives a length-1 array
    single = build_liouvillian(build_effective_model(DimensionlessParams(10.0, 2.135)))
    one = steady_state(single)
    assert stationarity_residuals(single, one.rho.matrix)[0] == one.residual


def test_stationarity_residuals_reject_a_state_of_another_point():
    # the state at zeta = 5 against the Liouvillians at zeta = 5 and 10
    liouv = effective_liouvillians(effective_basis(), [5.0, 10.0], [2.135] * 2, [0.0] * 2)
    own, other = stationarity_residuals(liouv, closed_form([5.0] * 2, 2.135))
    assert own <= 1e-14
    assert other >= 1e-3


@pytest.mark.parametrize("scale", [1e3, 1e6, 1e9, 1e12])
def test_steady_state_does_not_depend_on_the_scale_of_l(scale):
    liouv = build_liouvillian(build_effective_model(DimensionlessParams(10.0, 2.135, 0.6)))
    scaled = Liouvillian(TWO_QUBITS, scale * liouv.matrix)
    assert np.abs(steady_state(scaled).rho.matrix - steady_state(liouv).rho.matrix).max() <= 1e-12


def test_steady_state_degenerate_raises():
    # decay on qubit 1 only leaves qubit 2 free: a whole family of fixed points
    jump = np.sqrt(2) * np.kron(IDENTITY_2, SIGMA_MINUS)
    m = LindbladModel(TWO_QUBITS, np.zeros((4, 4)), (jump,))
    with pytest.raises(DegenerateSteadyStateError):
        steady_state(build_liouvillian(m))


@pytest.mark.parametrize("hamiltonian", ["zero", "driven"])
def test_one_jump_free_liouvillian_is_degenerate(hamiltonian):
    # without jumps every eigenprojector of H is stationary; with H = 0 each
    # coordinate is a part of B's pattern of its own, and the first block
    # after the trace row is exactly singular: the level solve gives gap 0,
    # not a LinAlgError; steady_state inverts this side-144 L whole, B singular
    space = HilbertSpace((2, 2, 3))
    h = {"zero": np.zeros((12, 12)),
         "driven": build_full_model(PhysicalParams(1.0, 10.0, 20.0, 0.01, 0.5, n_max=2)).hamiltonian}
    liouv = build_liouvillian(LindbladModel(space, h[hamiltonian], ()))
    if hamiltonian == "zero":
        k, l, entries, largest = lindblad._real_form(liouv.matrix, 12)
        assert lindblad._solve_by_levels(k, l, entries[0], 12, largest[0])[1] == 0.0
    with pytest.raises(DegenerateSteadyStateError,
                       match=r"^stationary space is degenerate \(gap 0\.000e\+00 <= 1e-08\)$"):
        steady_state(liouv)


def test_levels_search_every_part_of_a_pattern_that_splits():
    # undriven, B's pattern falls apart: the search from coordinate 0 reaches
    # only part of it, and each other part gets levels of its own
    liouv = build_liouvillian(build_full_model(PhysicalParams(1.0, 10.0, 20.0, 0.01, 0.0, n_max=8)))
    d = liouv.space.dim
    k, l, entries, largest = lindblad._real_form(liouv.matrix, d)
    gap = lindblad._solve_by_levels(k, l, entries[0], d, largest[0])[1]
    keep = (k != 0) & (entries[0] != 0)  # B's pattern below the trace row, as the level route's
    k, l = k[keep], l[keep]
    level = lindblad._levels(k, l, d * d)
    assert np.abs(level[k] - level[l]).max() <= 1
    joined = np.zeros(level.max() + 1, dtype=bool)  # levels with an edge to the level before
    joined[np.maximum(level[k], level[l])[level[k] != level[l]]] = True
    assert (~joined[1:]).sum() >= 2
    single = steady_state(liouv)
    dense = steady_state(Liouvillian(liouv.space, liouv.matrix[None]))
    assert single.gap == gap  # the level route's own
    assert np.abs(single.rho.matrix - dense.rho.matrix[0]).max() <= 1e-12
    assert abs(single.gap / dense.gap[0] - 1) <= 1e-9


def dense_hermitian_basis(d):
    # column k is vec(B_k): E_ii, then (E_ij + E_ji)/sqrt(2), i (E_ij - E_ji)/sqrt(2) for i < j
    i, j = np.triu_indices(d, 1)
    s = 1.0 / np.sqrt(2.0)
    basis = np.zeros((d * d, d, d), dtype=complex)
    basis[np.arange(d), np.arange(d), np.arange(d)] = 1.0
    sym, anti = np.arange(d, d + len(i)), np.arange(d + len(i), d * d)
    basis[sym, i, j] = basis[sym, j, i] = s
    basis[anti, i, j], basis[anti, j, i] = 1j * s, -1j * s
    return basis.swapaxes(-1, -2).reshape(d * d, d * d).T


@pytest.mark.parametrize("d, count", [(2, 3), (4, 3), (12, 2)])
def test_bordered_system_is_l_in_the_hermitian_basis(d, count):
    n = d * d
    rng = np.random.default_rng(d)
    lm = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    u = dense_hermitian_basis(d)
    assert np.array_equal(lindblad._from_coordinates(np.eye(n), d).swapaxes(-1, -2).reshape(n, n).T, u)
    # the real form, gathered on the nonzero pattern: dense and sparse stacks,
    # one sparse L at a time, a stack with an all-zero member, an all-zero stack
    sparse = lm * (rng.random(lm.shape) < 0.2)
    for stack in (lm, sparse, *sparse, np.concatenate([sparse, np.zeros((1, n, n))]), 0 * lm):
        k, l, entries, largest = lindblad._real_form(stack, d)
        assert entries.dtype == float and entries.shape == (stack.size // n**2, len(k))
        dense = np.zeros((len(entries), n, n))
        dense[:, k, l] = entries
        assert np.abs(dense - (u.conj().T @ stack @ u).real).max() <= 1e-13
        assert np.array_equal(largest, np.abs(stack).reshape(-1, n * n).max(axis=-1))


@pytest.mark.parametrize("degenerate", ["zero", "one_qubit_decay"])
def test_degenerate_member_of_a_stack_is_named(degenerate):
    # the zero Liouvillian makes the bordered system exactly singular, which
    # inv refuses for the whole stack; one-qubit decay leaves a near-null pair
    good = build_liouvillian(build_effective_model(DimensionlessParams(10.0, 2.135))).matrix
    jump = np.sqrt(2) * np.kron(IDENTITY_2, SIGMA_MINUS)
    decay_one = LindbladModel(TWO_QUBITS, np.zeros((4, 4)), (jump,))
    bad = {"zero": np.zeros((16, 16)), "one_qubit_decay": build_liouvillian(decay_one).matrix}
    stack = Liouvillian(TWO_QUBITS, np.stack([good, good, bad[degenerate], good, bad[degenerate]]))
    with pytest.raises(DegenerateSteadyStateError, match=r"\(Liouvillian 2 of a stack of 5\)"):
        steady_state(stack)


# closed_form's D = zeta^2 + (1 + 2|xi|^2)^2 overflows at (zeta, xi1) = (1e200, 1e100);
# there |xi|^2 = zeta, D = 5 zeta^2: ee = ge = eg = 1/5, gg = 2/5 and rho_(ee,gg) = i/5
AT_1E200 = np.diag([0.2, 0.2, 0.2, 0.4]).astype(complex)
AT_1E200[0, 3], AT_1E200[3, 0] = 0.2j, -0.2j


@pytest.mark.parametrize("zeta, xi1, xi2, exact", [(1e200, 1e100, 0.0, AT_1E200),
                                                   (1e8, 1e20, 0.0, None),
                                                   (1e100, 1e50, -1e50, None)],
                         ids=["zeta_1e200", "zeta_1e8", "zeta_1e100"])
def test_steady_state_keeps_the_small_entries_at_extreme_scale(zeta, xi1, xi2, exact):
    # the decay entries are far below the largest ones (1e-200 of them at
    # zeta 1e200); one 16x16 L is inverted whole, as a stack of one, bit for bit
    liouv = build_liouvillian(build_effective_model(DimensionlessParams(zeta, xi1, xi2)))
    rho = steady_state(liouv).rho.matrix
    stacked = steady_state(Liouvillian(liouv.space, liouv.matrix[None])).rho.matrix[0]
    assert rho.tobytes() == stacked.tobytes()
    exact = closed_form(zeta, xi1, xi2)[0] if exact is None else exact
    assert np.abs(rho - exact).max() <= 1e-12


def test_a_liouvillian_below_the_level_side_is_inverted_whole():
    # side 64: the level solve cannot certify this L (gap 0), and one L this
    # small is a stack of one
    liouv = build_liouvillian(build_full_model(PhysicalParams(1.0, 10.0, 10.0, 0.01, 1e8, n_max=1)))
    d = liouv.space.dim
    k, l, entries, largest = lindblad._real_form(liouv.matrix, d)
    assert lindblad._solve_by_levels(k, l, entries[0], d, largest[0])[1] == 0.0
    single = steady_state(liouv)
    stacked = steady_state(Liouvillian(liouv.space, liouv.matrix[None]))
    assert single.rho.matrix.tobytes() == stacked.rho.matrix[0].tobytes()
    assert single.gap == stacked.gap[0]


def test_a_level_result_that_fails_its_checks_raises():
    # side 784 is solved by levels, whose gap is 5.5e-11 here; the whole
    # inverse would certify this L, but no second route takes over
    liouv = build_liouvillian(build_full_model(PhysicalParams(1.0, -1e4, 1e-3, 0.01, 1e8, n_max=6)))
    assert liouv.matrix.shape[-1] == lindblad.LEVEL_SIDE
    with pytest.raises(DegenerateSteadyStateError, match=r"^stationary space is degenerate"):
        steady_state(liouv)


def test_stationarity_residuals_scale_exactly_and_do_not_overflow():
    liouv = build_liouvillian(build_effective_model(DimensionlessParams(10.0, 2.135, 0.6)))
    ground = ground_pair().matrix
    res = stationarity_residuals(liouv, ground)[0]
    assert res > 1.0
    # the defect of 2^1000 L squares to inf; its norm must still be exact
    for k in (-1000, 500, 1000):
        scaled = Liouvillian(TWO_QUBITS, 2.0**k * liouv.matrix)
        assert stationarity_residuals(scaled, ground)[0] == np.ldexp(res, k)
    huge = stationarity_residuals(Liouvillian(TWO_QUBITS, 1e300 * liouv.matrix), ground)[0]
    assert np.isfinite(huge) and abs(huge / (1e300 * res) - 1.0) <= 1e-14


def _solve_peak(liouv):
    tracemalloc.start()
    try:
        steady_state(liouv)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_steady_state_memory_stays_near_one_matrix_above_l():
    # a stack's route needs the bordered real matrix and its inverse, 1.0
    # complex n^2 matrices; a complex inverse needed 3.0
    liouv = build_liouvillian(build_full_model(PhysicalParams(1.0, 10.0, 10.0, 0.01, 0.5, n_max=6)))
    n = liouv.matrix.shape[-1]
    assert _solve_peak(Liouvillian(liouv.space, liouv.matrix[None])) <= 1.5 * n * n * 16


def test_one_liouvillian_is_solved_below_one_real_matrix():
    # n_max 8, side n = 1296, one real n^2 array 13.4 MB: the level route
    # peaked at 11.2 MB (0.83 of it, numpy 2.4), the dense route, which a
    # stack of one takes, at 26.9 MB (2.00: B and B^-1), so it would fail
    liouv = build_liouvillian(build_full_model(PhysicalParams(1.0, 10.0, 10.0, 0.01, 0.5, n_max=8)))
    n = liouv.matrix.shape[-1]
    assert _solve_peak(liouv) < n * n * 8


def test_build_liouvillian_memory_stays_near_two_matrices():
    # the assembled matrix and the copy Liouvillian keeps, 2.0 complex n^2
    # matrices; summing dense Kronecker products needed 4.0
    model = build_full_model(PhysicalParams(1.0, 10.0, 10.0, 0.01, 0.5, n_max=6))
    n = model.space.dim**2
    tracemalloc.start()
    try:
        build_liouvillian(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * n * n * 16


def test_evolve_constant_under_zero_generator():
    m = LindbladModel(TWO_QUBITS, np.zeros((4, 4)), ())
    rng = np.random.default_rng(4)
    rho0 = DensityMatrix(TWO_QUBITS, random_density(rng, 4))
    out = evolve_final(m, rho0, t_final=1.0, dt=1e-2)
    assert_allclose(out.matrix, rho0.matrix, atol=1e-14)


def test_evolve_single_qubit_decay_curve():
    # d rho_ee / dt = -2 rho_ee, so rho_ee(t) = exp(-2 t)
    m = LindbladModel(ONE_QUBIT, np.zeros((2, 2)), (np.sqrt(2) * SIGMA_MINUS,))
    rho0 = DensityMatrix(ONE_QUBIT, np.diag([1.0, 0.0]))
    out = evolve_final(m, rho0, t_final=1.0, dt=1e-3)
    assert_allclose(out.matrix[0, 0].real, np.exp(-2.0), atol=1e-10)


def test_evolve_pair_decay_curve():
    # both qubits decaying: the doubly excited population falls as exp(-4 t)
    m = build_effective_model(DimensionlessParams(0.0, 0.0))
    rho0 = DensityMatrix(TWO_QUBITS, np.diag([1.0, 0.0, 0.0, 0.0]))
    out = evolve_final(m, rho0, t_final=1.0, dt=1e-3)
    assert_allclose(out.matrix[0, 0].real, np.exp(-4.0), atol=1e-10)


def test_evolve_relaxes_to_steady_state():
    m = build_effective_model(DimensionlessParams(10.0, 2.135))
    target = steady_state(build_liouvillian(m)).rho
    out = evolve_final(m, ground_pair(), t_final=20.0, dt=1e-3)
    assert trace_distance(out, target) <= 1e-6


def test_evolve_relaxes_from_random_states():
    m = build_effective_model(DimensionlessParams(5.0, 1.0))
    target = steady_state(build_liouvillian(m)).rho
    rng = np.random.default_rng(12)
    for _ in range(10):
        rho0 = DensityMatrix(TWO_QUBITS, random_density(rng, 4))
        out = evolve_final(m, rho0, t_final=50.0, dt=1e-2)
        assert trace_distance(out, target) <= 1e-6


def test_evolve_returns_the_drift_of_every_step():
    m = build_effective_model(DimensionlessParams(10.0, 2.135))
    steps, _, drifts = evolve(m, ground_pair(), t_final=1.0, dt=1e-3)
    assert len(drifts) == 1 + 1000  # step 0, then every step
    assert max(drifts) <= 1e-8
    assert_allclose(steps[-1] * 1e-3, 1.0, atol=1e-12)


@pytest.mark.parametrize("space", [ONE_QUBIT, TWO_QUBITS], ids=["d2", "d4"])
def test_evolve_matches_the_four_stage_step(space):
    rng = np.random.default_rng(31 + space.dim)
    for _ in range(3):
        m = random_model(rng, space)
        rho0 = DensityMatrix(space, random_density(rng, space.dim))
        out = evolve_final(m, rho0, t_final=1.0, dt=1e-3)
        assert np.abs(out.matrix - rk4_reference(m, rho0, 1000, 1e-3)).max() <= 1e-12
        assert np.array_equal(out.matrix, out.matrix.conj().T)


@pytest.mark.parametrize("space", [ONE_QUBIT, TWO_QUBITS], ids=["d2", "d4"])
@pytest.mark.parametrize("nsteps", [1, lindblad.STRIDE - 1, lindblad.STRIDE, lindblad.STRIDE + 1,
                                    3 * lindblad.STRIDE + 7])
def test_evolve_matches_the_four_stage_step_around_an_anchor(space, nsteps):
    # the last state is X_j applied to an anchor, for j = 1, S - 1, S (the
    # next anchor), 1 past an anchor and 7 past the third
    rng = np.random.default_rng([space.dim, nsteps])
    for _ in range(2):
        m = random_model(rng, space)
        rho0 = DensityMatrix(space, random_density(rng, space.dim))
        out = evolve_final(m, rho0, nsteps * 1e-3, 1e-3)
        assert np.abs(out.matrix - rk4_reference(m, rho0, nsteps, 1e-3)).max() <= 1e-12


@pytest.mark.parametrize("batch", [1, 10**6])
def test_evolve_does_not_depend_on_the_batch_size(monkeypatch, batch):
    # 10,000 steps: three batches of the default size, the last one partial
    m = build_effective_model(DimensionlessParams(10.0, 2.135))
    reference = evolve(m, ground_pair(), 10.0, 1e-3, sample_every=7)
    monkeypatch.setattr(lindblad, "STRIDE_BATCH", batch)
    steps, rho, drift = evolve(m, ground_pair(), 10.0, 1e-3, sample_every=7)
    assert np.array_equal(steps, reference[0])
    assert np.array_equal(rho.matrix, reference[1].matrix)
    assert np.array_equal(drift, reference[2])


def test_evolve_memory_does_not_grow_with_the_run():
    # only the drift array grows; the states are formed one batch at a time
    m = build_effective_model(DimensionlessParams(10.0, 2.135))
    peaks = []
    for nsteps in (50_000, 200_000):
        tracemalloc.start()
        try:
            evolve(m, ground_pair(), nsteps * 1e-3, 1e-3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= np.empty(200_001).nbytes


def test_evolve_names_the_first_step_whose_trace_drifts():
    # H = -i eps |e><e| drains the trace as exp(-2 eps t): the drift is
    # 0.99990e-6 at step 5555 and 1.00008e-6 at step 5556, inside the second
    # batch, between two anchors
    m = LindbladModel(ONE_QUBIT, -1j * 0.9e-7 * np.diag([1.0, 0.0]), ())
    rho0 = DensityMatrix(ONE_QUBIT, np.diag([1.0, 0.0]))
    with pytest.raises(IntegrationError, match=r"^trace drift 1\.000e-06 at t = 5\.556 exceeds 1e-06; "):
        evolve(m, rho0, 20.0, 1e-3)


def test_evolve_keeps_the_stationary_state():
    # P - I is stored apart from I: rounding P itself would move its fixed
    # point by ~1e-16 / (dt * gap), up to 2.6e-12 here after 20,000 steps
    for zeta, xi1 in ((10.0, 2.135), (5.0, 1.0), (2.0, 0.5)):
        rho = DensityMatrix(TWO_QUBITS, closed_form(zeta, xi1)[0])
        out = evolve_final(build_effective_model(DimensionlessParams(zeta, xi1)), rho, 20.0, 1e-3)
        assert np.abs(out.matrix - rho.matrix).max() <= 1e-14


def test_evolve_sample_cadence():
    # dt = 1e-3: every sample is validated, and at dt = 1e-2 the state at
    # t = 0.01 has an eigenvalue of -2.3e-8, below the PSD floor
    m = build_effective_model(DimensionlessParams(10.0, 2.135))
    final = evolve_final(m, ground_pair(), t_final=1.0, dt=1e-3).matrix
    for every in (1, 7, 100, 250):
        steps, rho, _ = evolve(m, ground_pair(), t_final=1.0, dt=1e-3, sample_every=every)
        expected = [0] + sorted(set(range(every, 1001, every)) | {1000})
        assert steps.tolist() == expected
        assert (steps * 1e-3).tolist() == [step * 1e-3 for step in expected]
        assert len(rho.matrix) == len(expected)
        assert np.array_equal(rho.matrix[-1], final)


def test_a_cadence_beyond_the_run_samples_its_ends():
    m = build_effective_model(DimensionlessParams(10.0, 2.135))
    steps, rho, drift = evolve(m, ground_pair(), t_final=1.0, dt=1e-3)
    for every in (1001, 2**63, 10**30):
        long_steps, long_rho, long_drift = evolve(m, ground_pair(), 1.0, 1e-3, sample_every=every)
        assert np.array_equal(long_steps, steps) and long_steps.dtype == steps.dtype
        assert np.array_equal(long_rho.matrix, rho.matrix)
        assert np.array_equal(long_drift, drift)


@pytest.mark.parametrize("every", [1, 7, 100, None])
def test_sampling_does_not_perturb_the_run(every):
    # dt = 2^-10 makes k dt / dt exactly k: the k-step run is a prefix of the long one
    m = build_effective_model(DimensionlessParams(10.0, 2.135))
    dt = 2.0**-10
    steps, rho, drifts = evolve(m, ground_pair(), 300 * dt, dt, sample_every=every)
    assert steps[-1] == 300
    for k, mat in zip(steps, rho.matrix):
        short_steps, short, short_drifts = evolve(m, ground_pair(), k * dt, dt)
        assert short_steps[-1] == k
        assert np.array_equal(mat, short.matrix[-1])
        assert np.array_equal(drifts[:k + 1], short_drifts)


def test_evolve_aborts_at_the_first_bad_step_even_when_unobserved():
    # dt = 0.5 is outside the stability region of RK4 here, so the run stops
    # before its first step, whatever its cadence
    m = build_effective_model(DimensionlessParams(10.0, 2.135))
    messages = []
    for every in (1, 1000):
        with pytest.raises(IntegrationError,
                           match=r"spectral radius \S+ > 1; reduce dt below 0\.5$") as exc:
            evolve(m, ground_pair(), t_final=20.0, dt=0.5, sample_every=every)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    # the stability edge lies between dt = 0.13 and 0.14 (spectral radius 1.27)
    evolve(m, ground_pair(), t_final=30.0, dt=0.13)
    with pytest.raises(IntegrationError, match=r"spectral radius 1\.27"):
        evolve(m, ground_pair(), t_final=30.0, dt=0.14)


def test_evolve_names_t_and_dt_when_a_state_is_not_a_density_matrix():
    # dt = 0.1 is inside RK4's stability region, but one step from the ground
    # state at (10, 2.135) overshoots to a negative eigenvalue
    m = build_effective_model(DimensionlessParams(10.0, 2.135))
    message = r"^state at t = 0\.1 is not a density matrix \(negative eigenvalue .*\); reduce dt below 0\.1$"
    with pytest.raises(IntegrationError, match=message):
        evolve(m, ground_pair(), t_final=0.1, dt=0.1)  # the final state
    with pytest.raises(IntegrationError, match=message):
        evolve(m, ground_pair(), t_final=30.0, dt=0.1, sample_every=1)


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
    # t_final = nan would take no step and inf never end; a cadence below 1 would skip rho0
    for t_final in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="t_final must be finite"):
            evolve(m, ground_pair(), t_final=t_final)
    for every in (0, -5):
        with pytest.raises(ValueError, match="sample_every must be at least 1"):
            evolve(m, ground_pair(), t_final=0.01, dt=1e-3, sample_every=every)
