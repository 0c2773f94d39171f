"""Tests for the Liouvillian builder, steady-state solver, and integrator."""

import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dense_round_trip import liouvillian_from_dense
from plain_inverse import plain_whole

from polent import lindblad, qops
from polent.analytic import closed_form
from polent.lindblad import (
    DegenerateSteadyStateError,
    IntegrationError,
    Liouvillian,
    build_liouvillian,
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


def evolve_final(m, *args, **kwargs):
    """The last state of an evolve run under m's Liouvillian."""
    _, rho, _ = evolve(build_liouvillian(m), *args, **kwargs)
    return DensityMatrix(rho.space, rho.matrix[-1])


def rk4_trajectory(m, rho0, dt):
    # the explicit four-stage step on vec(rho), re-symmetrized every step: the state after each step
    lm = build_liouvillian(m).matrix
    d = m.space.dim
    v = rho0.matrix.astype(complex).ravel(order="F")
    while True:
        k1 = lm @ v
        k2 = lm @ (v + (0.5 * dt) * k1)
        k3 = lm @ (v + (0.5 * dt) * k2)
        k4 = lm @ (v + dt * k3)
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        mat = v.reshape(d, d, order="F")
        v = (0.5 * (mat + mat.conj().T)).ravel(order="F")
        yield v.reshape(d, d, order="F")


def rk4_reference(m, rho0, nsteps, dt):
    state = rho0.matrix.astype(complex)
    for state, _ in zip(rk4_trajectory(m, rho0, dt), range(nsteps)):
        pass
    return state


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


def assert_triplet_form(liouv):
    # distinct positions in row-major order, each nonzero in some member, and
    # the dense round trip gives the same triplets back bit for bit
    n = liouv.space.dim**2
    assert (np.diff(liouv.rows * n + liouv.cols) > 0).all()
    assert (np.atleast_2d(liouv.values) != 0).any(axis=0).all()
    again = liouvillian_from_dense(liouv.space, liouv.matrix)
    for name in ("rows", "cols", "values"):
        assert getattr(again, name).tobytes() == getattr(liouv, name).tobytes()


def assert_matches_dense(m):
    liouv = build_liouvillian(m)
    lm, dense = liouv.matrix, dense_liouvillian(m)
    assert np.abs(lm - dense).max() <= 1e-15 * np.abs(dense).max()
    assert_triplet_form(liouv)


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


def effective_stack(zeta, xi1, xi2):
    return build_liouvillian(build_effective_model(DimensionlessParams(zeta, xi1, xi2)))


def test_effective_stacks_keep_their_triplet_form():
    # zeta = xi = 0 in every member: the hopping and drive positions hold
    # only zeros and leave the pattern, as they leave the dense pattern
    undriven = effective_stack([0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
    alone = build_liouvillian(build_effective_model(DimensionlessParams(0.0, 0.0)))
    assert undriven.values.shape == (2, len(alone.rows))
    assert np.array_equal(undriven.rows, alone.rows) and np.array_equal(undriven.cols, alone.cols)
    assert_triplet_form(undriven)
    assert_triplet_form(effective_stack([0.0, 10.0], [2.135, 0.0], [0.0, -0.5]))


def test_liouvillian_refuses_triplets_that_are_not_its_form():
    for rows, cols in (([1, 0], [0, 0]), ([0, 0], [1, 1]), ([0, 4], [0, 0])):
        with pytest.raises(ValueError, match="row-major order"):
            Liouvillian(ONE_QUBIT, rows, cols, [1.0, 1.0])
    with pytest.raises(ValueError, match="do not match"):
        Liouvillian(ONE_QUBIT, [0, 1], [0, 1], [1.0])


@pytest.mark.parametrize("dims", [(2,), (28,)], ids=["d2", "d28"])
def test_a_zero_generator_is_degenerate_with_zero_residual(dims):
    # no triplets at all, so every row of L is empty; side 784 takes the
    # level route and its nonzeros-only residual
    space = HilbertSpace(dims)
    d = space.dim
    liouv = build_liouvillian(LindbladModel(space, np.zeros((d, d)), ()))
    assert len(liouv.rows) == 0 and liouv.values.shape == (0,)
    rng = np.random.default_rng(d)
    assert stationarity_residuals(liouv, random_density(rng, d)).tolist() == [0.0]
    with pytest.raises(DegenerateSteadyStateError, match=r"^stationary space is degenerate"):
        steady_state(liouv)


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
    liouv = effective_stack(zeta, xi1, xi2)
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
    liouv = effective_stack([5.0, 10.0], 2.135, 0.0)
    own, other = stationarity_residuals(liouv, closed_form([5.0] * 2, 2.135))
    assert own <= 1e-14
    assert other >= 1e-3


@pytest.mark.parametrize("scale", [1e3, 1e6, 1e9, 1e12])
def test_steady_state_does_not_depend_on_the_scale_of_l(scale):
    liouv = build_liouvillian(build_effective_model(DimensionlessParams(10.0, 2.135, 0.6)))
    scaled = liouvillian_from_dense(TWO_QUBITS, scale * liouv.matrix)
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
        k, l, entries, largest = lindblad._real_form(liouv)
        assert lindblad._solve_by_levels(k, l, entries[0], liouv.space, largest[0])[1] == 0.0
    with pytest.raises(DegenerateSteadyStateError,
                       match=r"^stationary space is degenerate \(gap 0\.000e\+00 <= 1e-08\)$"):
        steady_state(liouv)


def test_levels_search_every_part_of_a_pattern_that_splits():
    # undriven, B's pattern falls apart: the search from coordinate 0 reaches
    # only part of it, and each other part gets levels of its own
    liouv = build_liouvillian(build_full_model(PhysicalParams(1.0, 10.0, 20.0, 0.01, 0.0, n_max=8)))
    d = liouv.space.dim
    k, l, entries, largest = lindblad._real_form(liouv)
    gap = lindblad._solve_by_levels(k, l, entries[0], liouv.space, largest[0])[1]
    keep = (k != 0) & (entries[0] != 0)  # B's pattern below the trace row, as the level route's
    k, l = k[keep], l[keep]
    level = lindblad._levels(k, l, d * d)
    assert np.abs(level[k] - level[l]).max() <= 1
    joined = np.zeros(level.max() + 1, dtype=bool)  # levels with an edge to the level before
    joined[np.maximum(level[k], level[l])[level[k] != level[l]]] = True
    assert (~joined[1:]).sum() >= 2
    single = steady_state(liouv)
    dense = steady_state(liouvillian_from_dense(liouv.space, liouv.matrix[None]))
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
        liouv = liouvillian_from_dense(HilbertSpace((d,)), stack)
        k, l, entries, largest = lindblad._real_form(liouv)
        assert entries.dtype == float and entries.shape == (stack.size // n**2, len(k))
        dense = np.zeros((len(entries), n, n))
        dense[:, k, l] = entries
        assert np.abs(dense - (u.conj().T @ stack @ u).real).max() <= 1e-13
        assert np.array_equal(largest, np.abs(stack).reshape(-1, n * n).max(axis=-1))


def vec_exchange(space):
    # the swap of subsystems 0 and 1 on vec indices: entry (i, j) goes to
    # (swap i, swap j), subsystem 0 fastest; the identity with one subsystem
    # or dims[0] != dims[1]
    d, dims = space.dim, space.dims
    swap = np.arange(d)
    if len(dims) > 1 and dims[0] == dims[1]:
        swap = swap.reshape(-1, dims[0], dims[0]).swapaxes(1, 2).ravel()
    return (swap[:, None] + d * swap[None, :]).ravel(order="F")


def exchange_sectors(space):
    # the swap's eigenvalue on each column of O: +1 at the first coordinate of
    # an orbit k < pi(k), -1 at the second, and a fixed coordinate's sign
    image, sign = lindblad._exchange(space)
    k = np.arange(len(image))
    return np.where(k < image, 1.0, np.where(k > image, -1.0, sign))


def dense_exchange_basis(space):
    # O: the even (e_k + s e_pi(k))/sqrt(2) at k and the odd (e_k - s e_pi(k))/sqrt(2)
    # at pi(k) for each orbit k < pi(k), and e_k for a fixed k
    image, sign = lindblad._exchange(space)
    k = np.arange(len(image))
    low, high = np.minimum(k, image), np.maximum(k, image)
    first, paired = k == low, k != image
    o = np.zeros((len(k), len(k)))
    o[k, low] = np.where(first, 1.0, sign)
    o[k[paired], high[paired]] = np.where(first, 1.0, -sign)[paired]
    o[paired] /= np.sqrt(2.0)
    return o


@pytest.mark.parametrize("dims, even", [((2, 2, 3), 90), ((3, 3), 45), ((2, 2), 10), ((2, 3), 36), ((5,), 25)])
def test_the_exchange_basis_splits_the_exchange(dims, even):
    # _exchange is the swap of subsystems 0 and 1 in the Hermitian basis (the
    # identity for dims[0] != dims[1] or one subsystem), O^T X O is diagonal,
    # +-1, and _to_exchange_basis gives O^T B O for any B
    space = HilbertSpace(dims)
    d, n = space.dim, space.dim**2
    u = dense_hermitian_basis(d)
    exchange = (u.conj().T @ u[np.argsort(vec_exchange(space))]).real
    image, sign = lindblad._exchange(space)
    signed = np.zeros((n, n))
    signed[image, np.arange(n)] = sign
    assert np.abs(exchange - signed).max() <= 1e-15
    o, sectors = dense_exchange_basis(space), exchange_sectors(space)
    assert np.abs(o.T @ o - np.eye(n)).max() <= 1e-15
    assert np.abs(o.T @ exchange @ o - np.diag(sectors)).max() <= 1e-15
    assert (sectors > 0).sum() == even and sectors[0] == 1.0
    rng = np.random.default_rng(n)
    b = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.1)
    k, l = np.nonzero(b)
    k, l, values = lindblad._to_exchange_basis(k, l, b[k, l], space)
    rotated = np.zeros((n, n))
    rotated[k, l] = values
    assert np.abs(rotated - o.T @ b @ o).max() <= 1e-14


@pytest.mark.parametrize("alpha, delta", [(0.3 - 0.8j, -3.0), (-1.1 + 0.4j, -12.0)])
def test_the_full_model_commutes_with_the_exchange_bit_for_bit(alpha, delta):
    # swapping the two qubits maps every entry of L onto an entry with the
    # same bits; the level route's two sectors rest on this
    liouv = build_liouvillian(build_full_model(PhysicalParams(0.7, delta, 5.0, 0.2, alpha, n_max=6)))
    n = liouv.space.dim**2
    vec = vec_exchange(liouv.space)
    keys = vec[liouv.rows] * n + vec[liouv.cols]
    order = np.argsort(keys)
    assert np.array_equal(keys[order], liouv.rows * n + liouv.cols)
    assert liouv.values[order].tobytes() == liouv.values.tobytes()


def adapted_pattern(liouv):
    # B' = O^T B O below the trace row, as the level route reads it
    k, l, entries, _ = lindblad._real_form(liouv)
    k, l, values = lindblad._to_exchange_basis(k, l, entries[0], liouv.space)
    keep = (k != 0) & (values != 0)
    return k[keep], l[keep]


def test_the_adapted_full_model_falls_into_two_narrow_parts():
    # validate's default rates at n_max 8: no entry of B' joins the sectors,
    # and the widest level is 140 (224 in the plain basis); this counts work
    liouv = build_liouvillian(build_full_model(PhysicalParams(1.0, 10.0, 10.0, 0.01, 0.5, n_max=8)))
    k, l = adapted_pattern(liouv)
    sectors = exchange_sectors(liouv.space)
    assert (sectors[k] == sectors[l]).all()
    assert (sectors > 0).sum() == 10 * 9**2
    level = lindblad._levels(k, l, liouv.space.dim**2)
    assert np.bincount(level).max() < 160
    assert (level[sectors < 0].min() > level[sectors > 0]).all()  # the odd part after the even


def test_an_exchange_broken_model_takes_the_same_route():
    # qubit 2 decays 1.5 times faster: B' stays one part (12 levels, widest
    # 166), solved as wide as in the plain basis, and agrees with the whole inverse
    m = build_full_model(PhysicalParams(1.0, 10.0, 10.0, 0.01, 0.5, n_max=6))
    broken = LindbladModel(m.space, m.hamiltonian, (m.jumps[0], np.sqrt(1.5) * m.jumps[1], m.jumps[2]))
    liouv = build_liouvillian(broken)
    assert liouv.space.dim**2 == lindblad.LEVEL_SIDE
    k, l = adapted_pattern(liouv)
    level = lindblad._levels(k, l, liouv.space.dim**2)
    joined = np.zeros(level.max() + 1, dtype=bool)
    joined[np.maximum(level[k], level[l])[level[k] != level[l]]] = True
    assert joined[1:].all()
    single = steady_state(liouv)
    dense = steady_state(liouvillian_from_dense(liouv.space, liouv.matrix[None]))
    assert np.abs(single.rho.matrix - dense.rho.matrix[0]).max() <= 1e-12
    assert abs(single.gap / dense.gap[0] - 1) <= 1e-9


def exchanged_qutrits():
    # with two qubits every coordinate of sign -1 is fixed by the swap; two
    # three-level emitters sharing a mode have orbits of sign -1 as well
    rng = np.random.default_rng(9)
    space = HilbertSpace((3, 3, 2))
    h1 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    lower, mode = np.diag([1.0, np.sqrt(2.0)], 1), np.diag([1.0], 1)
    eye2, eye3 = np.eye(2), np.eye(3)
    emitters = [np.kron(eye2, np.kron(eye3, lower)), np.kron(eye2, np.kron(lower, eye3))]
    a = np.kron(mode, np.eye(9))
    h = np.kron(eye2, np.kron(eye3, h1 + h1.conj().T) + np.kron(h1 + h1.conj().T, eye3))
    h = h + sum(0.7 * s @ a.conj().T + 0.7 * s.conj().T @ a for s in emitters) + 0.4 * (a + a.conj().T)
    return build_liouvillian(LindbladModel(space, h, (*emitters, 1.5 * a)))


def test_the_level_solve_of_two_exchanged_qutrits_matches_the_whole_inverse():
    liouv = exchanged_qutrits()
    space = liouv.space
    image, sign = lindblad._exchange(space)
    assert ((sign < 0) & (image != np.arange(len(image)))).any()
    k, l, entries, largest = lindblad._real_form(liouv)
    coords, gap = lindblad._solve_by_levels(k, l, entries[0], space, largest[0])
    dense = steady_state(liouvillian_from_dense(space, liouv.matrix[None]))
    assert np.abs(lindblad._from_coordinates(coords[None], space.dim) - dense.rho.matrix).max() <= 1e-12
    assert abs(gap / dense.gap[0] - 1) <= 1e-9


@pytest.mark.parametrize("n_max", [6, 8])
def test_the_real_form_sums_each_entry_in_the_order_of_a_stable_sort(n_max):
    # the read _real_form replaced (tests/level_reference.py) sorted the parts
    # by key * P + position, P their count: each key is unique, so any sort
    # gives the stable sort's order; _real_form writes the same entries, one
    # per distinct key of a part with a nonzero unit
    liouv = build_liouvillian(build_full_model(PhysicalParams(1.0, 10.0, 10.0, 0.01, 0.5, n_max=n_max)))
    n = liouv.space.dim**2
    owners, units, _ = lindblad._owners(liouv.space.dim)
    first, second = [0, 0, 1, 1], [0, 1, 0, 1]
    keys = (owners[liouv.rows][:, first] * n + owners[liouv.cols][:, second]).ravel()
    keys = keys[((units[liouv.rows][:, first].conj() * units[liouv.cols][:, second]) != 0).ravel()]
    assert np.array_equal(np.argsort(keys * len(keys) + np.arange(len(keys))), np.argsort(keys, kind="stable"))
    k, l, _, _ = lindblad._real_form(liouv)
    assert np.array_equal(np.sort(k * n + l), np.unique(keys))


def test_a_residual_beyond_its_bound_is_named(monkeypatch):
    # RESIDUAL_TOL = 0 refuses any nonzero residual; the undriven member's is exactly 0
    liouv = effective_stack([0.0, 10.0, 5.0], [0.0, 2.135, 1.0], 0.0)
    one = build_liouvillian(build_effective_model(DimensionlessParams(10.0, 2.135)))
    monkeypatch.setattr(lindblad, "RESIDUAL_TOL", 0.0)
    with pytest.raises(DegenerateSteadyStateError,
                       match=r"^steady-state residual \S+ exceeds 0 \(Liouvillian 1 of a stack of 3\)$"):
        steady_state(liouv)
    with pytest.raises(DegenerateSteadyStateError, match=r"^steady-state residual \S+ exceeds 0$"):
        steady_state(one)


@pytest.mark.parametrize("degenerate", ["zero", "one_qubit_decay"])
def test_degenerate_member_of_a_stack_is_named(degenerate):
    # the zero Liouvillian makes the bordered system exactly singular, which
    # inv refuses for the whole stack; one-qubit decay leaves a near-null pair
    good = build_liouvillian(build_effective_model(DimensionlessParams(10.0, 2.135))).matrix
    jump = np.sqrt(2) * np.kron(IDENTITY_2, SIGMA_MINUS)
    decay_one = LindbladModel(TWO_QUBITS, np.zeros((4, 4)), (jump,))
    bad = {"zero": np.zeros((16, 16)), "one_qubit_decay": build_liouvillian(decay_one).matrix}
    stack = liouvillian_from_dense(TWO_QUBITS,
                                   np.stack([good, good, bad[degenerate], good, bad[degenerate]]))
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
    stacked = steady_state(liouvillian_from_dense(liouv.space, liouv.matrix[None])).rho.matrix[0]
    assert rho.tobytes() == stacked.tobytes()
    exact = closed_form(zeta, xi1, xi2)[0] if exact is None else exact
    assert np.abs(rho - exact).max() <= 1e-12


def test_a_liouvillian_below_the_level_side_is_inverted_whole():
    # side 64: the level solve's state is off here (by 4.3e-3 from the whole
    # inverse's, its gap passing), and one L this small is a stack of one
    liouv = build_liouvillian(build_full_model(PhysicalParams(1.0, 10.0, 10.0, 0.01, 1e8, n_max=1)))
    k, l, entries, largest = lindblad._real_form(liouv)
    coords = lindblad._solve_by_levels(k, l, entries[0], liouv.space, largest[0])[0]
    single = steady_state(liouv)
    stacked = steady_state(liouvillian_from_dense(liouv.space, liouv.matrix[None]))
    assert np.abs(lindblad._from_coordinates(coords[None], liouv.space.dim) - stacked.rho.matrix).max() > 1e-4
    assert single.rho.matrix.tobytes() == stacked.rho.matrix[0].tobytes()
    assert single.gap == stacked.gap[0]


@pytest.mark.parametrize("rows, width", [
    (60, lindblad.BLOCK - 7), (70, lindblad.BLOCK), (90, lindblad.BLOCK + 13),
    (2 * lindblad.BLOCK + 5,) * 2,
])
def test_the_level_elimination_is_householder_qr_of_the_level_columns(rows, width):
    # a level's rows of R are those of the panel's QR, up to row signs; the
    # carried rows, left full, have the Gram matrix of the QR's trailing rows.
    # Exactly zero columns give reflectors with tau = 0, and rows == width
    # leaves nothing to carry, as at a part's last level
    rng = np.random.default_rng(rows + width)
    panel = rng.normal(size=(rows, width + 40))
    panel[:, [0, width // 2, width - 1, width + 3]] = 0.0
    full = np.linalg.qr(panel, mode="r")
    eliminated = panel.copy()
    lindblad._eliminate(eliminated, width)
    scale = np.linalg.norm(panel)
    mine, theirs = eliminated[:width], full[:width]
    largest = np.argmax(np.abs(theirs), axis=1)[:, None]
    signs = np.sign(np.take_along_axis(theirs, largest, 1) * np.take_along_axis(mine, largest, 1))
    assert np.abs(signs * mine - theirs).max() <= 1e-13 * scale
    assert not np.tril(mine[:, :width], -1).any()
    carried, trailing = eliminated[width:, width:], full[width:, width:]
    assert len(carried) == rows - width
    assert np.abs(carried.T @ carried - trailing.T @ trailing).max() <= 1e-13 * scale**2


@pytest.mark.parametrize("n_max", [1, 2, 3, 4])
@pytest.mark.parametrize("case", ["driven", "undriven", "broken"])
def test_the_level_solve_agrees_with_the_whole_inverse(case, n_max):
    # the undriven pattern falls into many parts, with reflectors of tau = 0
    # (8 to 14 of them); the broken one, qubit 2 decaying 1.5 times faster,
    # stays one part. The agreement the README states: 5e-14 and 1e-13 relative
    alpha = 0.0 if case == "undriven" else 0.5
    m = build_full_model(PhysicalParams(1.0, 10.0, 10.0, 0.01, alpha, n_max=n_max))
    if case == "broken":
        m = LindbladModel(m.space, m.hamiltonian, (m.jumps[0], np.sqrt(1.5) * m.jumps[1], m.jumps[2]))
    liouv = build_liouvillian(m)
    d = liouv.space.dim
    k, l, entries, largest = lindblad._real_form(liouv)
    coords, gap = lindblad._solve_by_levels(k, l, entries[0], liouv.space, largest[0])
    whole, gaps = lindblad._solve_whole(k, l, entries, liouv.space)
    states = lindblad._from_coordinates(np.stack([coords, whole[0]]), d)
    assert np.abs(states[0] - states[1]).max() <= 5e-14
    assert abs(gap / gaps[0] - 1) <= 1e-13


def broken_exchange(m):
    # qubit 2 decays 1.5 times faster: L no longer commutes with the swap
    return LindbladModel(m.space, m.hamiltonian, (m.jumps[0], np.sqrt(1.5) * m.jumps[1], m.jumps[2]))


def sector_sizes(liouv, split):
    """The sizes of the sectors _solve_whole inverts, checking that every member's B' has no entry
    across them when ``split``, and that every member has one otherwise."""
    k, l, entries, _ = lindblad._real_form(liouv)
    k, l, values = lindblad._to_exchange_basis(k, l, entries, liouv.space)
    sectors, _, across = lindblad._plan(lindblad._whole_plan, liouv.space, k, l)
    assert len(across) and ((values[:, across] == 0).all(axis=1) == split).all()
    return [len(coords) for coords, *_ in sectors]


def sector_reference_agreement(liouv):
    """The largest state distance and relative gap difference of _solve_whole against the plain-basis
    whole inverse (tests/plain_inverse.py)."""
    d = liouv.space.dim
    k, l, entries, _ = lindblad._real_form(liouv)
    coords, gaps = lindblad._solve_whole(k, l, entries, liouv.space)
    plain, plain_gaps = plain_whole(liouv)
    states = lindblad._from_coordinates(coords, d) - lindblad._from_coordinates(plain, d)
    return np.abs(states).max(), np.abs(gaps / plain_gaps - 1).max()


def test_the_sectors_of_a_reduced_stack_agree_with_the_plain_inverse():
    # 400 points with a complex drive, a zeta = 0 row and a xi = 0 column: every member splits 10 + 6
    rng = np.random.default_rng(12)
    zeta, xi1, xi2 = rng.uniform(0, 10, 400), rng.uniform(0, 4, 400), rng.uniform(-1, 1, 400)
    zeta[:20], xi1[20:40], xi2[20:40] = 0.0, 0.0, 0.0
    liouv = build_liouvillian(build_effective_model(DimensionlessParams(zeta, xi1, xi2)))
    assert sector_sizes(liouv, split=True) == [10, 6]
    state, gap = sector_reference_agreement(liouv)
    assert state <= 1e-14 and gap <= 1e-14  # 6.7e-16 and 6.7e-16 measured


@pytest.mark.parametrize("n_max", [1, 2, 3, 4, 5])
def test_the_sectors_of_the_full_model_agree_with_the_plain_inverse(n_max):
    liouv = build_liouvillian(build_full_model(PhysicalParams(1.0, 10.0, 10.0, 0.01, 0.5, n_max=n_max)))
    assert sector_sizes(liouv, split=True) == [10 * (n_max + 1) ** 2, 6 * (n_max + 1) ** 2]
    state, gap = sector_reference_agreement(liouv)
    assert state <= 1e-14 and gap <= 1e-14  # at most 1.2e-15 and 8.9e-16 measured


def test_an_exchange_broken_model_is_inverted_whole_and_agrees_with_the_plain_inverse():
    liouv = build_liouvillian(broken_exchange(build_full_model(PhysicalParams(1.0, 10.0, 10.0, 0.01, 0.5, n_max=3))))
    assert sector_sizes(liouv, split=False) == [160, 96]  # the sectors it would have, had it split
    state, gap = sector_reference_agreement(liouv)
    assert state <= 1e-14 and gap <= 1e-14


def test_the_sectors_of_two_exchanged_qutrits_agree_with_the_plain_inverse():
    # orbits of sign -1: their even coordinate is e_k - e_pi(k)
    liouv = exchanged_qutrits()
    assert sector_sizes(liouv, split=True) == [45 * 4, 36 * 4]  # (81 +- 9) / 2 of the qutrit pair, times 4
    state, gap = sector_reference_agreement(liouv)
    assert state <= 1e-14 and gap <= 1e-14


def test_a_stack_of_symmetric_and_broken_members_solves_each_alone():
    # a member goes by sectors or whole by its own entries, so its bits do not depend on the stack
    m = build_full_model(PhysicalParams(1.0, 10.0, 10.0, 0.01, 0.5, n_max=2))
    symmetric, broken = build_liouvillian(m), build_liouvillian(broken_exchange(m))
    stack = liouvillian_from_dense(m.space, np.stack([symmetric.matrix, broken.matrix, symmetric.matrix]))
    alone = [steady_state(liouvillian_from_dense(m.space, one.matrix[None])) for one in (symmetric, broken)]
    mixed = steady_state(stack)
    for i, j in enumerate((0, 1, 0)):
        assert mixed.rho.matrix[i].tobytes() == alone[j].rho.matrix[0].tobytes()
        assert mixed.gap[i] == alone[j].gap[0]


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
        scaled = liouvillian_from_dense(TWO_QUBITS, 2.0**k * liouv.matrix)
        assert stationarity_residuals(scaled, ground)[0] == np.ldexp(res, k)
    huge = stationarity_residuals(liouvillian_from_dense(TWO_QUBITS, 1e300 * liouv.matrix), ground)[0]
    assert np.isfinite(huge) and abs(huge / (1e300 * res) - 1.0) <= 1e-14


def test_the_residual_of_one_large_liouvillian_is_its_dense_product():
    # the residual is summed from L's nonzeros, not from the dense matrix; it
    # agrees with the dense product, and scales exactly
    p = PhysicalParams(1.0, 10.0, 10.0, 0.01, 0.5, n_max=6)
    liouv = build_liouvillian(build_full_model(p))
    d = liouv.space.dim
    assert d * d == lindblad.LEVEL_SIDE
    rng = np.random.default_rng(6)
    state = random_density(rng, d)
    res = stationarity_residuals(liouv, state)[0]
    assert abs(res / np.linalg.norm(liouv.matrix @ state.ravel(order="F")) - 1) <= 1e-14
    for k in (-1000, 1000):
        scaled = Liouvillian(liouv.space, liouv.rows, liouv.cols, 2.0**k * liouv.values)
        assert stationarity_residuals(scaled, state)[0] == np.ldexp(res, k)
    assert stationarity_residuals(liouv, steady_state(liouv).rho.matrix)[0] <= 1e-12


def test_the_residual_of_a_random_stack_is_its_dense_product():
    # 16x16 stacks on one pattern, each member zero at about half of it: its
    # explicit zeros add nothing, and each member's residual is its dense product
    rng = np.random.default_rng(19)
    dense = rng.normal(size=(64, 16, 16)) + 1j * rng.normal(size=(64, 16, 16))
    dense[rng.random(dense.shape) < 0.5] = 0.0
    liouv = liouvillian_from_dense(TWO_QUBITS, dense)
    states = np.stack([random_density(rng, 4) for _ in range(64)])
    res = stationarity_residuals(liouv, states)
    product = dense @ states.swapaxes(-1, -2).reshape(64, 16, 1)  # column-stacked
    assert np.abs(res / np.linalg.norm(product, axis=(1, 2)) - 1).max() <= 1e-14
    for k in (-1000, 1000):
        scaled = Liouvillian(liouv.space, liouv.rows, liouv.cols, 2.0**k * liouv.values)
        assert np.array_equal(stationarity_residuals(scaled, states), np.ldexp(res, k))


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
    assert _solve_peak(liouvillian_from_dense(liouv.space, liouv.matrix[None])) <= 1.5 * n * n * 16


def test_one_liouvillian_is_solved_below_one_real_matrix():
    # n_max 8, side n = 1296, one real n^2 array 13.4 MB: the level route
    # peaks at 5.0 MB (0.37 of it, numpy 2.4; 0.88 before the exchange
    # split), the dense route, which a stack of one takes, at 26.9 MB (2.00:
    # B and B^-1), so it would fail
    liouv = build_liouvillian(build_full_model(PhysicalParams(1.0, 10.0, 10.0, 0.01, 0.5, n_max=8)))
    n = liouv.matrix.shape[-1]
    assert _solve_peak(liouv) < n * n * 8


def test_the_full_model_is_built_and_solved_below_a_dense_l():
    # n_max 8, side n = 1296: build and solve peak together below 0.6 of one
    # complex n^2 matrix (26.9 MB), which no step forms; 0.24 measured (numpy
    # 2.4; 0.41 before the exchange split), of which the build is 0.05.
    # Building the dense L took 2.0
    model = build_full_model(PhysicalParams(1.0, 10.0, 10.0, 0.01, 0.5, n_max=8))
    n = model.space.dim**2
    tracemalloc.start()
    try:
        steady_state(build_liouvillian(model))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * n * n * 16


def test_build_liouvillian_memory_stays_near_two_matrices():
    # the bound of the dense build, the matrix and the copy Liouvillian kept
    # (2.0 complex n^2 matrices; summing dense Kronecker products needed 4.0);
    # the triplets stay far below it
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
    steps, _, drifts = evolve(build_liouvillian(m), ground_pair(), t_final=1.0, dt=1e-3)
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


@pytest.mark.parametrize("space", [ONE_QUBIT, TWO_QUBITS], ids=["d2", "d4"])
def test_evolve_matches_the_four_stage_step_across_a_super_stride(space):
    # the anchors are R_c + Y_b R_c, Y_b = P^(bS) - I, from the super-anchor
    # R_c, stepped every S^2 steps: the last state is at R_1 (from the last
    # anchor of the first super-stride), 1 step past it, and 7 past R_2
    s2 = lindblad.STRIDE**2
    ends = (s2, s2 + 1, 2 * s2 + 7)
    rng = np.random.default_rng([space.dim, s2])
    m = random_model(rng, space)
    rho0 = DensityMatrix(space, random_density(rng, space.dim))
    trajectory = rk4_trajectory(m, rho0, 1e-3)
    reference = {k + 1: state for k, state in zip(range(ends[-1]), trajectory) if k + 1 in ends}
    for nsteps in ends:
        out = evolve_final(m, rho0, nsteps * 1e-3, 1e-3)
        assert np.abs(out.matrix - reference[nsteps]).max() <= 1e-12


def test_a_run_across_a_super_stride_is_a_prefix_of_a_longer_one():
    # S^2 + 1 steps end on a batch of one stride, whose product still takes two rows
    s2 = lindblad.STRIDE**2
    m = build_effective_model(DimensionlessParams(10.0, 2.135))
    dt = 2.0**-10
    steps, rho, drifts = evolve(build_liouvillian(m), ground_pair(), (2 * s2 + 7) * dt, dt, sample_every=1)
    assert steps[-1] == 2 * s2 + 7
    for k in (s2 - 1, s2 + 1):
        short_steps, short, short_drifts = evolve(build_liouvillian(m), ground_pair(), k * dt, dt)
        assert short_steps[-1] == k
        assert np.array_equal(short.matrix[-1], rho.matrix[k])
        assert np.array_equal(short_drifts, drifts[:k + 1])


@pytest.mark.parametrize("batch", [1, 10**6, 7 / lindblad.STRIDE])
def test_a_run_of_three_super_strides_does_not_depend_on_the_batch_size(monkeypatch, batch):
    # 40,000 steps: a batch of one stride takes its anchor from the super-stride
    # that holds it, and the largest batches stop at each super-stride's edge:
    # S, S and 57 strides. 7 / S of a stride's entries is a check block of 7
    # samples and a batch of one stride
    m = build_effective_model(DimensionlessParams(10.0, 2.135))
    reference = evolve(build_liouvillian(m), ground_pair(), 40.0, 1e-3, sample_every=7)
    monkeypatch.setattr(qops, "CHECK_ELEMENTS", round(batch * lindblad.STRIDE * 16))
    steps, rho, drift = evolve(build_liouvillian(m), ground_pair(), 40.0, 1e-3, sample_every=7)
    assert np.array_equal(steps, reference[0])
    assert np.array_equal(rho.matrix, reference[1].matrix)
    assert np.array_equal(drift, reference[2])


def record_stepped_coordinates(monkeypatch):
    # the side of each matrix whose powers evolve forms: P - I for the steps,
    # then P^S - I for the anchors
    sides = []
    step_powers = lindblad._step_powers

    def recorded(increment, count):
        sides.append(len(increment))
        return step_powers(increment, count)

    monkeypatch.setattr(lindblad, "_step_powers", recorded)
    return sides


@pytest.mark.parametrize("case, stepped", [("ground", 10), ("random_state", 16), ("unequal_decay", 16)])
def test_evolve_steps_only_the_sectors_that_hold_the_state(monkeypatch, case, stepped):
    # the reduced model commutes with the qubit swap, so from |gg> the state
    # stays in the 10 exchange-even coordinates; a state with an odd part, or
    # a model that breaks the swap, takes all 16. Each matches the plain step
    rng = np.random.default_rng(823)
    m = build_effective_model(DimensionlessParams(10.0, 2.135))
    rho0 = ground_pair()
    if case == "random_state":
        rho0 = DensityMatrix(TWO_QUBITS, random_density(rng, 4))
    elif case == "unequal_decay":
        m = LindbladModel(TWO_QUBITS, m.hamiltonian, (m.jumps[0], 1.5 * m.jumps[1]))
    sides = record_stepped_coordinates(monkeypatch)
    out = evolve_final(m, rho0, 0.3, 1e-3)
    assert sides == [stepped, stepped]  # the step level and the anchor level
    assert np.abs(out.matrix - rk4_reference(m, rho0, 300, 1e-3)).max() <= 1e-12
    if case == "ground":  # no odd coordinate is stepped, so the swap leaves every bit in place
        swap = [0, 2, 1, 3]
        assert np.array_equal(out.matrix[np.ix_(swap, swap)], out.matrix)


@pytest.mark.parametrize("diagonal, stepped", [((0.0, 0.0, 0.0, 1.0), 1), ((0.1, 0.25, 0.25, 0.4), 3),
                                               ((0.1, 0.2, 0.3, 0.4), 4)])
def test_a_zero_generator_steps_only_the_support_of_the_state(monkeypatch, diagonal, stepped):
    # no pair links two coordinates, so each nonzero coordinate of rho0 in the
    # exchange-adapted basis is a part of its own: |ge><ge| and |eg><eg| with
    # equal weight have no exchange-odd coordinate
    m = LindbladModel(TWO_QUBITS, np.zeros((4, 4)), ())
    rho0 = DensityMatrix(TWO_QUBITS, np.diag(diagonal))
    sides = record_stepped_coordinates(monkeypatch)
    out = evolve_final(m, rho0, t_final=1.0, dt=1e-2)
    assert sides == [stepped, stepped]  # the step level and the anchor level
    assert np.abs(out.matrix - rho0.matrix).max() <= 1e-16


@pytest.mark.parametrize("batch", [1, 10**6, 7 / lindblad.STRIDE])
def test_evolve_does_not_depend_on_the_batch_size(monkeypatch, batch):
    # 10,000 steps: three batches of the default size, the last one partial;
    # a batch holds at most one block of DensityMatrix's check, and the samples
    # become matrices a block at a time, so this moves both. At 7 / S a block
    # holds 7 samples and a batch one stride, so blocks, batches and
    # super-strides cut the samples at different places
    m = build_effective_model(DimensionlessParams(10.0, 2.135))
    reference = evolve(build_liouvillian(m), ground_pair(), 10.0, 1e-3, sample_every=7)
    monkeypatch.setattr(qops, "CHECK_ELEMENTS", round(batch * lindblad.STRIDE * 16))
    steps, rho, drift = evolve(build_liouvillian(m), ground_pair(), 10.0, 1e-3, sample_every=7)
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
            evolve(build_liouvillian(m), ground_pair(), nsteps * 1e-3, 1e-3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= np.empty(200_001).nbytes


def test_evolve_holds_its_sample_stack_once():
    # dynamics --zeta 10 --xi1 2.135 --sample-every 1: 50,001 states, 12.8 MB.
    # DensityMatrix keeps evolve's read-only stack as it is, and each sample's
    # coordinates wait in its own matrix until they become it, a check block at
    # a time: the peak is 18.1 MB, 1.41 stacks; it was 34.2 MB (2.67) when the
    # stack was copied and its coordinates kept to the end
    m = build_effective_model(DimensionlessParams(10.0, 2.135))
    tracemalloc.start()
    try:
        rho = evolve(build_liouvillian(m), ground_pair(), 50.0, 1e-3, sample_every=1)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rho.matrix) == 50_001
    assert peak < 1.6 * rho.matrix.nbytes


def test_evolve_names_the_first_step_whose_trace_drifts():
    # H = -i eps |e><e| drains the trace as exp(-2 eps t): the drift is
    # 0.99990e-6 at step 5555 and 1.00008e-6 at step 5556, inside the second
    # batch, between two anchors
    m = LindbladModel(ONE_QUBIT, -1j * 0.9e-7 * np.diag([1.0, 0.0]), ())
    rho0 = DensityMatrix(ONE_QUBIT, np.diag([1.0, 0.0]))
    with pytest.raises(IntegrationError, match=r"^trace drift 1\.000e-06 at t = 5\.556 exceeds 1e-06; "):
        evolve(build_liouvillian(m), rho0, 20.0, 1e-3)


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
        steps, rho, _ = evolve(build_liouvillian(m), ground_pair(), t_final=1.0, dt=1e-3, sample_every=every)
        expected = [0] + sorted(set(range(every, 1001, every)) | {1000})
        assert steps.tolist() == expected
        assert (steps * 1e-3).tolist() == [step * 1e-3 for step in expected]
        assert len(rho.matrix) == len(expected)
        assert np.array_equal(rho.matrix[-1], final)


def test_a_cadence_beyond_the_run_samples_its_ends():
    m = build_effective_model(DimensionlessParams(10.0, 2.135))
    steps, rho, drift = evolve(build_liouvillian(m), ground_pair(), t_final=1.0, dt=1e-3)
    for every in (1001, 2**63, 10**30):
        long_steps, long_rho, long_drift = evolve(build_liouvillian(m), ground_pair(), 1.0, 1e-3, sample_every=every)
        assert np.array_equal(long_steps, steps) and long_steps.dtype == steps.dtype
        assert np.array_equal(long_rho.matrix, rho.matrix)
        assert np.array_equal(long_drift, drift)


@pytest.mark.parametrize("every", [1, 7, 100, None])
def test_sampling_does_not_perturb_the_run(every):
    # dt = 2^-10 makes k dt / dt exactly k: the k-step run is a prefix of the long one
    m = build_effective_model(DimensionlessParams(10.0, 2.135))
    dt = 2.0**-10
    steps, rho, drifts = evolve(build_liouvillian(m), ground_pair(), 300 * dt, dt, sample_every=every)
    assert steps[-1] == 300
    for k, mat in zip(steps, rho.matrix):
        short_steps, short, short_drifts = evolve(build_liouvillian(m), ground_pair(), k * dt, dt)
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
            evolve(build_liouvillian(m), ground_pair(), t_final=20.0, dt=0.5, sample_every=every)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    # the stability edge lies between dt = 0.13 and 0.14 (spectral radius 1.27)
    evolve(build_liouvillian(m), ground_pair(), t_final=30.0, dt=0.13)
    with pytest.raises(IntegrationError, match=r"spectral radius 1\.27"):
        evolve(build_liouvillian(m), ground_pair(), t_final=30.0, dt=0.14)


def test_evolve_names_t_and_dt_when_a_state_is_not_a_density_matrix():
    # dt = 0.1 is inside RK4's stability region, but one step from the ground
    # state at (10, 2.135) overshoots to a negative eigenvalue
    m = build_effective_model(DimensionlessParams(10.0, 2.135))
    message = r"^state at t = 0\.1 is not a density matrix \(negative eigenvalue .*\); reduce dt below 0\.1$"
    with pytest.raises(IntegrationError, match=message):
        evolve(build_liouvillian(m), ground_pair(), t_final=0.1, dt=0.1)  # the final state
    with pytest.raises(IntegrationError, match=message):
        evolve(build_liouvillian(m), ground_pair(), t_final=30.0, dt=0.1, sample_every=1)


def test_evolve_names_the_failing_sample_from_one_check(monkeypatch):
    # the samples are checked once, as one stack: the error's index is the
    # failing sample, so no state is checked again to find it
    m = build_effective_model(DimensionlessParams(10.0, 2.135))
    ground = ground_pair()
    built = []

    def counted(*args):
        built.append(args)
        return DensityMatrix(*args)

    monkeypatch.setattr(lindblad, "DensityMatrix", counted)
    message = r"^state at t = 0\.1 is not a density matrix \(negative eigenvalue .*\); reduce dt below 0\.1$"
    with pytest.raises(IntegrationError, match=message) as exc:
        evolve(build_liouvillian(m), ground, t_final=30, dt=0.1, sample_every=1)
    assert len(built) == 1 and len(built[0][1]) == 301
    assert exc.value.__cause__.index == 1  # step 1: t = 0.1


def test_evolve_aborts_on_a_nan_trace():
    m = LindbladModel(ONE_QUBIT, np.nan * SIGMA_MINUS, ())
    rho0 = DensityMatrix(ONE_QUBIT, np.diag([1.0, 0.0]))
    with pytest.raises(IntegrationError, match=r"trace drift nan at t = 0\.1 "):
        evolve(build_liouvillian(m), rho0, t_final=1.0, dt=0.1)


def test_evolve_aborts_on_unstable_step():
    m = build_effective_model(DimensionlessParams(10.0, 2.135))
    with pytest.raises(IntegrationError):
        evolve(build_liouvillian(m), ground_pair(), t_final=20.0, dt=0.5)


def test_evolve_input_validation():
    m = build_effective_model(DimensionlessParams(1.0, 0.0))
    with pytest.raises(ValueError):
        evolve(build_liouvillian(m), ground_pair(), t_final=1.0, dt=0.0)
    one_qubit_state = DensityMatrix(ONE_QUBIT, np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        evolve(build_liouvillian(m), one_qubit_state, t_final=1.0)
    # t_final = nan would take no step and inf never end; a cadence below 1 would skip rho0
    for t_final in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="t_final must be finite"):
            evolve(build_liouvillian(m), ground_pair(), t_final=t_final)
    for every in (0, -5):
        with pytest.raises(ValueError, match="sample_every must be at least 1"):
            evolve(build_liouvillian(m), ground_pair(), t_final=0.01, dt=1e-3, sample_every=every)
    # a dt so small that t_final / dt overflows has no step count
    for t_final, dt in ((1.0, 1e-320), (1e10, 1e-310)):
        message = f"the step count t_final / dt must be finite, got {t_final:g} / {dt:g} = inf"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evolve(build_liouvillian(m), ground_pair(), t_final=t_final, dt=dt)
    # 1e300 steps are a finite count, but no array holds their drift
    message = "the step count t_final / dt = 1 / 1e-300 = 1e+300 is too large to allocate ("
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        evolve(build_liouvillian(m), ground_pair(), t_final=1.0, dt=1e-300)


def test_evolve_refuses_a_stacked_model():
    # it propagates one state under one L; a stack is not integrated member by member
    stack = build_liouvillian(build_effective_model(DimensionlessParams([10.0, 5.0, 0.0], 2.135)))
    with pytest.raises(ValueError, match=r"^evolve takes one Liouvillian, not a stack of 3$"):
        evolve(stack, ground_pair(), t_final=1.0)
    m = build_effective_model(DimensionlessParams(10.0, 2.135))
    states = DensityMatrix(TWO_QUBITS, np.stack([ground_pair().matrix] * 2))
    with pytest.raises(ValueError, match=r"^evolve takes one initial state, not a stack of 2$"):
        evolve(build_liouvillian(m), states, t_final=1.0)
