"""Tests for concurrence, negativity, and witness construction."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from polent import cli, entangle, qops
from polent.analytic import closed_form
from polent.entangle import (
    PAULI_LABELS,
    NotEntangledError,
    Witness,
    concurrence,
    construct_witness,
    entanglement,
    pair_operator,
    pauli_decompose,
    separable_floor,
)
from polent.lindblad import build_liouvillian, steady_state
from polent.model import DimensionlessParams, build_effective_model
from polent.qops import (
    SIGMA_Y,
    SIGMA_Z,
    TWO_QUBITS,
    DensityMatrix,
    HilbertSpace,
    partial_transpose,
)

BELL = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2)
BELL_RHO = DensityMatrix(TWO_QUBITS, np.outer(BELL, BELL.conj()))


def pure(state):
    v = np.asarray(state, dtype=complex)
    v = v / np.linalg.norm(v)
    return DensityMatrix(TWO_QUBITS, np.outer(v, v.conj()))


def random_density(rng, d=4):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return DensityMatrix(TWO_QUBITS, m / np.trace(m))


def random_qubit(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def random_product(rng):
    return pure(np.kron(random_qubit(rng), random_qubit(rng)))


def random_unitary(rng, d=2):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def negativity(rho):
    # the negativity half of entanglement, which has no function of its own
    return entanglement(rho)[1]


def gated_concurrence(rho):
    # the concurrence half of entanglement
    return entanglement(rho)[0]


def werner(p):
    m = p * np.outer(BELL, BELL.conj()) + (1 - p) * np.eye(4) / 4
    return DensityMatrix(TWO_QUBITS, m)


def test_pair_operator_ordering():
    # first label acts on qubit 1, the fast index
    assert_allclose(np.diag(pair_operator("z", "id")).real, [1, -1, 1, -1])
    assert_allclose(np.diag(pair_operator("id", "z")).real, [1, 1, -1, -1])
    assert_allclose(pair_operator("y", "z"), np.kron(SIGMA_Z, SIGMA_Y), atol=0)
    assert_allclose(pair_operator("id", "id"), np.eye(4), atol=0)


@pytest.mark.parametrize("labels", [("q", "z"), ("x", "X"), ("x", "sigma_y")])
def test_pair_operator_names_a_label_it_does_not_know(labels):
    bad = next(label for label in labels if label not in PAULI_LABELS)
    with pytest.raises(ValueError, match=rf"^Pauli label must be one of \('id', 'x', 'y', 'z'\), got '{bad}'$"):
        pair_operator(*labels)


def test_concurrence_bell_state():
    assert_allclose(concurrence(BELL_RHO), 1.0, atol=1e-12)


def test_concurrence_product_states():
    rng = np.random.default_rng(33)
    assert concurrence(pure([0, 1, 0, 0])) <= 1e-12
    for _ in range(25):
        assert concurrence(random_product(rng)) <= 1e-10


def test_concurrence_of_superpositions():
    # a|ee> + b|gg> has concurrence 2|a||b|
    rng = np.random.default_rng(17)
    for _ in range(25):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        norm = np.hypot(abs(a), abs(b))
        a, b = a / norm, b / norm
        rho = pure([a, 0, 0, b])
        assert_allclose(concurrence(rho), 2 * abs(a) * abs(b), atol=1e-10)


def test_concurrence_werner_line():
    # C = max(0, (3p - 1)/2) along the isotropic family
    assert_allclose(concurrence(werner(1.0)), 1.0, atol=1e-12)
    assert_allclose(concurrence(werner(0.8)), 0.7, atol=1e-12)
    assert concurrence(werner(1 / 3)) <= 1e-12
    assert concurrence(werner(0.1)) == 0.0


def test_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(41)
    for _ in range(20):
        rho = random_density(rng)
        u = np.kron(random_unitary(rng), random_unitary(rng))
        rotated = DensityMatrix(TWO_QUBITS, u @ rho.matrix @ u.conj().T)
        assert abs(concurrence(rotated) - concurrence(rho)) <= 1e-9


def test_negativity_values():
    assert_allclose(negativity(BELL_RHO), 0.5, atol=1e-12)
    assert negativity(pure([0, 1, 0, 0])) == 0.0
    assert_allclose(negativity(werner(0.8)), 0.35, atol=1e-12)
    assert negativity(werner(0.2)) == 0.0


def random_stack(rng, size):
    g = rng.normal(size=(size, 4, 4)) + 1j * rng.normal(size=(size, 4, 4))
    m = g @ g.conj().swapaxes(-1, -2)
    return DensityMatrix(TWO_QUBITS, m / np.trace(m, axis1=-2, axis2=-1)[:, None, None])


@pytest.mark.parametrize("measure", [concurrence, negativity, gated_concurrence])
def test_a_stack_is_measured_alike_in_any_blocks(monkeypatch, measure):
    # a stack is evaluated one block of CHECK_ELEMENTS entries at a time; no
    # value depends on where the blocks start, and each is its state's own
    rng = np.random.default_rng(1201)
    stack = random_stack(rng, 1000)
    stack = DensityMatrix(TWO_QUBITS, np.concatenate([[BELL_RHO.matrix, werner(0.2).matrix], stack.matrix]))
    reference = measure(stack)
    assert reference.shape == (1002,)
    assert reference[0] > 0.0 and reference[1] == 0.0  # Bell, and a separable Werner state
    for block in (1, 7, 4096, 10**6):
        monkeypatch.setattr(qops, "CHECK_ELEMENTS", block * 16)
        assert measure(stack).tobytes() == reference.tobytes()
    assert [measure(DensityMatrix(TWO_QUBITS, m)) for m in stack.matrix[:20]] == reference[:20].tolist()
    assert measure(DensityMatrix(TWO_QUBITS, np.zeros((0, 4, 4)))).shape == (0,)


def test_concurrence_memory_does_not_grow_with_the_stack():
    # only the values grow, 8 bytes a state for concurrence and 16 for
    # entanglement's two measures (twice, joined from the blocks); the factor's
    # and svd's temporaries of the whole stack would be about 1 kB a state
    rng = np.random.default_rng(1202)
    small, large = random_stack(rng, 8192), random_stack(rng, 32768)
    peaks = {concurrence: [], entanglement: []}
    for stack in (small, large):
        for measure, peak in peaks.items():
            tracemalloc.start()
            try:
                measure(stack)
                peak.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    growth = 32768 - 8192
    assert peaks[concurrence][1] - peaks[concurrence][0] <= 2 * np.empty(growth).nbytes
    assert peaks[entanglement][1] - peaks[entanglement][0] <= 2 * np.empty((2, growth)).nbytes


_FLIP = np.kron(SIGMA_Y, SIGMA_Y).real


def eigh_concurrence(m):
    # the spectral route that concurrence took for every state before it took
    # a Cholesky factor, kept verbatim as a reference
    w, v = np.linalg.eigh(m)
    roots = v * np.sqrt(np.maximum(w, 0.0))[..., None, :]
    tau = roots.swapaxes(-1, -2) @ (_FLIP @ roots)
    s = np.linalg.svd(tau, compute_uv=False)
    c = s[..., 0] - s[..., 1] - s[..., 2] - s[..., 3]
    return np.clip(c, 0.0, 1.0) + 0.0  # + 0.0 normalizes -0.0


def rank_deficient_stack():
    # |gg>, a Bell state, the product |e> (|e> + i|g>)/sqrt(2) and the rank-2
    # mixture 3/4 |Phi+><Phi+| + 1/4 |ge><ge|, whose concurrence is 3/4
    product = np.zeros((4, 4), dtype=complex)
    product[[0, 0, 2, 2], [0, 2, 0, 2]] = 0.5, 0.5j, -0.5j, 0.5
    ge = np.zeros((4, 4), dtype=complex)
    ge[1, 1] = 1.0
    return np.array([pure([0, 0, 0, 1]).matrix, BELL_RHO.matrix, product, 0.75 * BELL_RHO.matrix + 0.25 * ge])


@pytest.mark.parametrize("block", [1, 7, 4096])
def test_rank_deficient_members_are_measured_as_alone(monkeypatch, block):
    # the factor is built elementwise over the stack, and a member whose pivot
    # is not positive takes the spectrum alone: no member sees its neighbours
    rng = np.random.default_rng(1203)
    stack = DensityMatrix(TWO_QUBITS, np.concatenate([rank_deficient_stack(), random_stack(rng, 200).matrix]))
    monkeypatch.setattr(qops, "CHECK_ELEMENTS", block * 16)
    values = concurrence(stack)
    assert values.tolist() == [concurrence(DensityMatrix(TWO_QUBITS, m)) for m in stack.matrix]
    assert values[0] == 0.0 and values[2] == 0.0
    assert_allclose(values[[1, 3]], [1.0, 0.75], rtol=0, atol=1e-15)


def test_concurrence_agrees_with_the_spectral_route():
    rng = np.random.default_rng(1204)
    full = random_stack(rng, 1000).matrix
    assert np.abs(concurrence(DensityMatrix(TWO_QUBITS, full)) - eigh_concurrence(full)).max() <= 1e-14
    # where a pivot fails, the state takes the spectral route bit for bit
    pure_states = [pure(rng.normal(size=4) + 1j * rng.normal(size=4)).matrix for _ in range(100)]
    stack = np.concatenate([rank_deficient_stack(), pure_states, full[:100]])
    failed = ~entangle._cholesky(stack)[1]
    assert failed[:4].all() and not failed[104:].any()
    values = concurrence(DensityMatrix(TWO_QUBITS, stack))
    assert values[failed].tobytes() == eigh_concurrence(stack)[failed].tobytes()


def test_concurrence_keeps_rounding_level_over_the_closed_form_grid():
    # the closed form's C = 2 xi1^2 (zeta - xi1^2) / D, D = zeta^2 + (1 + 2 xi1^2)^2, over
    # the default 81x81 grid; the spectral route read 6.6e-14 here
    zeta, xi1 = (v.ravel() for v in np.meshgrid(np.linspace(0, 10, 81), np.linspace(0, 4, 81),
                                                 indexing="ij"))
    u = xi1 * xi1
    exact = np.maximum(0.0, 2.0 * u * (zeta - u) / (zeta * zeta + (1.0 + 2.0 * u) ** 2))
    assert np.abs(concurrence(DensityMatrix(TWO_QUBITS, closed_form(zeta, xi1))) - exact).max() <= 1e-14


def test_concurrence_of_a_weak_drive():
    # the numeric steady state at (10, 1e-9) has C = 2e-18 (10 - 1e-18) / (100 + (1 + 2e-18)^2),
    # 1.9801980198019803e-19 in double precision; the spectral route's clipped
    # eigenvalues read it with a relative error of 2.2e-7
    rho = steady_state(build_liouvillian(build_effective_model(DimensionlessParams(10.0, 1e-9)))).rho
    assert_allclose(concurrence(rho), 1.9801980198019803e-19, rtol=1e-12, atol=0)


def pt_negativity(m):
    # the negativity as a spectrum of its own, of one matrix or a stack
    w = np.linalg.eigvalsh(qops._partial_transpose(m, TWO_QUBITS.dims, 1))
    return -np.minimum(w, 0.0).sum(axis=-1) + 0.0


# a mixture's target for the lowest eigenvalue of its partial transpose: +-10^e,
# straddling the PPT threshold (0) and the gate (DETECTION_FLOOR, 1e-12)
targets = st.tuples(st.sampled_from([-1.0, 1.0]), st.one_of(st.floats(-15.0, -1.0), st.just(-12.0)))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.integers(0, 2**32 - 1), st.lists(st.tuples(st.integers(1, 4), targets), min_size=1, max_size=40))
def test_entanglement_is_the_separate_measures_bit_for_bit(seed, mixtures):
    # p sigma + (1 - p) I/4, sigma of rank 1-4, has lowest rho^Gamma eigenvalue
    # p mu + (1 - p)/4 for sigma's mu: p is set to put it at the target
    rng = np.random.default_rng(seed)
    states = []
    for rank, (sign, exponent) in mixtures:
        g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        sigma = g @ g.conj().T
        sigma /= np.trace(sigma).real
        mu = np.linalg.eigvalsh(qops._partial_transpose(sigma, TWO_QUBITS.dims, 1))[0]
        p = min(1.0, (0.25 - sign * 10.0**exponent) / (0.25 - mu))
        states.append(p * sigma + (1.0 - p) * np.eye(4) / 4)
    stack = DensityMatrix(TWO_QUBITS, np.array(states))
    c, n = entanglement(stack)
    assert c.tobytes() == concurrence(stack).tobytes()
    assert n.tobytes() == pt_negativity(stack.matrix).tobytes()
    one = DensityMatrix(TWO_QUBITS, stack.matrix[0])
    assert entanglement(one) == (concurrence(one), float(pt_negativity(one.matrix)))


def test_only_states_below_the_floor_take_the_singular_values(monkeypatch):
    # block 12 of the default sweep at --solver both, as the sweep evaluates it
    zs, xs = (np.linspace(lo, hi, steps) for lo, hi, steps in cli._grid(cli.DEFAULT_GRID))
    first = 12 * cli.BLOCK_SIZE
    zeta, xi1 = (v[first:first + cli.BLOCK_SIZE] for v in (np.repeat(zs, len(xs)), np.tile(xs, len(zs))))
    xi2 = np.zeros_like(zeta)
    received = []
    original = entangle._concurrence
    monkeypatch.setattr(entangle, "_concurrence", lambda m: received.append(m.copy()) or original(m))
    rows = cli._sweep_rows(zeta, xi1, xi2, "both")
    rho = steady_state(build_liouvillian(build_effective_model(DimensionlessParams(zeta, xi1, xi2)))).rho
    lowest = np.linalg.eigvalsh(partial_transpose(rho, 1))[:, 0]
    below = lowest < entangle.DETECTION_FLOOR
    assert 0 < below.sum() < len(below)  # the block holds both kinds
    assert np.concatenate(received).tobytes() == rho.matrix[below].tobytes()
    assert (rows[~below, 3] == 0.0).all()


def test_concurrence_negativity_agree_on_detection():
    rng = np.random.default_rng(55)
    for _ in range(100):
        rho = random_density(rng)
        c, n = concurrence(rho), negativity(rho)
        assert not (c > 1e-8 and n < 1e-12), (c, n)
        assert not (n > 1e-8 and c < 1e-12), (c, n)


def test_separable_mixtures_are_undetected():
    rng = np.random.default_rng(66)
    for _ in range(20):
        weights = rng.dirichlet(np.ones(4))
        m = sum(w * random_product(rng).matrix for w in weights)
        rho = DensityMatrix(TWO_QUBITS, m)
        assert concurrence(rho) <= 1e-8
        assert negativity(rho) <= 1e-10


def test_witness_of_bell_state():
    w = construct_witness(BELL_RHO)
    assert_allclose(w.expectation(BELL_RHO), -0.5, atol=1e-12)
    # Tr[P_jk P_lm] = 4 delta, so ||W||_F = 1 means ||c||_F = 1/2
    assert_allclose(np.linalg.norm(w.coefficients), 0.5, atol=1e-12)
    assert w.coefficients.shape == (4, 4)
    assert w.coefficients.dtype == np.float64


def test_witness_expectation_reads_negativity():
    # one negative transpose eigenvalue, so Tr[W rho] = -N(rho)
    model = build_effective_model(DimensionlessParams(10.0, 2.135))
    rho = steady_state(build_liouvillian(model)).rho
    w = construct_witness(rho)
    assert w.expectation(rho) < 0
    assert_allclose(w.expectation(rho), -negativity(rho), atol=1e-10)


def test_witness_expectation_of_a_stack_is_per_state():
    rng = np.random.default_rng(1107)
    w = construct_witness(BELL_RHO)
    states = [BELL_RHO, pure([1.0, 0.0, 0.0, 0.0])] + [random_density(rng) for _ in range(5)]
    stack = DensityMatrix(TWO_QUBITS, np.array([rho.matrix for rho in states]))
    values = w.expectation(stack)
    assert values.shape == (len(states),)
    assert np.array_equal(values, [w.expectation(rho) for rho in states])
    assert type(w.expectation(BELL_RHO)) is float


def test_witness_is_deterministic():
    model = build_effective_model(DimensionlessParams(10.0, 2.135))
    rho = steady_state(build_liouvillian(model)).rho
    w1 = construct_witness(rho)
    w2 = construct_witness(rho)
    assert np.array_equal(w1.coefficients, w2.coefficients)


def test_witness_matches_the_transposed_projector():
    # the matrix route: W = (|eta><eta|)^{T_2} formed as a matrix, then decomposed
    rng = np.random.default_rng(2901)
    ranks = rng.integers(1, 5, size=1500)
    states = []
    for r in ranks:
        g = rng.normal(size=(4, r)) + 1j * rng.normal(size=(4, r))
        m = g @ g.conj().T
        states.append(m / np.trace(m).real)
    stack = DensityMatrix(TWO_QUBITS, np.array(states))
    entangled = np.flatnonzero(negativity(stack) > 1e-6)
    assert len(entangled) >= 1000
    worst_c = worst_tr = worst_n = 0.0
    for k in entangled:
        rho = DensityMatrix(TWO_QUBITS, stack.matrix[k])
        eta = np.linalg.eigh(partial_transpose(rho, 1))[1][:, 0]
        w = partial_transpose(DensityMatrix(TWO_QUBITS, np.outer(eta, eta.conj())), 1)
        wit = construct_witness(rho)
        worst_c = max(worst_c, np.abs(wit.coefficients - pauli_decompose(w)).max())
        worst_tr = max(worst_tr, abs(wit.expectation(rho) - np.trace(w @ rho.matrix).real))
        worst_n = max(worst_n, abs(wit.expectation(rho) + negativity(rho)))
    assert worst_c <= 1e-16, worst_c
    assert worst_tr <= 1e-15, worst_tr
    assert worst_n <= 1e-14, worst_n


def test_two_qubit_partial_transpose_has_at_most_one_negative_eigenvalue():
    # the fact that makes the witness's eigenvector unique (Sanpera, Tarrach & Vidal 1998)
    rng = np.random.default_rng(2903)
    states = []
    for r in rng.integers(1, 5, size=1500):
        g = rng.normal(size=(4, r)) + 1j * rng.normal(size=(4, r))
        m = g @ g.conj().T
        states.append(m / np.trace(m).real)
    stack = DensityMatrix(TWO_QUBITS, np.array(states))
    w = np.linalg.eigvalsh(partial_transpose(stack, 1))
    negative = (w < -entangle.DETECTION_FLOOR).sum(axis=-1)
    assert (negative == 1).sum() >= 1000
    assert negative.max() == 1


def test_witness_rejects_a_state_that_is_not_two_qubits():
    three = DensityMatrix(HilbertSpace((2, 2, 2)), np.eye(8) / 8)
    with pytest.raises(ValueError, match="two qubits"):
        construct_witness(three)


def test_witness_expectation_rejects_a_state_that_is_not_two_qubits():
    w = construct_witness(BELL_RHO)
    for space in (HilbertSpace((2,)), HilbertSpace((4,)), HilbertSpace((2, 2, 2))):
        with pytest.raises(ValueError, match=rf"^a witness expectation is defined for two qubits, got dims "
                                             rf"\({', '.join(map(str, space.dims))},?\)$"):
            w.expectation(DensityMatrix(space, np.eye(space.dim) / space.dim))


def test_witness_rejects_a_stack_of_states():
    stack = DensityMatrix(TWO_QUBITS, np.stack([np.eye(4) / 4] * 3))
    with pytest.raises(ValueError, match=r"^construct_witness takes one state, not a stack of 3$"):
        construct_witness(stack)


def test_witness_rejects_separable_states():
    with pytest.raises(NotEntangledError):
        construct_witness(pure([0, 0, 0, 1]))
    rng = np.random.default_rng(8)
    with pytest.raises(NotEntangledError):
        construct_witness(random_product(rng))


def test_witness_coefficient_consistency():
    w = construct_witness(BELL_RHO)
    with pytest.raises(ValueError):
        Witness(w.coefficients[:, :3])
    with pytest.raises(ValueError):
        Witness(w.coefficients.ravel())
    assert np.array_equal(Witness(w.coefficients.tolist()).coefficients, w.coefficients)
    assert not w.coefficients.flags.writeable


def test_pauli_decompose_basis_elements():
    c = pauli_decompose(np.eye(4, dtype=complex))
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert_allclose(c, expected, atol=1e-15)
    c = pauli_decompose(pair_operator("z", "z"))
    expected = np.zeros((4, 4))
    expected[3, 3] = 1.0
    assert_allclose(c, expected, atol=1e-15)


def test_pauli_decompose_roundtrip():
    rng = np.random.default_rng(77)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g + g.conj().T
    c = pauli_decompose(m)
    rebuilt = sum(
        c[j, k] * pair_operator(PAULI_LABELS[j], PAULI_LABELS[k])
        for j in range(4)
        for k in range(4)
    )
    assert_allclose(rebuilt, m, atol=1e-12)


def test_pauli_decompose_validation():
    with pytest.raises(ValueError):
        pauli_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        pauli_decompose(np.triu(np.ones((4, 4))))


def random_hermitian(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return g + g.conj().T


def test_pauli_decompose_matches_the_trace_loop():
    rng = np.random.default_rng(78)
    for _ in range(20):
        m = random_hermitian(rng)
        loop = np.array([[np.trace(m @ pair_operator(lj, lk)).real / 4.0 for lk in PAULI_LABELS]
                         for lj in PAULI_LABELS])
        assert np.abs(pauli_decompose(m) - loop).max() <= 1e-15


def constructed_witnesses():
    rng = np.random.default_rng(88)
    states = [BELL_RHO, werner(0.6), steady_state(build_liouvillian(
        build_effective_model(DimensionlessParams(10.0, 2.135)))).rho]
    states += [pure(rng.normal(size=4) + 1j * rng.normal(size=4)) for _ in range(3)]
    return [construct_witness(rho) for rho in states]


def test_product_expectations_follow_the_state_vectors():
    # the uniforms (u0, u1) give cos(theta) = 2 u0 - 1 and phase 2 pi u1 on
    # qubit 1, (u2, u3) the same on qubit 2; qubit 1 is the fast index
    rng = np.random.default_rng(91)
    m = random_hermitian(rng)
    u = rng.random((50, 4))

    def qubit(u_z, u_phi):
        z = 2.0 * u_z - 1.0
        return np.array([np.sqrt((1 + z) / 2), np.exp(2j * np.pi * u_phi) * np.sqrt((1 - z) / 2)])

    psi = [np.kron(qubit(*row[2:]), qubit(*row[:2])) for row in u]
    expected = [(v.conj() @ m @ v).real for v in psi]
    assert_allclose(entangle._product_expectations(pauli_decompose(m), u), expected, atol=1e-13)


def test_separable_floor_nonnegative_and_reproducible():
    w = construct_witness(BELL_RHO)
    floor = separable_floor(w, n_pure=300, n_mixed=60)
    assert floor >= -1e-8
    assert floor == separable_floor(w, n_pure=300, n_mixed=60)
    # entangled expectation sits strictly below the separable floor
    assert w.expectation(BELL_RHO) < floor
    for w in constructed_witnesses():
        floor = separable_floor(w)
        assert -1e-8 <= floor < 1e-2
        assert floor == separable_floor(w)


def test_separable_floor_finds_a_negative_product_expectation():
    # -|ee><ee| is not block-positive: a product state with Bloch z components
    # z1, z2 gives -(1 + z1)(1 + z2)/4, which reaches -1 at |ee>
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = -1.0
    w = Witness(pauli_decompose(m))
    assert -1.0 <= separable_floor(w) < -0.9
    assert -1.0 <= separable_floor(w, n_pure=0) < -0.5


def test_separable_floor_takes_empty_blocks():
    w = construct_witness(BELL_RHO)
    pure_only = separable_floor(w, n_pure=500, n_mixed=0)
    mixed_only = separable_floor(w, n_pure=0, n_mixed=500)
    assert pure_only >= -1e-8 and mixed_only >= -1e-8
    # the pure samples come first in the stream, so adding mixtures only lowers the floor
    assert separable_floor(w, n_pure=500, n_mixed=100) <= pure_only
    assert separable_floor(w, n_pure=0, n_mixed=0) == np.inf


def test_separable_floor_does_not_depend_on_the_block_size(monkeypatch):
    w = constructed_witnesses()[2]
    reference = separable_floor(w, n_pure=2000, n_mixed=300)
    for block in (1, 7, 300, 10**6):
        monkeypatch.setattr(entangle, "FLOOR_BLOCK", block)
        assert separable_floor(w, n_pure=2000, n_mixed=300) == reference
