"""Tests for the dense operator primitives."""

import pickle
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from polent import qops
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


def test_a_wrong_trace_is_printed_to_its_last_digit():
    # 1 + 1e-9 is beyond TRACE_TOL, but six digits would print it as 1+0j
    with pytest.raises(InvalidStateError) as exc:
        DensityMatrix(TWO_QUBITS, np.eye(4) / 4 * (1 + 1e-9))
    assert str(exc.value) == "trace 1.0000000010000001 differs from 1 beyond tolerance"
    # Hermitian within HERMITICITY_TOL leaves room for a small imaginary trace, printed too
    with pytest.raises(InvalidStateError) as exc:
        DensityMatrix(HilbertSpace((2,)), np.diag([0.5 + 1e-9, 0.5 + 3e-11j]))
    assert str(exc.value) == "trace 1.0000000010000001+3e-11j differs from 1 beyond tolerance"


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.25, np.inf)])
def test_a_non_finite_state_is_named_as_such(value):
    # any warning is an error here, so the refusal must come without one
    m = np.eye(4, dtype=complex) / 4
    m[1, 1] = value
    with pytest.raises(InvalidStateError, match="^density matrix has non-finite entries$"):
        DensityMatrix(TWO_QUBITS, m)
    off = np.eye(4, dtype=complex) / 4
    off[0, 1] = value
    with pytest.raises(InvalidStateError) as exc:
        DensityMatrix(TWO_QUBITS, np.stack([np.eye(4) / 4, np.eye(4) / 4, off]))
    assert (exc.value.index, exc.value.reason) == (2, "density matrix has non-finite entries")
    assert str(exc.value) == "density matrix has non-finite entries (state 2 of a stack of 3)"


@pytest.mark.parametrize("value", [1e308, np.finfo(float).max])
def test_a_state_whose_hermitian_part_nears_overflow_is_judged_by_its_spectrum(value):
    # trace 1 and Hermitian, with eigenvalue -value: the Hermitian part must not
    # overflow, and a Cholesky factor of inf or NaN must not certify it; any
    # warning is an error here, so the refusal must come without one
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = m[1, 0] = value
    with pytest.raises(InvalidStateError) as alone:
        DensityMatrix(TWO_QUBITS, m)
    assert str(alone.value) == f"negative eigenvalue {-value:.3e} below the PSD floor"
    with np.errstate(all="ignore"), pytest.raises(InvalidStateError) as exc:  # as the command line runs
        DensityMatrix(TWO_QUBITS, np.stack([np.eye(4) / 4, m]))
    assert exc.value.index == 1


def test_the_error_names_the_failing_state_and_its_own_reason():
    good = np.eye(4) / 4
    bad = np.diag([1.5, -0.5, 0.0, 0.0])
    with pytest.raises(InvalidStateError) as alone:
        DensityMatrix(TWO_QUBITS, bad)
    assert (alone.value.index, alone.value.reason) == (0, str(alone.value))
    with pytest.raises(InvalidStateError) as stacked:
        DensityMatrix(TWO_QUBITS, np.stack([good, good, bad, bad]))
    assert (stacked.value.index, stacked.value.reason) == (2, alone.value.reason)
    assert str(stacked.value) == f"{alone.value.reason} (state 2 of a stack of 4)"
    # the attributes survive pickling, as a sweep worker's error crosses processes
    copy = pickle.loads(pickle.dumps(stacked.value))
    assert (str(copy), copy.index, copy.reason) == (str(stacked.value), 2, alone.value.reason)
    with pytest.raises(InvalidStateError) as shape:
        DensityMatrix(TWO_QUBITS, np.eye(2))
    assert shape.value.index is None and shape.value.reason == str(shape.value)


def test_partial_transpose_involution_and_trace():
    # a separable mixture, so that its partial transpose is again a state
    rng = np.random.default_rng(7)
    weights = rng.dirichlet(np.ones(3))
    m = sum(w * np.kron(random_density(rng, 2), random_density(rng, 2)) for w in weights)
    rho = DensityMatrix(TWO_QUBITS, m)
    for sub in (0, 1):
        pt = partial_transpose(rho, sub)
        assert_allclose(pt, pt.conj().T, atol=1e-14)  # Hermiticity preserved
        assert_allclose(np.trace(pt), 1.0, atol=1e-14)
        again = partial_transpose(DensityMatrix(TWO_QUBITS, pt), sub)
        assert_allclose(again, rho.matrix, atol=1e-15)


def test_partial_transpose_of_product_state():
    rng = np.random.default_rng(11)
    r1 = random_density(rng, 2)
    r2 = random_density(rng, 2)
    rho = DensityMatrix(TWO_QUBITS, np.kron(r2, r1))  # qubit 1 fast
    assert_allclose(partial_transpose(rho, 0), np.kron(r2, r1.T), atol=1e-15)
    assert_allclose(partial_transpose(rho, 1), np.kron(r2.T, r1), atol=1e-15)


def test_partial_transpose_bell_spectrum():
    rho = DensityMatrix(TWO_QUBITS, np.outer(BELL, BELL.conj()))
    w = np.linalg.eigvalsh(partial_transpose(rho, 1))
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


def test_partial_trace_rejects_a_stack_of_states():
    stack = DensityMatrix(TWO_QUBITS, np.stack([np.eye(4) / 4] * 2))
    with pytest.raises(ValueError, match=r"^partial_trace takes one state, not a stack of 2$"):
        partial_trace(stack, (0,))


def test_trace_distance():
    space = HilbertSpace((2,))
    ee = DensityMatrix(space, np.outer(E, E.conj()))
    gg = DensityMatrix(space, np.outer(G, G.conj()))
    assert trace_distance(ee, ee) == 0.0
    assert_allclose(trace_distance(ee, gg), 1.0, atol=1e-15)
    assert_allclose(trace_distance(ee, DensityMatrix(space, np.eye(2) / 2)), 0.5, atol=1e-15)
    assert_allclose(trace_distance(ee, gg), trace_distance(gg, ee), atol=1e-15)


@pytest.mark.parametrize("size", [4, 3])
def test_trace_distance_of_stacks_is_per_state(size):
    # only the matrix axes are transposed, so a pair of stacks gives one
    # distance per member, each its members' own
    rng = np.random.default_rng(226 + size)
    g = rng.normal(size=(2, size, 4, 4)) + 1j * rng.normal(size=(2, size, 4, 4))
    m = g @ g.conj().swapaxes(-1, -2)
    m /= np.trace(m, axis1=-2, axis2=-1)[..., None, None]
    m[1, :size - 1] = m[0, :size - 1]  # equal members, at distance 0
    a, b = (DensityMatrix(TWO_QUBITS, part) for part in m)
    distances = trace_distance(a, b)
    assert isinstance(distances, np.ndarray) and distances.shape == (size,)
    assert distances.tolist() == [trace_distance(DensityMatrix(TWO_QUBITS, x), DensityMatrix(TWO_QUBITS, y))
                                  for x, y in zip(m[0], m[1])]
    assert distances[:size - 1].tolist() == [0.0] * (size - 1) and distances[-1] > 0.0


def test_trace_distance_of_a_stack_and_one_state_is_per_state():
    stack = DensityMatrix(TWO_QUBITS, np.stack([np.eye(4) / 4, np.diag([0.0, 0.0, 0.0, 1.0])]))
    one = DensityMatrix(TWO_QUBITS, np.eye(4) / 4)
    assert_allclose(trace_distance(stack, one), [0.0, 0.75], atol=1e-15)
    assert_allclose(trace_distance(one, stack), [0.0, 0.75], atol=1e-15)


@pytest.mark.parametrize("a, b, named", [
    ((TWO_QUBITS, np.stack([np.eye(4) / 4] * 2)), (TWO_QUBITS, np.stack([np.eye(4) / 4] * 3)),
     r"dims \(2, 2\) shape \(2, 4, 4\) and dims \(2, 2\) shape \(3, 4, 4\)$"),
    ((TWO_QUBITS, np.stack([np.eye(4) / 4] * 2)), (HilbertSpace((2,)), np.eye(2) / 2),
     r"dims \(2, 2\) shape \(2, 4, 4\) and dims \(2,\) shape \(2, 2\)$"),
    ((HilbertSpace((4,)), np.eye(4) / 4), (TWO_QUBITS, np.eye(4) / 4),
     r"dims \(4,\) shape \(4, 4\) and dims \(2, 2\) shape \(4, 4\)$"),
])
def test_trace_distance_names_states_it_cannot_compare(a, b, named):
    # stacks of two sizes, or two spaces, even of one dimension
    with pytest.raises(ValueError, match=r"^trace_distance compares states on one space, or stacks of one "
                                         r"size: got " + named):
        trace_distance(DensityMatrix(*a), DensityMatrix(*b))


# the smallest eigenvalues placed about the floor, PSD_FLOOR = -1e-8, and the
# certificate's shift, -PSD_FLOOR/2 = 5e-9
PLACED_MINIMA = (-2e-8, -1.0000001e-8, -1e-8, -7e-9, -5e-9, 0.0, 1e-12)
# None leaves a state as drawn; a flaw breaks its trace or its Hermiticity
FLAWS = (None,) * 8 + ("trace", "hermiticity")
# a stack draws its states' minima from one tail of PLACED_MINIMA, so that
# whole stacks above the floor, which only the certificate clears, are common
stacks = st.integers(0, len(PLACED_MINIMA) - 1).flatmap(lambda i: st.lists(
    st.tuples(st.sampled_from(PLACED_MINIMA[i:]), st.sampled_from(FLAWS)), min_size=1, max_size=8))


def state_with_smallest_eigenvalue(rng, d, lowest):
    """A random Hermitian trace-1 state whose spectrum holds ``lowest``."""
    q = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    spectrum = np.concatenate([[lowest], (1.0 - lowest) * rng.dirichlet(np.ones(d - 1))])
    return (q * spectrum) @ q.conj().T


def spectrum_rule(m, d):
    """The message of the check before the certificate: eigvalsh of every state; None if all pass."""
    states = m.reshape(-1, d, d)
    dagger = states.conj().swapaxes(-1, -2)
    diff = states - dagger
    herm_bad = ~(np.sqrt((diff.real**2 + diff.imag**2).sum(axis=(-2, -1))) <= qops.HERMITICITY_TOL)
    tr = np.trace(states, axis1=-2, axis2=-1)
    trace_bad = ~(abs(tr - 1.0) <= qops.TRACE_TOL)
    lo = np.linalg.eigvalsh(np.where(herm_bad[:, None, None], 0.0, 0.5 * (states + dagger)))[:, 0]
    finite_bad = ~np.isfinite(states).all(axis=(-2, -1))
    bad = finite_bad | herm_bad | trace_bad | (lo < qops.PSD_FLOOR)
    if not bad.any():
        return None
    k = int(np.argmax(bad))
    if finite_bad[k]:
        message = "density matrix has non-finite entries"
    elif herm_bad[k]:
        message = "density matrix is not Hermitian within tolerance"
    elif trace_bad[k]:
        imag = f"{tr[k].imag:+.17g}j" if tr[k].imag else ""
        message = f"trace {tr[k].real:.17g}{imag} differs from 1 beyond tolerance"
    else:
        message = f"negative eigenvalue {lo[k]:.3e} below the PSD floor"
    return message + (f" (state {k} of a stack of {len(states)})" if len(states) > 1 else "")


def density_matrix_verdict(space, m):
    try:
        DensityMatrix(space, m)
    except InvalidStateError as exc:
        return str(exc)
    return None


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.sampled_from([HilbertSpace((2, 2)), HilbertSpace((2, 2, 7))]), stacks,
       st.integers(0, 2**32 - 1), st.sampled_from([1, 3, None]))
def test_the_certificate_decides_as_the_spectrum_does(space, placed, seed, block):
    rng = np.random.default_rng(seed)
    d = space.dim
    states = []
    for lowest, flaw in placed:
        state = state_with_smallest_eigenvalue(rng, d, lowest)
        if flaw == "trace":
            state = state * (1.0 + 1e-9)
        elif flaw == "hermiticity":
            state[0, 1] += 1e-9
        states.append(state)
    m = np.stack(states) if len(states) > 1 or rng.random() < 0.5 else states[0]
    elements = qops.CHECK_ELEMENTS if block is None else block * d * d
    with mock.patch.object(qops, "CHECK_ELEMENTS", elements):
        assert density_matrix_verdict(space, m) == spectrum_rule(m, d)


def test_a_stack_the_certificate_clears_takes_no_spectrum(monkeypatch):
    rng = np.random.default_rng(19)
    stack = np.stack([state_with_smallest_eigenvalue(rng, 4, lowest) for lowest in (0.0, 1e-12, 0.1)])

    def no_spectrum(m):
        raise AssertionError("eigvalsh was called for a stack the certificate clears")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_spectrum)
    assert DensityMatrix(TWO_QUBITS, stack).matrix.shape == (3, 4, 4)


def test_a_block_the_certificate_cannot_clear_is_judged_by_its_spectrum(monkeypatch):
    rng = np.random.default_rng(19)
    # blocks of two: state 3, at -2e-8, is the first to fail, in the second block
    minima = (0.0, 1e-12, -7e-9, -2e-8, 0.0)
    stack = np.stack([state_with_smallest_eigenvalue(rng, 4, lowest) for lowest in minima])
    monkeypatch.setattr(qops, "CHECK_ELEMENTS", 2 * 16)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(len(m)) or eigvalsh(m))
    # -7e-9 is below the shift, so its block is factored in vain, but above the floor
    DensityMatrix(TWO_QUBITS, stack[:3])
    assert calls == [1]  # the second block, state 2 alone
    with pytest.raises(InvalidStateError) as exc:
        DensityMatrix(TWO_QUBITS, stack)
    assert calls == [1, 2]  # the first block is cleared again; the second fails to factor
    assert re.fullmatch(r"negative eigenvalue -2\.000e-08 below the PSD floor \(state 3 of a stack of 5\)",
                        str(exc.value))
    assert str(exc.value) == spectrum_rule(stack, 4)


def test_the_check_of_a_large_stack_holds_one_block_of_temporaries():
    # 50,000 states of 4x4 are 12.8 MB; the stored copy is one of them, and
    # the check's temporaries follow the 4,096-state block (1 MB each), where
    # checking the stack at once held about four more copies
    stack = np.tile(np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex), (50_000, 1, 1))
    tracemalloc.start()
    try:
        DensityMatrix(TWO_QUBITS, stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= stack.nbytes + 10 * 2**20


def test_a_read_only_array_that_owns_its_data_is_kept_uncopied():
    stack = np.tile(np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex), (3, 1, 1)).copy()
    stack.setflags(write=False)
    assert DensityMatrix(TWO_QUBITS, stack).matrix is stack


@pytest.mark.parametrize("kind", ["writable", "view", "real", "subclass"])
def test_any_other_input_is_copied(kind):
    # a writable array could change under the state, a view's base could, a
    # real array is not the stored dtype, and a subclass is not a plain array
    base = np.tile(np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex), (3, 1, 1)).copy()
    given = {"writable": base, "view": base[1:], "real": base.real.copy(),
             "subclass": np.ma.MaskedArray(base)}[kind]
    if kind != "writable":
        given.setflags(write=False)
    rho = DensityMatrix(TWO_QUBITS, given)
    assert rho.matrix is not given and not np.shares_memory(rho.matrix, base)
    assert type(rho.matrix) is np.ndarray and rho.matrix.dtype == complex
    assert not rho.matrix.flags.writeable
    assert np.array_equal(rho.matrix, given)
