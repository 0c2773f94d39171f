"""The keyed reads of the level route give the earlier reads' outputs bit for bit.

_real_form, _to_exchange_basis and _levels against their earlier versions in
level_reference: the same levels, and the same value at each row and column
down to the sign bit of a zero, in whatever order a pass hands its entries
out, on random models and patterns, stacks, and the full model at every
n_max up to 8 with and without the exchange symmetry. In an L with a
non-finite entry, _real_form makes non-finite only the entries that hold a
non-finite part of it. The solves, the elimination and RK4 read the two
passes' entries in any order: shuffled, they give the same bytes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import level_reference as reference
from polent import lindblad
from polent.lindblad import Liouvillian, build_liouvillian
from polent.model import (
    DimensionlessParams,
    LindbladModel,
    PhysicalParams,
    build_effective_model,
    build_full_model,
)
from polent.qops import DensityMatrix, HilbertSpace

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# zeros of both signs and units often, where a sum can cancel or keep a sign bit
parts = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]) | st.floats(-1e3, 1e3)
# the spaces whose exchange of subsystems 0 and 1 is not the identity, and two where it is
exchange_spaces = st.sampled_from([(2, 2), (3, 3), (2, 2, 2), (2, 2, 3), (3, 3, 2), (2, 3), (5,)])


def identical(new, old):
    """Equal dtype, shape and bytes, in C order whatever the layout."""
    new, old = np.asarray(new), np.asarray(old)
    return new.dtype == old.dtype and new.shape == old.shape and new.tobytes() == old.tobytes()


def row_major(k, l, values, *rest):
    """The entries (k, l, values) sorted by row, then column; the rest as they are."""
    order = np.lexsort((l, k))
    return k[order], l[order], values[..., order], *rest


def assert_identical(new, old):
    """The same entries at the same (k, l), in whatever order each pass hands them out."""
    new, old = row_major(*new), row_major(*old)
    assert len(new) == len(old)
    for i, (a, b) in enumerate(zip(new, old)):
        assert identical(a, b), f"output {i} differs"


def complex_of(re, im):
    """re + i im part by part, so that a zero keeps its sign (re + 1j * im would not)."""
    z = np.empty(np.shape(re), dtype=complex)
    z.real, z.imag = re, im
    return z


@st.composite
def matrices(draw, d):
    """A complex d x d matrix whose parts are drawn from ``parts``, dense or mostly zero."""
    re, im = (np.array(draw(st.lists(parts, min_size=d * d, max_size=d * d))).reshape(d, d) for _ in range(2))
    if not draw(st.booleans()):
        mask = np.array(draw(st.lists(st.booleans(), min_size=d * d, max_size=d * d))).reshape(d, d)
        re, im = re * mask, im * mask  # a masked part is +-0: its sign survives
    return complex_of(re, im)


@st.composite
def models(draw):
    dims = draw(st.sampled_from([(2,), (3,), (4,), (5,), (2, 2)]))
    d = int(np.prod(dims))
    jumps = tuple(draw(matrices(d)) for _ in range(draw(st.integers(0, 3))))
    return LindbladModel(HilbertSpace(dims), draw(matrices(d)), jumps)


@st.composite
def triplets(draw, n):
    """Distinct row-major positions of an n x n matrix and their values."""
    where = np.flatnonzero(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)))
    re, im = (np.array(draw(st.lists(parts, min_size=len(where), max_size=len(where)))) for _ in range(2))
    return where // n, where % n, complex_of(re, im)


@SETTINGS
@given(models())
def test_real_form_of_a_random_model(model):
    liouv = build_liouvillian(model)
    assert_identical(lindblad._real_form(liouv), reference.real_form(liouv))


@SETTINGS
@given(st.sampled_from([(2,), (3,), (2, 2)]).flatmap(
    lambda dims: st.tuples(st.just(dims), triplets(int(np.prod(dims)) ** 2))))
def test_real_form_of_a_random_pattern(case):
    # no model makes these: a block of up to 4 triplets, so up to 4 parts an entry
    dims, (rows, cols, values) = case
    liouv = Liouvillian(HilbertSpace(dims), rows, cols, values)
    assert_identical(lindblad._real_form(liouv), reference.real_form(liouv))


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(st.integers(1, 300), st.sampled_from([(2,), (2, 2)]), st.integers(0, 2**32 - 1))
def test_real_form_of_a_random_stack(members, dims, seed):
    # each member's values from the same pool, so that many hold a zero of either sign
    rng = np.random.default_rng(seed)
    n = int(np.prod(dims)) ** 2
    where = np.flatnonzero(rng.random(n * n) < 0.3)
    pool = np.array([0.0, -0.0, 1.0, -1.0, 0.5])
    re, im = (np.where(rng.random((members, len(where))) < 0.5, rng.choice(pool, (members, len(where))),
                       rng.normal(size=(members, len(where)))) for _ in range(2))
    liouv = Liouvillian(HilbertSpace(dims), where // n, where % n, complex_of(re, im))
    assert_identical(lindblad._real_form(liouv), reference.real_form(liouv))


@pytest.mark.parametrize("members", [1, 256, 300])
def test_real_form_of_a_stacked_build(members):
    # member 0 is undriven and uncoupled, the fewest nonzeros: it holds +0 where others need a place
    zeta, xi1, xi2 = np.random.default_rng(members).uniform(-10.0, 10.0, (3, members))
    zeta[0] = xi1[0] = xi2[0] = 0.0
    xi2[1::2] = 0.0
    liouv = build_liouvillian(build_effective_model(DimensionlessParams(zeta, xi1, xi2)))
    assert_identical(lindblad._real_form(liouv), reference.real_form(liouv))


@pytest.mark.parametrize("n_max", range(1, 9))
@pytest.mark.parametrize("symmetric", [True, False])
def test_every_read_of_the_full_model(n_max, symmetric):
    m = build_full_model(PhysicalParams(1.0, 10.0, 10.0, 0.01, 0.5, n_max=n_max))
    if not symmetric:  # qubit 2 decays 1.5 times faster: B no longer splits by exchange
        m = LindbladModel(m.space, m.hamiltonian, (m.jumps[0], np.sqrt(1.5) * m.jumps[1], m.jumps[2]))
    liouv = build_liouvillian(m)
    real = lindblad._real_form(liouv)
    assert_identical(real, reference.real_form(liouv))
    k, l, entries, _ = real
    image, sign = lindblad._exchange(liouv.space)
    adapted = lindblad._to_exchange_basis(k, l, entries[0], image, sign)
    assert_identical(adapted, reference.to_exchange_basis(k, l, entries[0], image, sign))
    k, l, values = adapted
    keep = (k != 0) & (values != 0)
    n = liouv.space.dim**2
    assert identical(lindblad._levels(k[keep], l[keep], n), reference.levels(k[keep], l[keep], n))


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, complex(0.0, np.inf), complex(np.inf, np.nan)])
@pytest.mark.parametrize("at", [0, 1, 5])
def test_real_form_of_a_liouvillian_with_a_non_finite_entry(value, at):
    # a non-finite part of triplet ``at`` reaches only the entries that hold it;
    # every other entry is the earlier read's value on the L where that part is 0
    liouv = build_liouvillian(build_full_model(PhysicalParams(1.0, 10.0, 10.0, 0.01, 0.5, n_max=2)))

    def with_entry(entry):
        values = liouv.values.copy()
        values[at] = entry
        return Liouvillian(liouv.space, liouv.rows, liouv.cols, values)

    bad = ~np.isfinite([np.real(value), np.imag(value)])
    stand_in = complex(*np.where(bad, 0.0, [np.real(value), np.imag(value)]))
    finite = reference.real_form(with_entry(stand_in))[2]
    # the entries that hold the real or the imaginary part: those that move when it moves. Triplets
    # 0 and 5 join two diagonal coordinates, E_00 and E_00 or E_44, so no entry holds their Im part
    holds = [reference.real_form(with_entry(stand_in + step))[2] != finite for step in (1.0, 1j)]
    reached = (holds[0] & bad[0]) | (holds[1] & bad[1])
    with np.errstate(invalid="ignore", over="ignore"):
        k, l, entries, largest = row_major(*lindblad._real_form(with_entry(value)))
        expected = reference.real_form(with_entry(value))
    assert identical(k, expected[0]) and identical(l, expected[1]) and identical(largest, expected[3])
    assert np.array_equal(~np.isfinite(entries), reached)
    assert identical(entries[~reached], finite[~reached])


@SETTINGS
@given(exchange_spaces.flatmap(lambda dims: st.tuples(st.just(dims), st.lists(
    st.tuples(st.integers(0, np.prod(dims) ** 2 - 1), st.integers(0, np.prod(dims) ** 2 - 1), parts),
    max_size=60))))
def test_exchange_basis_of_a_random_pattern(case):
    # any B: where it does not commute with the exchange, the sectors stay joined
    dims, entries = case
    space = HilbertSpace(dims)
    n = space.dim**2
    image, sign = lindblad._exchange(space)
    k, l, values = np.array(entries, dtype=float).reshape(-1, 3).T
    k, l = k.astype(int), l.astype(int)
    keep = np.unique(k * n + l, return_index=True)[1]  # distinct positions, in row-major order
    k, l, values = k[keep], l[keep], values[keep]
    assert_identical(lindblad._to_exchange_basis(k, l, values, image, sign),
                     reference.to_exchange_basis(k, l, values, image, sign))


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 2, 2)])
@pytest.mark.parametrize("fill", ["minus_zero", "pool"])
def test_exchange_basis_of_a_full_pattern(dims, fill):
    # -0 at a fixed coordinate of sign -1, its partner absent: a + s b is +0 only from a = 0 + (-0)
    space = HilbertSpace(dims)
    n = space.dim**2
    image, sign = lindblad._exchange(space)
    assert ((sign < 0) & (image == np.arange(n))).any()
    k, l = np.divmod(np.arange(n * n), n)
    rng = np.random.default_rng(n)
    values = np.full(n * n, -0.0) if fill == "minus_zero" else rng.choice([0.0, -0.0, 1.0, -1.0, 0.5], n * n)
    assert_identical(lindblad._to_exchange_basis(k, l, values, image, sign),
                     reference.to_exchange_basis(k, l, values, image, sign))


@SETTINGS
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))))
def test_levels_of_a_random_pattern(case):
    # isolated coordinates and parts the search from 0 does not reach get levels of their own
    n, pairs = case
    k, l = np.array(pairs, dtype=int).reshape(-1, 2).T
    assert identical(lindblad._levels(k, l, n), reference.levels(k, l, n))


def shuffled(rng, k, l, values, *rest):
    """The entries (k, l, values) in a random order; the rest as they are."""
    order = rng.permutation(len(k))
    return k[order], l[order], values[..., order], *rest


def shuffle_output(monkeypatch, rng, name):
    """Make lindblad.<name> hand out its entries in a random order."""
    read = getattr(lindblad, name)
    monkeypatch.setattr(lindblad, name, lambda *args: shuffled(rng, *read(*args)))


@pytest.mark.parametrize("symmetric", [True, False])
def test_the_level_and_whole_solves_do_not_depend_on_the_order_of_the_entries(symmetric, monkeypatch):
    # each reader writes an entry to its own place, so the passes promise no order
    m = build_full_model(PhysicalParams(1.0, 10.0, 10.0, 0.01, 0.5, n_max=6))
    if not symmetric:
        m = LindbladModel(m.space, m.hamiltonian, (m.jumps[0], np.sqrt(1.5) * m.jumps[1], m.jumps[2]))
    liouv = build_liouvillian(m)
    space, d = liouv.space, liouv.space.dim
    rng = np.random.default_rng(6)
    k, l, entries, largest = real = lindblad._real_form(liouv)
    mixed = shuffled(rng, *real)
    whole = lindblad._solve_whole(k, l, entries, d)
    assert all(map(identical, lindblad._solve_whole(*mixed[:3], d), whole))
    image, sign = lindblad._exchange(space)
    kb, lb, vb = lindblad._to_exchange_basis(k, l, entries[0], image, sign)
    keep = (kb != 0) & (vb != 0)
    trace, s = lindblad._adapted_trace(image, sign, d), max(1.0, largest[0])
    order, factors = lindblad._triangularize_by_levels(kb[keep], lb[keep], vb[keep], trace, s)
    mixed_order, mixed_factors = lindblad._triangularize_by_levels(
        *shuffled(rng, kb[keep], lb[keep], vb[keep]), trace, s)
    assert identical(mixed_order, order) and len(mixed_factors) == len(factors)
    assert all(map(identical, mixed_factors, factors))
    expected = lindblad._solve_by_levels(k, l, entries[0], space, largest[0])
    shuffle_output(monkeypatch, rng, "_to_exchange_basis")
    levels = lindblad._solve_by_levels(*mixed[:2], mixed[2][0], space, largest[0])
    assert all(map(identical, levels, expected))


def test_rk4_does_not_depend_on_the_order_of_the_entries(monkeypatch):
    # a state of full rank holds every coordinate, so the whole stepped matrix is compared
    m = build_effective_model(DimensionlessParams(10.0, 2.135, 0.3))
    rng = np.random.default_rng(4)
    w = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho0 = DensityMatrix(m.space, w @ w.conj().T / np.trace(w @ w.conj().T).real)
    batches, stepped = lindblad._batches, []

    def recorded(increment, *args):
        stepped.append(increment)
        return batches(increment, *args)

    monkeypatch.setattr(lindblad, "_batches", recorded)
    runs = [lindblad.evolve(m, rho0, t_final=2.0, dt=1e-2, sample_every=10)]
    shuffle_output(monkeypatch, rng, "_real_form")
    shuffle_output(monkeypatch, rng, "_to_exchange_basis")
    runs.append(lindblad.evolve(m, rho0, t_final=2.0, dt=1e-2, sample_every=10))
    assert stepped[0].shape == (16, 16) and identical(stepped[1], stepped[0])
    (steps, rho, drift), (mixed_steps, mixed_rho, mixed_drift) = runs
    assert identical(mixed_steps, steps) and identical(mixed_rho.matrix, rho.matrix)
    assert identical(mixed_drift, drift)
