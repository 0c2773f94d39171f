"""Property tests of the closed form and the command line (Hypothesis, derandomized)."""

import contextlib
import io
import os
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_round_trip import liouvillian_from_dense
from stationarity_oracle import _matrices, _vectors, equation_residuals

from polent import cli, lindblad
from polent.analytic import closed_form
from polent.cli import main
from polent.entangle import concurrence, entanglement
from polent.lindblad import (
    IntegrationError,
    build_liouvillian,
    evolve,
    stationarity_residuals,
    steady_state,
)
from polent.model import DimensionlessParams, PhysicalParams, build_effective_model, build_full_model
from polent.qops import TWO_QUBITS, DensityMatrix

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)

zetas = st.floats(-1e3, 1e3)
# each drive component is exactly zero often, so both real axes are covered
components = st.just(0.0) | st.floats(-30.0, 30.0)
points = st.lists(st.tuples(zetas, components, components), min_size=1, max_size=16)


def effective_stack(zeta, xi1, xi2):
    return build_liouvillian(build_effective_model(DimensionlessParams(zeta, xi1, xi2)))


# a zero of either sign often, where a stacked build keeps a position for another member
signed_components = st.sampled_from([0.0, -0.0]) | st.floats(-30.0, 30.0)


@SETTINGS
@given(st.lists(st.tuples(zetas, signed_components, signed_components), min_size=1, max_size=16),
       st.integers(0, 16))
def test_each_member_of_a_stacked_build_is_its_own_build(pts, at):
    pts.insert(at % (len(pts) + 1), (0.0, 0.0, 0.0))  # undriven and uncoupled: the fewest nonzeros
    zeta, xi1, xi2 = np.array(pts).T
    stack = effective_stack(zeta, xi1, xi2)
    keys = stack.rows * 16 + stack.cols
    assert (stack.values != 0).any(axis=0).all()  # each position nonzero in some member
    for values, point in zip(stack.values, pts):
        own = build_liouvillian(build_effective_model(DimensionlessParams(*point)))
        mine = np.isin(keys, own.rows * 16 + own.cols)
        assert np.array_equal(keys[mine], own.rows * 16 + own.cols)
        assert values[mine].tobytes() == own.values.tobytes()
        # +0.0, sign bits included, where only other members need a position
        assert values[~mine].tobytes() == np.zeros((~mine).sum(), dtype=complex).tobytes()


@SETTINGS
@given(points)
def test_closed_form_is_the_stationary_state(pts):
    zeta, xi1, xi2 = np.array(pts).T
    exact = closed_form(zeta, xi1, xi2)
    liouv = effective_stack(zeta, xi1, xi2)
    assert np.abs(exact - steady_state(liouv).rho.matrix).max() <= 1e-12
    # the Liouvillian and the hand-written rows: two encodings of one equation
    assert stationarity_residuals(liouv, exact).max() <= 1e-12
    assert equation_residuals(zeta, xi1, xi2, exact).max() <= 1e-12
    # the oracle's 15-parameter layout writes the same matrices, bit for bit up to
    # the sign of a zero part: re + 1j im stores no -0 imaginary part, so a -0
    # part (zero drive, zeta = -0, underflow) can come back as +0 or move its sign
    assert np.array_equal(_matrices(_vectors(exact)), exact)


@SETTINGS
@given(st.lists(st.tuples(zetas, st.floats(0.0, 30.0), st.floats(0.0, 2.0 * np.pi)),
                min_size=1, max_size=16))
def test_entanglement_depends_on_the_drive_modulus_only(pts):
    zeta, modulus, phase = np.array(pts).T
    turned = DensityMatrix(TWO_QUBITS, closed_form(zeta, modulus * np.cos(phase),
                                                   modulus * np.sin(phase)))
    real = DensityMatrix(TWO_QUBITS, closed_form(zeta, modulus))
    # the phase is the local gauge U = diag(e^{2i phase}, e^{i phase}, e^{i phase}, 1)
    u = np.exp(1j * phase[:, None] * np.array([2.0, 1.0, 1.0, 0.0]))
    gauged = u[:, :, None] * real.matrix * u.conj()[:, None, :]
    assert np.abs(turned.matrix - gauged).max() <= 1e-12
    assert np.abs(concurrence(turned) - concurrence(real)).max() <= 1e-12
    assert np.abs(entanglement(turned)[1] - entanglement(real)[1]).max() <= 1e-12


@SETTINGS
@given(points)
def test_steady_state_is_swap_symmetric(pts):
    # both qubits see the same hopping, drive and decay
    zeta, xi1, xi2 = np.array(pts).T
    rho = steady_state(effective_stack(zeta, xi1, xi2)).rho.matrix
    swap = np.eye(4)[[0, 2, 1, 3]]
    assert np.abs(swap @ rho @ swap - rho).max() <= 1e-12


def _haar_qubit_unitary(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (r.diagonal() / np.abs(r.diagonal()))


@SETTINGS
@given(points, st.integers(0, 2**32 - 1))
def test_concurrence_is_invariant_under_local_unitaries(pts, seed):
    zeta, xi1, xi2 = np.array(pts).T
    rho = closed_form(zeta, xi1, xi2)
    rng = np.random.default_rng(seed)
    u = np.stack([np.kron(_haar_qubit_unitary(rng), _haar_qubit_unitary(rng)) for _ in rho])
    turned = u @ rho @ u.conj().swapaxes(-1, -2)
    # sqrt(eps) ~ 1.5e-8: the square roots of eigenvalues of rho that are 0
    # up to rounding move C by at most that much
    before, after = (concurrence(DensityMatrix(TWO_QUBITS, m)) for m in (rho, turned))
    assert np.abs(after - before).max() <= 1e-8


@SETTINGS
@given(points)
def test_gap_bounds_the_second_singular_value_of_effective_stacks(pts):
    zeta, xi1, xi2 = np.array(pts).T
    liouv = effective_stack(zeta, xi1, xi2)
    second = np.linalg.svd(liouv.matrix, compute_uv=False)[:, -2]
    assert (steady_state(liouv).gap <= second * (1 + 1e-12)).all()


@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(st.builds(PhysicalParams, st.floats(0.1, 3.0), st.floats(-20.0, 20.0), st.floats(0.5, 20.0),
                 st.floats(0.01, 1.0), st.complex_numbers(max_magnitude=1.0), st.integers(2, 4)))
def test_gap_bounds_the_second_singular_value_of_full_models(p):
    liouv = build_liouvillian(build_full_model(p))
    second = np.linalg.svd(liouv.matrix, compute_uv=False)[-2]
    assert steady_state(liouv).gap <= second * (1 + 1e-12)


# undriven (B's pattern splits), barely driven, and driven past the cutoff's reach
drives = st.just(0j) | st.complex_numbers(max_magnitude=1e-3) | st.complex_numbers(max_magnitude=5.0)
full_models = st.builds(PhysicalParams, st.floats(0.1, 3.0), st.floats(-20.0, 20.0), st.floats(0.5, 20.0),
                        st.floats(0.01, 1.0), drives, st.integers(1, 6))


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(full_models)
def test_one_liouvillian_matches_the_dense_oracle(p):
    # steady_state takes the level route only from side LEVEL_SIDE on, so the
    # level solve is called directly at every side and checked against the
    # whole inverse of a stack of one
    liouv = build_liouvillian(build_full_model(p))
    d = liouv.space.dim
    dense = steady_state(liouvillian_from_dense(liouv.space, liouv.matrix[None]))
    k, l, entries, largest = lindblad._real_form(liouv)
    coords, gap = lindblad._solve_by_levels(k, l, entries[0], liouv.space, largest[0])
    assert np.abs(lindblad._from_coordinates(coords[None], d) - dense.rho.matrix).max() <= 1e-12
    assert abs(gap / dense.gap[0] - 1) <= 1e-6


@SETTINGS
@given(zetas, components, components, st.floats(0.01, 1.0), st.integers(1, 200))
def test_rk4_keeps_the_trace_to_rounding_at_every_step(zeta, xi1, xi2, fraction, nsteps):
    # |dt lambda| <= fraction for every eigenvalue lambda of L: inside RK4's
    # stability region, where vec(I)^T P = vec(I)^T leaves only rounding
    model = build_effective_model(DimensionlessParams(zeta, xi1, xi2))
    dt = fraction / np.linalg.norm(build_liouvillian(model).matrix, 2)
    ground = DensityMatrix(TWO_QUBITS, np.diag([0.0, 0.0, 0.0, 1.0]))
    try:
        _, _, drifts = evolve(build_liouvillian(model), ground, nsteps * dt, dt)
    except IntegrationError as exc:  # a coarse step may overshoot positivity, never the trace
        assert "is not a density matrix" in str(exc)
        return  # a failed run returns no drifts
    assert len(drifts) == 1 + nsteps  # step 0, then every step
    assert max(drifts) <= 1e-13


# every float, inf and NaN, and values at the scales where products overflow
magnitudes = st.floats() | st.builds(lambda m, s: m * s, st.floats(-10.0, 10.0),
                                     st.sampled_from([1e300, 1e-300, 1e200, 1e9]))
commands = st.sampled_from([["steady", "--solver=analytic"], ["steady", "--solver=numeric"],
                            ["steady", "--solver=both"], ["steady", "--solver=bogus"],
                            ["witness"], ["dynamics", "--t-final=0.01"]])
# every integer up to 10^30, and each power of ten up to it, so cadences past int64 come up
cadences = st.integers(-1, 10**30) | st.integers(0, 30).map(lambda e: 10**e)


# entangled points, 0 < xi1^2 + xi2^2 < zeta, where witness finds its witness and exits 0
entangled_points = st.builds(
    lambda zeta, share, phase: (zeta, float(np.sqrt(share * zeta) * np.cos(phase)),
                                float(np.sqrt(share * zeta) * np.sin(phase))),
    st.floats(1.0, 100.0), st.floats(0.1, 0.9), st.floats(0.0, 2.0 * np.pi))
# three points in four in range, where every command runs to its end, one
# of them entangled; the rest of any magnitudes
cli_points = st.integers(0, 3).flatmap(
    lambda k: st.tuples(magnitudes, magnitudes, magnitudes) if k == 0
    else entangled_points if k == 1 else st.tuples(components, components, components))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(commands, cli_points, cadences)
def test_every_argv_ends_in_a_documented_exit_code(command, point, every):
    zeta, xi1, xi2 = point
    argv = [*command, f"--zeta={zeta!r}", f"--xi1={xi1!r}", f"--xi2={xi2!r}"]
    if command[0] == "dynamics":
        argv += [f"--sample-every={every}", f"--out={os.devnull}"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 2, 3, 4)


# an option's text: anything at all, or text that a converter may accept
option_texts = (st.none() | st.text() | st.floats().map(repr) | st.integers(-2, 20).map(str)
                | st.sampled_from(["analytic", "numeric", "both", "0:10:3,0:4:3", "1:0:2,0:1:1"]))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.sampled_from(sorted(cli._OPTIONS)), st.data())
def test_every_option_text_is_converted_or_refused_in_one_line(command, data):
    argv = [command]
    for name in cli._OPTIONS[command]:
        text = data.draw(option_texts, label=name)
        if text is not None:
            argv.append(f"--{name.replace('_', '-')}={text}")
    calls = []

    def stub(**options):  # the command itself, with nothing numerical behind it
        calls.append(options)
        return 0

    err = io.StringIO()
    with mock.patch.dict(cli._COMMANDS, {command: stub}), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert [list(options) for options in calls] == [list(cli._OPTIONS[command])]
    else:
        assert code == 2 and not calls
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
