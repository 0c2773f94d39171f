"""Acceptance checks for the package's headline guarantees.

Each test prints one ``acceptance k/9 PASS|FAIL`` line (straight to the
terminal, bypassing capture) so a verbose run reads as a checklist. The
concurrence and witness checks (2/9, 8/9) take their references from exact
results on the closed-form steady state, derived in the tests themselves,
rather than from quoted numbers that no document in the repo supports.
"""

import dataclasses
import os

import numpy as np

from stationarity_oracle import _vectors, equation_residuals, solve_linear_system

from polent.analytic import closed_form
from polent.cli import main
from polent.entangle import (
    PAULI_LABELS,
    concurrence,
    construct_witness,
    entanglement,
    pair_operator,
    separable_floor,
)
from polent.lindblad import build_liouvillian, evolve, steady_state
from polent.model import (
    DimensionlessParams,
    PhysicalParams,
    build_effective_model,
    build_full_model,
    map_physical,
)
from polent.qops import (
    TWO_QUBITS,
    DensityMatrix,
    partial_trace,
    partial_transpose,
    trace_distance,
)

# the point of the README examples; the concurrence maximum lies elsewhere
REFERENCE_POINT = DimensionlessParams(10.0, 2.135)


def _report(capsys, k, ok, detail):
    with capsys.disabled():
        print(f"\nacceptance {k}/9 {'PASS' if ok else 'FAIL'}: {detail}")


def _numeric_rho(zeta, xi1, xi2=0.0):
    model = build_effective_model(DimensionlessParams(zeta, xi1, xi2))
    return steady_state(build_liouvillian(model)).rho


def _exact_rho(zeta, xi1):
    return DensityMatrix(TWO_QUBITS, closed_form(zeta, xi1)[0])


def _ground_pair():
    m = np.zeros((4, 4), dtype=complex)
    m[3, 3] = 1.0
    return DensityMatrix(TWO_QUBITS, m)


def test_analytic_numeric_equivalence(capsys):
    # closed form against the superoperator null space on an 11 x 11 grid
    worst = 0.0
    for zeta in np.linspace(0.0, 10.0, 11):
        for xi1 in np.linspace(0.0, 4.0, 11):
            direct = closed_form(zeta, xi1)[0]
            solved = _numeric_rho(zeta, xi1).matrix
            worst = max(worst, float(np.linalg.norm(direct - solved)))
    ok = worst <= 1e-9
    _report(capsys, 1, ok, f"max Frobenius gap {worst:.3e} over 11x11 grid (tol 1e-9)")
    assert ok, f"analytic and numeric steady states differ by {worst:.3e}"


def _exact_concurrence(zeta, xi1):
    # Wootters concurrence of the closed-form state, with D = zeta^2 + (1 + 2 xi1^2)^2:
    # rho rho~ has the double eigenvalue xi1^8 / D^2, and the square roots of its
    # other two eigenvalues differ by 2 zeta xi1^2 / D, so
    # C = 2 zeta xi1^2 / D - 2 xi1^4 / D
    return max(0.0, 2.0 * xi1**2 * (zeta - xi1**2) / (zeta**2 + (1.0 + 2.0 * xi1**2) ** 2))


def _exact_argmax_xi1(zeta):
    # with u = xi1^2, dC/du = 0 reads (zeta - 2u)(zeta^2 + (1 + 2u)^2) = 4u(zeta - u)(1 + 2u);
    # the u^3 terms cancel, leaving 4(zeta + 1) u^2 + 2(zeta^2 + 1) u - zeta(zeta^2 + 1) = 0,
    # whose positive root is the one in (0, zeta / 2)
    a, b, c = 4.0 * (zeta + 1.0), 2.0 * (zeta**2 + 1.0), -zeta * (zeta**2 + 1.0)
    return np.sqrt((-b + np.sqrt(b * b - 4.0 * a * c)) / (2.0 * a))


def test_peak_concurrence_location(capsys):
    # For u = xi1^2 = s zeta, C < 2s(1 - s) / (1 + 4s^2) <= (sqrt(5) - 1) / 4, the
    # value approached as zeta -> infinity at s = (sqrt(5) - 1) / 4.
    supremum = (np.sqrt(5.0) - 1.0) / 4.0
    point = concurrence(_exact_rho(10.0, 2.135))
    point_err = abs(point - _exact_concurrence(10.0, 2.135))
    zs = np.linspace(0.0, 10.0, 81)
    xs = np.linspace(0.0, 4.0, 81)
    best, best_z, best_x = -1.0, 0.0, 0.0
    exact_best = -1.0
    # concurrence takes the singular values of tau = W^T (sigma_y sigma_y) W with
    # rho = W W^dagger, a Hermitian route that keeps rounding level across the
    # grid, the double eigenvalue of rho rho~ near xi1 = 0 included
    grid_err = 0.0
    for z in zs:
        for x in xs:
            c = concurrence(_exact_rho(z, x))
            exact = _exact_concurrence(z, x)
            grid_err = max(grid_err, abs(c - exact))
            exact_best = max(exact_best, exact)
            if c > best:
                best, best_z, best_x = c, float(z), float(x)
    xi_star = _exact_argmax_xi1(10.0)
    c_star = _exact_concurrence(10.0, xi_star)
    point_ok = point_err <= 1e-12
    grid_ok = grid_err <= 1e-12
    cell_ok = abs(best_z - 10.0) <= 0.125 + 1e-12 and abs(best_x - xi_star) <= 0.05 + 1e-12
    max_ok = abs(best - exact_best) <= 1e-12 and best <= c_star + 1e-12 and best < supremum
    ok = point_ok and grid_ok and cell_ok and max_ok
    _report(
        capsys, 2, ok,
        f"C(10, 2.135) = {point:.5f} (exact formula, gap {point_err:.1e}, tol 1e-12); grid "
        f"argmax C = {best:.7f} at ({best_z:g}, {best_x:g}) (exact max {c_star:.6f} at "
        f"(10, {xi_star:.5f}), sup {supremum:.5f}); max grid gap {grid_err:.1e} (tol 1e-12)",
    )
    assert ok, (
        f"C(10, 2.135) off the exact formula by {point_err:.2e} and/or the grid by "
        f"{grid_err:.2e}; the 81x81 argmax ({best_z:g}, {best_x:g}) with C = {best:.7f} vs "
        f"exact maximum {c_star:.7f} at (10, {xi_star:.5f}) and supremum {supremum:.5f}"
    )


def test_equation_system_oracle(capsys):
    worst_res, worst_gap = 0.0, 0.0
    for zeta in np.linspace(0.0, 10.0, 11):
        for xi1 in np.linspace(0.0, 4.0, 11):
            direct = closed_form(zeta, xi1)
            res = equation_residuals([zeta], [xi1], [0.0], direct)[0]
            worst_res = max(worst_res, float(res))
            solved = solve_linear_system(zeta, xi1, 0.0)
            # the 15 real parameters of each state
            gap = np.abs(_vectors(direct[0]) - _vectors(solved)).max()
            worst_gap = max(worst_gap, float(gap))
    ok = worst_res <= 1e-12 and worst_gap <= 1e-12
    _report(
        capsys, 3, ok,
        f"max stationarity residual {worst_res:.3e}, max closed-form vs solver "
        f"gap {worst_gap:.3e} (tol 1e-12)",
    )
    assert ok


def test_drive_component_symmetry(capsys):
    worst = 0.0
    for v in (0.5, 1.0, 2.135):
        for zeta in (0.0, 5.0, 10.0):
            real_drive = concurrence(_numeric_rho(zeta, v, 0.0))
            imag_drive = concurrence(_numeric_rho(zeta, 0.0, v))
            worst = max(worst, abs(real_drive - imag_drive))
    ok = worst <= 1e-9
    _report(capsys, 4, ok, f"max |C(zeta, v, 0) - C(zeta, 0, v)| = {worst:.3e} (tol 1e-9)")
    assert ok


def test_dynamics_reaches_fixed_point(capsys):
    model = build_effective_model(REFERENCE_POINT)
    target = _exact_rho(REFERENCE_POINT.zeta, REFERENCE_POINT.xi1)
    _, states, drifts = evolve(build_liouvillian(model), _ground_pair(), t_final=50.0, dt=1e-3)
    final = DensityMatrix(states.space, states.matrix[-1])
    td = trace_distance(final, target)
    worst_drift = max(drifts)
    ok = td <= 1e-5 and worst_drift <= 1e-8
    _report(
        capsys, 5, ok,
        f"trace distance {td:.3e} to the steady state at t = 50 (tol 1e-5), "
        f"max trace drift {worst_drift:.3e} (tol 1e-8)",
    )
    assert ok


def test_full_model_reduction(capsys):
    distances = []
    shifts = []
    for kappa in (10.0, 20.0, 40.0):
        p = PhysicalParams(j=1.0, delta=10.0, kappa=kappa, gamma=0.01, alpha=0.5, n_max=4)
        assert abs(p.alpha / (p.delta + 1j * p.kappa)) <= 0.1  # weak-drive regime
        reduced = partial_trace(steady_state(build_liouvillian(build_full_model(p))).rho, (0, 1))
        bigger = dataclasses.replace(p, n_max=p.n_max + 2)
        reduced2 = partial_trace(
            steady_state(build_liouvillian(build_full_model(bigger))).rho, (0, 1)
        )
        shifts.append(float(np.abs(reduced2.matrix - reduced.matrix).max()))
        eff = steady_state(build_liouvillian(build_effective_model(map_physical(p)))).rho
        distances.append(trace_distance(reduced, eff))
    monotone = distances[0] > distances[1] > distances[2]
    converged = max(shifts) < 1e-6
    ok = monotone and converged
    _report(
        capsys, 6, ok,
        "reduction error vs kappa/J in (10, 20, 40): "
        + ", ".join(f"{d:.4f}" for d in distances)
        + f" (strictly decreasing), max truncation shift {max(shifts):.3e} (tol 1e-6)",
    )
    assert ok


def test_concurrence_units(capsys):
    rng = np.random.default_rng(20260817)
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    bell_rho = DensityMatrix(TWO_QUBITS, np.outer(bell, bell.conj()))
    bell_err = abs(concurrence(bell_rho) - 1.0)

    def rand_qubit():
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        return v / np.linalg.norm(v)

    def density(vec):
        return DensityMatrix(TWO_QUBITS, np.outer(vec, vec.conj()))

    product_worst = max(
        concurrence(density(np.kron(rand_qubit(), rand_qubit()))) for _ in range(50)
    )
    superpos_worst = 0.0
    for _ in range(50):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        norm = np.hypot(abs(a), abs(b))
        a, b = a / norm, b / norm
        state = np.zeros(4, dtype=complex)
        state[0], state[3] = a, b
        superpos_worst = max(
            superpos_worst, abs(concurrence(density(state)) - 2 * abs(a) * abs(b))
        )

    def rand_density():
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = g @ g.conj().T
        return DensityMatrix(TWO_QUBITS, m / np.trace(m))

    def rand_unitary():
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(g)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    lu_worst = 0.0
    for _ in range(100):
        rho = rand_density()
        u = np.kron(rand_unitary(), rand_unitary())
        rotated = DensityMatrix(TWO_QUBITS, u @ rho.matrix @ u.conj().T)
        lu_worst = max(lu_worst, abs(concurrence(rotated) - concurrence(rho)))

    detector_splits = 0
    for _ in range(1000):
        rho = rand_density()
        c, n = concurrence(rho), entanglement(rho)[1]
        if (c > 1e-8 and n < 1e-12) or (n > 1e-8 and c < 1e-12):
            detector_splits += 1

    ok = (
        bell_err <= 1e-12
        and product_worst <= 1e-10
        and superpos_worst <= 1e-10
        and lu_worst <= 1e-9
        and detector_splits == 0
    )
    _report(
        capsys, 7, ok,
        f"Bell error {bell_err:.1e}, products <= {product_worst:.1e}, "
        f"superpositions <= {superpos_worst:.1e}, local-unitary drift <= {lu_worst:.1e}, "
        f"{detector_splits}/1000 concurrence-negativity detection splits",
    )
    assert ok


def test_witness_properties(capsys):
    rho = _numeric_rho(REFERENCE_POINT.zeta, REFERENCE_POINT.xi1)
    wit = construct_witness(rho)
    expect = wit.expectation(rho)
    floor = separable_floor(wit, n_pure=10000, n_mixed=1000)
    c = wit.coefficients
    dominant = {
        (PAULI_LABELS[j], PAULI_LABELS[k])
        for j in range(4)
        for k in range(4)
        if abs(c[j, k]) > 0.05
    }
    # W = (|eta><eta|)^{T_B}, so c[j, k] = <eta| sigma^j (x) (sigma^k)^T |eta> / 4; with
    # sigma^k in {id, z} the transpose is trivial and the single-qubit z terms are
    # <eta| z (x) id |eta> / 4 and <eta| id (x) z |eta> / 4
    _, vecs = np.linalg.eigh(partial_transpose(rho, 1))
    eta = vecs[:, 0]
    z_one = float((eta.conj() @ pair_operator("z", "id") @ eta).real) / 4.0
    z_two = float((eta.conj() @ pair_operator("id", "z") @ eta).real) / 4.0
    z_idx, id_idx = PAULI_LABELS.index("z"), PAULI_LABELS.index("id")
    single_z_err = max(abs(c[z_idx, id_idx] - z_one), abs(c[id_idx, z_idx] - z_two))
    # the docstring's promise; a two-qubit partial transpose has at most one
    # negative eigenvalue, so that eigenvalue is minus the negativity
    promise_err = abs(expect + entanglement(rho)[1])
    expected_dominant = {
        ("id", "id"), ("x", "y"), ("y", "x"), ("z", "z"),
        ("x", "z"), ("z", "x"), ("y", "z"), ("z", "y"),
    }
    margin = float(np.abs(np.abs(c) - 0.05).min())
    detects = expect < 0
    separable_safe = floor >= -1e-8
    ok = (
        detects
        and separable_safe
        and promise_err <= 1e-12
        and single_z_err <= 1e-12
        and dominant == expected_dominant
    )
    _report(
        capsys, 8, ok,
        f"Tr[W rho] = {expect:.5f} (< 0, = -N(rho) to {promise_err:.1e}), separable floor "
        f"{floor:.2e} (>= -1e-8), single-qubit z terms c[z,id] = {c[z_idx, id_idx]:.4f}, "
        f"c[id,z] = {c[id_idx, z_idx]:.4f} (eigenvector gap {single_z_err:.1e}), dominant set "
        f"{sorted(dominant)} (closest |c| to 0.05: {margin:.4f} away)",
    )
    assert ok, (
        f"witness check: detection {detects}, separable floor {floor:.2e}, "
        f"Tr[W rho] + N(rho) = {promise_err:.2e}, single-qubit z gap {single_z_err:.2e}, "
        f"dominant set {sorted(dominant)} vs expected {sorted(expected_dominant)}"
    )


def test_sweep_determinism(capsys, tmp_path):
    paths = [tmp_path / f"sweep{k}.csv" for k in range(3)]
    assert main(["sweep", "--out", str(paths[0])]) == 0
    assert main(["sweep", "--out", str(paths[1])]) == 0
    assert main(["sweep", "--workers", "8", "--out", str(paths[2])]) == 0
    serial = paths[0].read_bytes()
    repeat_ok = serial == paths[1].read_bytes()
    workers_ok = serial == paths[2].read_bytes()
    ok = repeat_ok and workers_ok
    _report(
        capsys, 9, ok,
        f"default 81x81 sweep: repeat run byte-identical {repeat_ok}, "
        f"--workers 8 run ({min(8, os.cpu_count() or 1)} processes) byte-identical {workers_ok}",
    )
    assert ok
