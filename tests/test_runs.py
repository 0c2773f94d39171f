"""Tests for the library's reports: runs.evaluate, runs.witness_report, runs.validate_reduction and
runs.dynamics."""

import numpy as np
import pytest
from test_cli import _rebind

from polent import entangle, lindblad, model, runs
from polent.cli import main
from polent.lindblad import DegenerateSteadyStateError
from polent.model import DimensionlessParams, PhysicalParams, map_physical
from polent.qops import InvalidStateError

OPTIONAL = ("closed_form", "gap", "superoperator_residual", "discrepancy")


@pytest.mark.parametrize("solver, ran", [
    ("analytic", {"closed_form"}),
    ("numeric", {"gap", "superoperator_residual"}),
    ("both", set(OPTIONAL)),
])
def test_a_field_is_none_where_its_route_did_not_run(solver, ran):
    ev = runs.evaluate(10.0, 2.135, 0.3, solver)
    assert {name for name in OPTIONAL if getattr(ev, name) is not None} == ran
    assert (ev.equation_residual is None) == (solver == "numeric")
    assert (ev.rho is ev.closed_form) == (solver == "analytic")  # the numeric state where it ran


def test_figures_are_formed_once_and_only_when_read(monkeypatch):
    ev = runs.evaluate(10.0, 2.135, 0.0, "both")
    calls = []
    residuals = lindblad.stationarity_residuals
    monkeypatch.setattr(lindblad, "stationarity_residuals", lambda *args: calls.append(1) or residuals(*args))
    assert calls == []
    assert ev.equation_residual is ev.equation_residual and calls == [1]
    assert ev.entanglement is ev.entanglement
    assert ev.entanglement[0] == pytest.approx(0.2451766427736759, abs=1e-14)
    assert ev.populations.sum() == pytest.approx(1.0, abs=1e-15)


def test_evaluate_refuses_an_unknown_solver():
    with pytest.raises(ValueError, match=r"^solver must be one of \('analytic', 'numeric', 'both'\), got 'exact'$"):
        runs.evaluate(10.0, 2.135, 0.0, "exact")


def test_a_failing_point_of_a_block_is_named():
    with np.errstate(all="ignore"), pytest.raises(InvalidStateError) as exc:
        runs.evaluate(np.array([1.0, 0.0]), np.array([1.0, 1e100]), np.zeros(2), "analytic")
    assert str(exc.value) == "at (zeta, xi1, xi2) = (0, 1e+100, 0): density matrix has non-finite entries"


FIELDS = ("rho", "closed_form", "gap", "superoperator_residual", "discrepancy", "equation_residual",
          "populations", "purity", "entanglement")


def _bytes(value):
    return None if value is None else np.asarray(getattr(value, "matrix", value)).tobytes()


@pytest.mark.parametrize("solver", runs.SOLVERS)
def test_evaluate_broadcasts_its_inputs(solver):
    # a float beside arrays stands for the array it broadcasts to, as in DimensionlessParams
    xi1 = np.array([1.0, 2.135, 3.0])
    mixed = runs.evaluate(10.0, xi1, 0.3, solver)
    full = runs.evaluate(np.full(3, 10.0), xi1, np.full(3, 0.3), solver)
    for name in FIELDS:
        assert _bytes(getattr(mixed, name)) == _bytes(getattr(full, name)), name
    # one point keeps its float fields, which steady prints
    point = runs.evaluate(10.0, 2.135, 0.3, solver)
    assert all(isinstance(getattr(point, name), float) for name in ("gap", "superoperator_residual", "discrepancy",
                                                                    "purity") if getattr(point, name) is not None)


@pytest.mark.parametrize("solver, args, failure", [
    ("analytic", (np.array([2.0, 0.0]), np.array([1.0, 1e100]), 0.0), InvalidStateError),
    ("numeric", (np.array([10.0, 1e308]), 1.0, 0.0), DegenerateSteadyStateError),
    ("both", (0.0, np.array([1.0, 1e100]), 0.0), InvalidStateError),
])
def test_a_failing_point_of_a_mixed_block_is_named(solver, args, failure):
    with np.errstate(all="ignore"):
        with pytest.raises(failure) as alone:
            runs.evaluate(*(np.asarray(v).flat[-1] for v in args), solver)
        with pytest.raises(failure) as exc:
            runs.evaluate(*args, solver)
    assert str(exc.value).startswith("at (zeta, xi1, xi2) = (")
    assert str(exc.value) == str(alone.value)


def test_witness_report_holds_what_witness_prints(capsys):
    report = runs.witness_report(10.0, 2.135, 0.0)
    rho = runs.evaluate(10.0, 2.135, 0.0, "numeric").rho
    assert report.witness.coefficients.tobytes() == entangle.construct_witness(rho).coefficients.tobytes()
    assert report.expectation == report.witness.expectation(rho) < 0
    assert report.separable_floor == entangle.separable_floor(report.witness)
    assert (report.n_pure, report.n_mixed) == (10000, 1000)
    assert main(["witness", "--zeta", "10", "--xi1", "2.135"]) == 0
    out = capsys.readouterr().out
    assert f"Tr[W rho] = {report.expectation:.17g}\n" in out
    assert f"min sampled separable expectation = {report.separable_floor:.17g} (10000 pure products + 1000 " \
           "mixtures)\n" in out


def test_witness_report_refuses_a_state_without_a_negative_partial_transpose():
    with pytest.raises(entangle.NotEntangledError, match="^partial transpose has no negative eigenvalue"):
        runs.witness_report(5.0, 0.0, 0.0)


def test_validate_reduction_refuses_a_tight_photon_cutoff():
    # validate's defaults at --nmax 1: the message the command prints after "numerical failure: "
    p = PhysicalParams(1.0, 10.0, 10.0, 0.01, 0.5 + 0j, 1)
    with pytest.raises(runs.TruncationError) as exc:
        runs.validate_reduction(p, 2.0)
    assert str(exc.value) == "observables moved 6.055e-05 from n_max = 1 to 3"
    assert exc.value.n_max == 3  # the cutoff to try; the command line words the advice


def test_validation_report_holds_what_validate_prints(capsys):
    p = PhysicalParams(1.0, 10.0, 10.0, 0.01, 0.5 + 0j, 4)
    report = runs.validate_reduction(p, 2.0)
    assert report.truncation_shift < runs.TRUNCATION_TOL
    assert (report.mapped.zeta, report.mapped.xi1, report.mapped.xi2) == (
        map_physical(p).zeta, map_physical(p).xi1, map_physical(p).xi2)
    assert report.cavity_amplitude == abs(0.5 / (10.0 + 10.0j))
    assert main(["validate", "--t-final", "2"]) == 0
    out = capsys.readouterr().out
    for figure in (f"{report.occupation:.6g}", f"{report.truncation_shift:.3e}",
                   f"{report.reduction_distance:.17g}", f"{report.adiabatic_mismatch:.17g}",
                   f"{report.dynamics_distance:.3g}", f"t = {report.dynamics_time:g} "):
        assert figure in out


def test_each_report_builds_its_reduced_model_once(monkeypatch):
    calls = dict.fromkeys(("build_effective_model", "build_liouvillian"), 0)
    for original in (model.build_effective_model, lindblad.build_liouvillian):
        def counted(*args, _original=original):
            calls[_original.__name__] += 1
            return _original(*args)

        _rebind(monkeypatch, original, counted)
    runs.validate_reduction(PhysicalParams(1.0, 10.0, 10.0, 0.01, 0.5 + 0j, 4), 2.0)
    # the full model's L at n_max and n_max + 2, and the reduced model's, for its steady state and its run
    assert calls == {"build_effective_model": 1, "build_liouvillian": 3}
    calls.update(dict.fromkeys(calls, 0))
    runs.dynamics(10.0, 2.135, 0.0, 2.0, 1e-3, 100)
    assert calls == {"build_effective_model": 1, "build_liouvillian": 1}


@pytest.mark.parametrize("zeta, xi1, t_final, every", [(10.0, 2.135, 50.0, 100), (5.0, 1.0, 40.0, 7)])
def test_dynamics_is_evolve_of_the_reduced_model_from_the_ground_state(zeta, xi1, t_final, every):
    # what dynamics --zeta ZETA --xi1 XI1 writes: the reduced model's L, stepped from |gg>
    liouv = lindblad.build_liouvillian(model.build_effective_model(DimensionlessParams(zeta, xi1, 0.0)))
    reference = lindblad.evolve(liouv, runs.ground_state(), t_final, 1e-3, every)
    steps, rho, drift = runs.dynamics(zeta, xi1, 0.0, t_final, 1e-3, every)
    assert steps.tobytes() == reference[0].tobytes() and steps[-1] == round(t_final / 1e-3)
    assert rho.matrix.tobytes() == reference[1].matrix.tobytes()
    assert drift.tobytes() == reference[2].tobytes()


def test_ground_state_is_both_qubits_down():
    assert runs.ground_state().matrix.tobytes() == np.diag([0, 0, 0, 1]).astype(complex).tobytes()
