"""Tests for the library's reports: runs.evaluate, runs.witness_report and runs.validate_reduction."""

import numpy as np
import pytest

from polent import entangle, lindblad, runs
from polent.cli import main
from polent.model import PhysicalParams, map_physical
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
                   f"{report.dynamics_distance:.3g}"):
        assert figure in out


def test_ground_state_is_both_qubits_down():
    assert runs.ground_state().matrix.tobytes() == np.diag([0, 0, 0, 1]).astype(complex).tobytes()
