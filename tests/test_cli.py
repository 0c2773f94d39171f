"""End-to-end tests for the command-line interface."""

import itertools
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from polent import cli
from polent.cli import main

CSV_HEADER = "zeta,xi1,xi2,concurrence,negativity,purity,pop_ee,pop_ge,pop_eg,pop_gg,residual"


def read_rows(path):
    lines = path.read_text().splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return lines[0], rows


def test_steady_defaults_to_ground_state(capsys):
    assert main(["steady"]) == 0
    out = capsys.readouterr().out
    assert "solver: both" in out
    assert "concurrence = 0" in out
    match = re.search(r"discrepancy \(Frobenius\) = (\S+)", out)
    assert float(match.group(1)) <= 1e-12
    pops = re.search(r"populations \(ee, ge, eg, gg\) = \(([^)]*)\)", out).group(1)
    assert_allclose([float(v) for v in pops.split(",")], [0, 0, 0, 1], atol=1e-12)


def test_steady_analytic_populations(capsys):
    assert main(["steady", "--zeta", "0", "--xi1", "1", "--solver", "analytic"]) == 0
    out = capsys.readouterr().out
    pops = re.search(r"populations \(ee, ge, eg, gg\) = \(([^)]*)\)", out).group(1)
    assert_allclose(
        [float(v) for v in pops.split(",")], [1 / 9, 2 / 9, 2 / 9, 4 / 9], atol=1e-12
    )


def test_steady_numeric_handles_imaginary_drive(capsys):
    assert main(["steady", "--xi2", "1", "--solver", "numeric"]) == 0
    assert "superoperator residual" in capsys.readouterr().out


def steady_figures(capsys, *argv):
    """The report's full-precision figures: populations, concurrence, negativity, purity."""
    assert main(["steady", *argv]) == 0
    out = capsys.readouterr().out
    pops = re.search(r"populations \(ee, ge, eg, gg\) = \(([^)]*)\)", out).group(1)
    figures = [float(re.search(rf"{key} = (\S+)", out).group(1))
               for key in ("concurrence", "negativity", "purity")]
    return np.array([float(v) for v in pops.split(",")] + figures)


def test_steady_usage_errors(capsys):
    assert main(["steady", "--solver", "bogus"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    # a drive with both components is not a usage error: the closed form matches the null space
    drive = ["--zeta", "10", "--xi1", "1.2", "--xi2", "0.9"]
    exact = steady_figures(capsys, *drive, "--solver", "analytic")
    assert exact[4] > 0.1  # entangled
    assert np.abs(exact - steady_figures(capsys, *drive, "--solver", "numeric")).max() <= 1e-12


def test_steady_rejects_non_finite_parameters(capsys, recwarn):
    for argv in (["--zeta", "nan"], ["--xi1", "inf"], ["--xi2=-inf", "--solver", "numeric"]):
        assert main(["steady", *argv]) == 2
        assert "must be finite" in capsys.readouterr().err
    assert not recwarn.list


def test_steady_routes_agree_at_an_imaginary_drive(capsys):
    assert main(["steady", "--zeta", "5", "--xi2", "1", "--solver", "both"]) == 0
    out = capsys.readouterr().out
    assert float(re.search(r"equation residual = (\S+)", out).group(1)) <= 1e-13
    assert float(re.search(r"discrepancy \(Frobenius\) = (\S+)", out).group(1)) <= 1e-12


def test_steady_at_large_scale_matches_the_exact_concurrence(capsys):
    # the entries of L reach 2e9 here, so its null vector has a residual above 1e-9
    x2 = 1e4**2 + 3e3**2
    exact = 2 * x2 * (1e9 - x2) / (1e9**2 + (1 + 2 * x2) ** 2)
    for solver in ("numeric", "both"):
        assert main(["steady", "--zeta", "1e9", "--xi1", "1e4", "--xi2", "3e3",
                     "--solver", solver]) == 0
        c = float(re.search(r"concurrence = (\S+)", capsys.readouterr().out).group(1))
        assert abs(c - exact) <= 1e-12


def test_overflow_is_one_error_line(tmp_path, capsys):
    huge = ["--zeta", "1e200", "--xi1", "1e100"]
    for argv in (
        ["steady", *huge, "--solver", "analytic"],
        ["steady", *huge, "--solver", "both"],
        ["sweep", "--grid", "0:1e200:3,0:1e100:3", "--solver", "both",
         "--out", str(tmp_path / "x.csv")],
        ["dynamics", *huge, "--t-final", "1", "--out", str(tmp_path / "d.csv")],
    ):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure") and err.count("\n") == 1
    # the numeric route still solves there: C = 0 exactly, since |xi|^2 > zeta
    assert main(["steady", *huge, "--solver", "numeric"]) == 0
    assert float(re.search(r"concurrence = (\S+)", capsys.readouterr().out).group(1)) <= 1e-12


def test_an_overflowed_closed_form_is_named_as_non_finite(capsys):
    # D = zeta^2 + (1 + 2 xi1^2)^2 overflows at xi1 = 1e100, and the state is NaN
    assert main(["steady", "--zeta", "0", "--xi1", "1e100", "--solver", "analytic"]) == 3
    assert capsys.readouterr().err == ("numerical failure: at (zeta, xi1, xi2) = (0, 1e+100, 0): "
                                       "density matrix has non-finite entries\n")


def test_steady_writes_report_file(tmp_path, capsys):
    report = tmp_path / "steady.txt"
    assert main(["steady", "--zeta", "10", "--xi1", "2.135", "--out", str(report)]) == 0
    assert report.read_text() == capsys.readouterr().out


def test_sweep_grid_traversal(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--grid", "0:10:3,0:4:3", "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert header == CSV_HEADER
    assert len(rows) == 9
    # zeta-major traversal: zeta varies slowest
    assert [r[0] for r in rows] == [0, 0, 0, 5, 5, 5, 10, 10, 10]
    assert [r[1] for r in rows] == [0, 2, 4] * 3
    # undriven column stays unentangled
    for r in rows[::3]:
        assert r[3] == 0.0
    stdout = capsys.readouterr().out
    assert "argmax concurrence" in stdout
    assert "wrote 9 rows" in stdout


def test_sweep_population_columns_sum_to_one(tmp_path):
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--grid", "2:8:3,0.5:2:2", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    for r in rows:
        assert_allclose(sum(r[6:10]), 1.0, atol=1e-9)
        assert r[10] <= 1e-10  # closed-form residual column


def test_sweep_solver_both_reports_route_discrepancy(tmp_path):
    out = tmp_path / "point.csv"
    assert main(["sweep", "--grid", "10:10:1,2.135:2.135:1", "--solver", "both", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert len(rows) == 1
    assert rows[0][10] <= 1e-9


def test_sweep_is_deterministic_across_workers(tmp_path):
    paths = [tmp_path / f"run{k}.csv" for k in range(3)]
    grid = "0:10:4,0:4:4"
    assert main(["sweep", "--grid", grid, "--out", str(paths[0])]) == 0
    assert main(["sweep", "--grid", grid, "--out", str(paths[1])]) == 0
    assert main(["sweep", "--grid", grid, "--workers", "2", "--out", str(paths[2])]) == 0
    first = paths[0].read_bytes()
    assert first == paths[1].read_bytes()
    assert first == paths[2].read_bytes()


class _InlineContext:
    """A multiprocessing context whose pool records its size and runs tasks in-process."""

    def __init__(self):
        self.sizes = []

    def Pool(self, size):
        self.sizes.append(size)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, func, tasks):
        return list(itertools.starmap(func, tasks))


def test_sweep_workers_are_capped_at_the_cpu_count(tmp_path, monkeypatch):
    paths = [tmp_path / f"run{k}.csv" for k in range(2)]
    grid = "0:10:4,0:4:4"
    assert main(["sweep", "--grid", grid, "--out", str(paths[0])]) == 0
    context = _InlineContext()
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: context)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert main(["sweep", "--grid", grid, "--workers", "10000", "--out", str(paths[1])]) == 0
    assert context.sizes == [3]
    assert paths[0].read_bytes() == paths[1].read_bytes()
    # an unknown CPU count runs in-process
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert main(["sweep", "--grid", grid, "--workers", "8", "--out", str(paths[1])]) == 0
    assert context.sizes == [3]


def test_importing_the_cli_leaves_multiprocessing_unimported():
    # only a sweep with more than one worker imports it, so no other command pays for it
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, polent.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


def test_sweep_usage_errors(tmp_path, capsys, recwarn):
    out = str(tmp_path / "x.csv")
    assert main(["sweep", "--grid", "0:10:3,0:4:3"]) == 2  # missing --out
    assert main(["sweep", "--grid", "0:10", "--out", out]) == 2
    capsys.readouterr()
    assert main(["sweep", "--grid", "0:1,0:4:3", "--out", out]) == 2
    assert capsys.readouterr().err == "error: grid range must be MIN:MAX:STEPS, got '0:1'\n"
    assert main(["sweep", "--grid", "0:10:0,0:4:3", "--out", out]) == 2
    assert main(["sweep", "--grid", "10:0:3,0:4:3", "--out", out]) == 2
    # a complex drive is not a usage error: the closed-form rows match the numeric ones
    numeric = str(tmp_path / "numeric.csv")
    assert main(["sweep", "--grid", "0:10:3,0:4:3", "--xi2", "1", "--out", out]) == 0
    assert main(["sweep", "--grid", "0:10:3,0:4:3", "--xi2", "1", "--solver", "numeric",
                 "--out", numeric]) == 0
    exact, approx = (np.loadtxt(path, delimiter=",", skiprows=1) for path in (out, numeric))
    assert np.abs(exact[:, :10] - approx[:, :10]).max() <= 1e-12
    assert main(["sweep", "--grid", "0:10:3,0:4:3", "--solver", "bogus", "--out", out]) == 2
    for grid in ("0:nan:3,0:4:3", "0:inf:3,0:4:3", "nan:1:3,0:4:3", "0:10:3,-inf:4:3"):
        assert main(["sweep", "--grid", grid, "--out", out]) == 2
    assert main(["sweep", "--grid", "0:10:3,0:4:3", "--xi2", "nan", "--solver", "numeric",
                 "--out", out]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not recwarn.list


def test_sweep_csv_uses_lf_line_endings(tmp_path):
    out = tmp_path / "lf.csv"
    assert main(["sweep", "--grid", "0:1:2,0:1:2", "--out", str(out)]) == 0
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_witness_report(capsys):
    assert main(["witness", "--zeta", "10", "--xi1", "2.135"]) == 0
    out = capsys.readouterr().out
    assert "normalization" in out
    value = float(re.search(r"Tr\[W rho\] = (\S+)", out).group(1))
    assert value < 0
    floor = float(re.search(r"min sampled separable expectation = (\S+) ", out).group(1))
    assert floor >= -1e-8
    assert "dominant set" in out


def test_witness_exit_code_for_separable_state(capsys):
    assert main(["witness", "--zeta", "5"]) == 4
    assert "not entangled" in capsys.readouterr().err


def test_validate_without_drive(capsys):
    assert main(["validate", "--alpha-re", "0", "--nmax", "2", "--t-final", "2"]) == 0
    out = capsys.readouterr().out
    td = float(re.search(r"reduced qubit pair vs effective model\) = (\S+)", out).group(1))
    assert td <= 1e-10
    amp = float(re.search(r"adiabatic prediction\| = (\S+)", out).group(1))
    assert amp <= 1e-10


def test_validate_flags_mapping_convention(capsys):
    assert main(["validate", "--nmax", "3", "--t-final", "2"]) == 0
    out = capsys.readouterr().out
    assert "zeta = 5" in out


def test_validate_fails_where_the_level_solve_cannot_certify(capsys):
    # the level solve's gap at n_max 6 is 5.5e-11 here, so the solve raises;
    # inverted whole, its state moves by 1.0 from n_max 6 to 8: exit 3 either way
    argv = ["validate", "--delta=-1e4", "--kappa", "1e-3", "--alpha-re", "1e8", "--nmax", "6"]
    assert main(argv + ["--t-final", "2"]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: ")


def test_validate_usage_errors(capsys):
    for horizon in ("-1", "0"):
        assert main(["validate", "--nmax", "2", "--t-final", horizon]) == 2
        captured = capsys.readouterr()
        assert "error: t-final must be positive" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""


def test_validate_rejects_tight_photon_cutoff(capsys):
    assert main(["validate", "--nmax", "1", "--t-final", "2"]) == 3
    assert "nmax" in capsys.readouterr().err


def test_validate_reads_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kappa = 20\nnmax = 2\nt-final = 2\n# comment\n\nalpha-re = 0\n")
    assert main(["validate", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "kappa/J = 20" in out
    assert "kappa = 20" in out


def test_validate_reports_the_uncoupled_model(capsys):
    # J = 0 is an accepted model: its header reads kappa/J = inf, not a division failure
    assert main(["validate", "--j", "0", "--nmax", "2", "--t-final", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("validation report (kappa/J = inf)\n")
    assert "J = 0, " in out


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "steady.cfg"
    cfg.write_text("zeta = 3\nxi1 = 1\nsolver = analytic\n")
    assert main(["steady", "--config", str(cfg), "--zeta", "4"]) == 0
    assert "zeta = 4, xi1 = 1" in capsys.readouterr().out


def test_config_error_handling(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    assert main(["steady", "--config", missing]) == 2
    bad_key = tmp_path / "bad.cfg"
    bad_key.write_text("bogus = 1\n")
    assert main(["steady", "--config", str(bad_key)]) == 2
    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("zeta 3\n")
    assert main(["steady", "--config", str(malformed)]) == 2
    bad_value = tmp_path / "value.cfg"
    bad_value.write_text("zeta = fast\n")
    assert main(["steady", "--config", str(bad_value)]) == 2
    capsys.readouterr()


def test_dynamics_tracks_relaxation(tmp_path, capsys):
    out = tmp_path / "relax.csv"
    code = main([
        "dynamics", "--zeta", "10", "--xi1", "2.135",
        "--t-final", "5", "--sample-every", "1000", "--out", str(out),
    ])
    assert code == 0
    header, rows = read_rows(out)
    assert header == "t,concurrence,pop_ee,pop_ge,pop_eg,pop_gg,trace_drift"
    assert rows[0] == [0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0]
    assert_allclose([r[0] for r in rows], [0.0, 1.0, 2.0, 3.0, 4.0, 5.0], atol=1e-9)
    # settles near the stationary concurrence
    assert abs(rows[-1][1] - 0.2452) <= 0.01
    assert max(r[6] for r in rows) <= 1e-8
    capsys.readouterr()


def test_dynamics_without_drive_stays_in_ground_state(tmp_path, capsys):
    out = tmp_path / "idle.csv"
    assert main(["dynamics", "--zeta", "4", "--t-final", "0.5", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert len(rows) == 6  # t = 0 plus five sampled steps
    for r in rows:
        assert r[1] == 0.0
        assert_allclose(r[2:6], [0, 0, 0, 1], atol=1e-12)
    capsys.readouterr()


def test_dynamics_takes_a_cadence_beyond_int64(tmp_path, capsys):
    run = ["dynamics", "--zeta", "10", "--xi1", "2", "--t-final", "1"]
    huge, reference = tmp_path / "huge.csv", tmp_path / "reference.csv"
    assert main([*run, "--sample-every", str(2**63), "--out", str(huge)]) == 0
    assert main([*run, "--sample-every", "1000000", "--out", str(reference)]) == 0
    assert huge.read_bytes() == reference.read_bytes()
    assert len(read_rows(huge)[1]) == 2
    capsys.readouterr()


def test_dynamics_usage_and_failure_exits(tmp_path, capsys):
    assert main(["dynamics", "--zeta", "1"]) == 2  # missing --out
    out = str(tmp_path / "x.csv")
    assert main(["dynamics", "--zeta", "1", "--dt", "-0.1", "--out", out]) == 2
    for horizon in ("-1", "0"):
        assert main(["dynamics", "--zeta", "1", "--t-final", horizon, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "error: t-final must be positive" in err and "Traceback" not in err
    code = main([
        "dynamics", "--zeta", "10", "--xi1", "2.135",
        "--t-final", "20", "--dt", "0.5", "--out", out,
    ])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("dt, t_final", [("1e-320", "1"), ("1e-310", "1e10"), ("1e-300", "1")])
def test_dynamics_names_a_step_count_that_overflows(tmp_path, capsys, dt, t_final):
    # at 1e-300 the count, 1e300 steps, is finite but larger than any array holds
    out = tmp_path / "d.csv"
    assert main(["dynamics", "--zeta", "10", "--xi1", "2", "--dt", dt, "--t-final", t_final,
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("numerical failure: the step count t_final / dt")
    assert "Traceback" not in err and not out.exists()


def test_dynamics_names_an_unstable_dt_before_stepping(tmp_path, capsys):
    # at dt = 0.14 the RK4 step matrix has spectral radius 1.27 on the ridge: the
    # state turns non-positive long before the trace drift would show it
    out = tmp_path / "d.csv"
    assert main(["dynamics", "--zeta", "10", "--xi1", "2.135", "--dt", "0.14",
                 "--t-final", "30", "--sample-every", "1", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure") and err.endswith("reduce dt below 0.14\n")
    assert not out.exists()


@pytest.mark.parametrize("dt", ["0.1", "0.05"])
def test_dynamics_names_dt_when_the_state_loses_positivity(tmp_path, capsys, dt):
    # a stable step that overshoots the early transient: the first state has
    # a negative eigenvalue (-1.1e-3 at dt = 0.1, -5.2e-5 at dt = 0.05)
    out = tmp_path / "d.csv"
    assert main(["dynamics", "--zeta", "10", "--xi1", "2.135", "--dt", dt,
                 "--t-final", "30", "--sample-every", "1", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("numerical failure: state at t = ")
    assert "negative eigenvalue" in err and err.endswith(f"reduce dt below {dt}\n")
    assert not out.exists()


def test_unknown_command_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_memory_error_exits_3_with_one_line(monkeypatch, capsys):
    # what numpy raises when a large --nmax outgrows the address space
    def exhausted(liouvillian):
        raise MemoryError("Unable to allocate 3.52 GiB for an array with shape (15376, 15376)")

    monkeypatch.setattr(cli, "steady_state", exhausted)
    assert main(["validate"]) == 3
    assert capsys.readouterr().err == ("numerical failure: Unable to allocate 3.52 GiB for an "
                                       "array with shape (15376, 15376)\n")


def test_validate_caps_nmax_before_building_a_model(monkeypatch, capsys):
    def refuse(p):
        raise AssertionError("validate built a model for an n_max above the cap")

    monkeypatch.setattr(cli, "build_full_model", refuse)
    assert main(["validate", "--nmax", str(cli.MAX_NMAX + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: nmax must be at most {cli.MAX_NMAX}, got {cli.MAX_NMAX + 1}\n"


# one bad value for each converter a command uses, as (option, text)
BAD_VALUES = {
    "steady": [("zeta", "abc"), ("solver", "bogus")],
    "sweep": [("grid", "0:10:0,0:4:3"), ("xi2", "nan"), ("solver", "fast"), ("workers", "0")],
    "witness": [("xi1", "inf")],
    "validate": [("j", "x"), ("kappa", "0"), ("nmax", str(cli.MAX_NMAX + 1)), ("t_final", "-1")],
    "dynamics": [("xi2", "1e400"), ("dt", "-0.1"), ("sample_every", "1.5")],
}


@pytest.mark.parametrize("command, name, text",
                         [(c, n, t) for c, bad in BAD_VALUES.items() for n, t in bad])
def test_a_flag_and_a_config_line_give_the_same_error(tmp_path, capsys, command, name, text):
    csv = tmp_path / "x.csv"
    out = ["--out", str(csv)] if command in ("sweep", "dynamics") else []
    flag = name.replace("_", "-")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag} = {text}\n")
    errors = []
    # a SystemExit from argparse would end the test here
    for argv in ([command, f"--{flag}={text}", *out], [command, "--config", str(cfg), *out]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        errors.append(captured.err)
    assert errors[0] == errors[1]
    assert errors[0].startswith(f"error: {flag} ") and " must " in errors[0]
    assert not csv.exists()


# negative values that argparse's own negative-number patterns miss
NEGATIVE_VALUES = [
    ["steady", "--zeta", "10", "--xi1", "-2e-1"],
    ["steady", "--zeta", "-1E2", "--xi1", "2", "--solver", "numeric"],
    ["steady", "--xi1", "-inf"],
    ["steady", "--xi2", "-nan"],
    ["validate", "--delta", "-1e4", "--nmax", "2", "--t-final", "2"],
    ["dynamics", "--zeta", "10", "--xi1", "-2.135e0", "--t-final", "1", "--out", "CSV"],
    ["sweep", "--grid", "-1:0:3,0:1:3", "--xi2", "-1e-1", "--out", "CSV"],
]


@pytest.mark.parametrize("argv", NEGATIVE_VALUES, ids=["exponent", "capital-E", "inf", "nan",
                                                        "validate", "dynamics", "grid"])
def test_a_negative_value_reads_as_its_equals_spelling(tmp_path, capsys, argv):
    csv = tmp_path / "x.csv"
    argv = [str(csv) if token == "CSV" else token for token in argv]
    joined = [argv[0]] + [f"{flag}={value}" for flag, value in zip(argv[1::2], argv[2::2])]
    results = []
    for spelling in (argv, joined):
        code = main(spelling)  # argparse's "expected one argument" would end the test here
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err, csv.read_bytes() if csv.exists() else None))
        csv.unlink(missing_ok=True)
    assert results[0] == results[1]


def test_a_flag_before_another_flag_still_lacks_its_value(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["steady", "--xi1", "--zeta", "3"])
    assert exc.value.code == 2
    assert "argument --xi1: expected one argument" in capsys.readouterr().err


def test_unusable_paths_are_one_usage_line(tmp_path, capsys):
    for command in ("sweep", "dynamics"):
        assert main([command]) == 2
        assert capsys.readouterr().err == "error: out must be given\n"
    not_utf8 = tmp_path / "latin1.cfg"
    not_utf8.write_bytes(b"zeta = \xff\n")
    nul_out = tmp_path / "nul.cfg"
    nul_out.write_text("out = a\0b\n")
    for argv in (["steady", "--config=a\0b"], ["steady", "--config", str(not_utf8)],
                 ["sweep", "--grid", "0:1:1,0:1:1", "--config", str(nul_out)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot ") and err.count("\n") == 1
    # a report is printed before its file is written: the file's failure is the last line
    missing = tmp_path / "no-such-dir" / "x.txt"
    assert main(["steady", "--zeta", "10", "--xi1", "2", "--out", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("steady state at zeta = 10, xi1 = 2")
    assert captured.err.startswith(f"error: cannot write {missing}: ") and captured.err.count("\n") == 1


def test_one_parser_answers_every_call_as_a_fresh_one_does(tmp_path, monkeypatch, capsys):
    csv = tmp_path / "x.csv"
    calls = [["steady", "--zeta", "10", "--xi1", "2.135"],
             ["sweep", "--grid", "0:10:3,0:4:3", "--solver", "both", "--out", str(csv)],
             ["steady", "--no-such-flag", "1"],
             ["validate", "--nmax", str(cli.MAX_NMAX + 1)]] * 2

    def run():
        results = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's own usage error
                code = exc.code
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err, csv.read_bytes() if csv.exists() else None))
            csv.unlink(missing_ok=True)
        return results

    reused = run()
    assert cli._build_parser() is cli._build_parser()
    assert [r[0] for r in reused] == [0, 0, 2, 2] * 2
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)  # a new parser per call
    assert run() == reused


def test_csv_bytes_are_those_of_savetxt(tmp_path):
    # the special values, then enough rows to cross the 1,024-row chunks
    special = [[-0.0, np.nan, np.inf], [-np.inf, 5e-324, 1.7976931348623157e308],
               [-5e-324, -1.7976931348623157e308, 0.1], [1 / 3, -2.0, 1e-300]]
    rows = np.concatenate([special, np.random.default_rng(4).normal(size=(2500, 3)) * 10.0**np.arange(-3, 6, 4)])
    cli._write_csv(str(tmp_path / "rows.csv"), ("a", "b", "c"), rows)
    with open(tmp_path / "savetxt.csv", "w", encoding="utf-8", newline="") as fh:
        np.savetxt(fh, rows, fmt="%.17g", delimiter=",", header="a,b,c", comments="")
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()
