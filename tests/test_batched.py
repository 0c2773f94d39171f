"""Tests for the stacked evaluation path that sweep and steady share."""

import re

import numpy as np
import pytest

from stationarity_oracle import solve_linear_system

from polent import cli, lindblad
from polent.cli import main
from polent.entangle import entanglement
from polent.lindblad import build_liouvillian, steady_state
from polent.model import DimensionlessParams, build_effective_model
from polent.qops import TWO_QUBITS, DensityMatrix


def random_points(n, seed):
    # signed parameters at scales from 1 to 1e3
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(0.0, 3.0, size=(n, 1))
    return rng.uniform(-1.0, 1.0, size=(n, 3)) * scale


def grid_points(xi2=0.0):
    # 9x9, zeta-major, with the zeta = 0 and xi1 = 0 edges
    zs, xs = np.linspace(0.0, 10.0, 9), np.linspace(0.0, 4.0, 9)
    return np.repeat(zs, 9), np.tile(xs, 9), np.full(81, xi2)


def exact_concurrence(zeta, xi1):
    return np.maximum(0.0, 2.0 * xi1**2 * (zeta - xi1**2) / (zeta**2 + (1.0 + 2.0 * xi1**2) ** 2))


def test_stacked_liouvillian_equals_per_point_build():
    pts = random_points(200, 1)
    stack = build_liouvillian(build_effective_model(DimensionlessParams(*pts.T))).matrix
    for (zeta, xi1, xi2), lm in zip(pts, stack):
        single = build_liouvillian(build_effective_model(DimensionlessParams(zeta, xi1, xi2)))
        assert np.array_equal(lm, single.matrix)


@pytest.mark.parametrize(
    "solver, xi2", [("analytic", 0.0), ("numeric", 0.0), ("both", 0.0), ("numeric", 0.7)]
)
def test_rows_do_not_depend_on_block_boundaries(monkeypatch, solver, xi2):
    points = grid_points(xi2)
    whole = cli._sweep_rows(*points, solver)
    assert whole.shape == (81, 11)
    for size in (1, 7):
        monkeypatch.setattr(cli, "BLOCK_SIZE", size)
        assert cli._sweep_rows(*points, solver).tobytes() == whole.tobytes()


@pytest.mark.parametrize("solver", ["analytic", "numeric", "both"])
def test_rows_match_independent_references(solver):
    points = grid_points()
    rows = cli._sweep_rows(*points, solver)
    worst = 0.0
    for zeta, xi1, xi2, c, neg, purity, *rest in rows:
        pops, res = rest[:4], rest[4]
        ref = DensityMatrix(TWO_QUBITS, solve_linear_system(zeta, xi1, xi2))
        worst = max(
            worst,
            abs(c - exact_concurrence(zeta, xi1)),
            abs(neg - entanglement(ref)[1]),
            abs(purity - np.trace(ref.matrix @ ref.matrix).real),
            np.abs(np.array(pops) - ref.matrix.diagonal().real).max(),
        )
        assert 0.0 <= res <= 1e-12
    assert worst <= 1e-12


@pytest.mark.parametrize("solver", ["analytic", "numeric", "both"])
def test_one_point_has_the_bits_it_has_in_a_block(solver):
    # steady, witness and validate evaluate one point from floats, sweep a block from arrays
    points = grid_points(0.7)
    block = cli._evaluate(*points, solver, measures=True, equation_residual=True)
    for k in range(0, 81, 8):
        one = cli._evaluate(*(float(v[k]) for v in points), solver, measures=True, equation_residual=True)
        assert one.keys() == block.keys()
        assert one["rho"].matrix.tobytes() == block["rho"].matrix[k].tobytes()
        for key in one.keys() - {"rho"}:
            assert np.asarray(one[key]).tobytes() == block[key][k].tobytes(), key


def test_failing_point_inside_a_block_is_named(monkeypatch, tmp_path, capsys):
    zs, xs = np.linspace(2.5, 10.0, 7), np.linspace(0.0, 4.0, 9)
    zeta, xi1 = np.repeat(zs, 9), np.tile(xs, 7)
    stack = build_liouvillian(build_effective_model(DimensionlessParams(zeta, xi1)))
    gaps = steady_state(stack).gap
    floor = 0.51  # certified gaps along zeta = 2.5 are 0.5145, 0.5093, 0.5204, ...
    first = int(np.argmax(gaps <= floor))
    assert first % 4 != 0  # inside a block of 4, not at its start
    monkeypatch.setattr(lindblad, "GAP_FLOOR", floor)
    monkeypatch.setattr(cli, "BLOCK_SIZE", 4)
    code = main(["sweep", "--grid", "2.5:10:7,0:4:9", "--solver", "numeric",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert "stationary space is degenerate" in err
    named = re.search(r"at \(zeta, xi1, xi2\) = \((\S+), (\S+), (\S+)\)", err)
    assert tuple(map(float, named.groups())) == (zeta[first], xi1[first], 0.0)
    assert not (tmp_path / "x.csv").exists()


def test_no_check_forms_a_dense_liouvillian(monkeypatch, tmp_path, capsys):
    def dense(liouv):
        raise AssertionError("a dense Liouvillian was formed")

    monkeypatch.setattr(lindblad.Liouvillian, "matrix", property(dense))
    points = grid_points(0.3)
    for solver in ("analytic", "numeric", "both"):
        assert cli._sweep_rows(*points, solver).shape == (81, 11)
    assert cli.cmd_steady(10.0, 2.135, 0.3, "both") == 0
    assert cli.cmd_witness(10.0, 2.135, 0.0) == 0
    assert cli.cmd_dynamics(10.0, 2.135, 0.0, 1.0, 1e-3, 100, str(tmp_path / "d.csv")) == 0
    assert cli.cmd_validate(1.0, 10.0, 10.0, 0.01, 0.5, 0.0, 4, 2.0) == 0
    capsys.readouterr()
