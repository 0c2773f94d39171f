"""tools/solve_costs.py's stage tables time the functions that polent's calls run."""

import importlib.util
import inspect
from pathlib import Path

import pytest

from polent import analytic, cli, entangle, lindblad, model, qops

TOOL = Path(__file__).resolve().parents[1] / "tools" / "solve_costs.py"
HOLDERS = (analytic, cli, entangle, lindblad, model, qops, qops.DensityMatrix)


@pytest.fixture(scope="module")
def solve_costs():
    spec = importlib.util.spec_from_file_location("solve_costs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_every_timed_name_is_a_function_of_its_module(solve_costs):
    # a renamed function would otherwise drop out of the tables without a word
    for owner, names in solve_costs.TIMED:
        for name in names:
            assert inspect.isfunction(vars(owner).get(name)), f"{owner.__name__}.{name} is gone"


def _rows_add_up(rows: dict) -> None:
    whole = rows.pop("in all")
    assert whole > 0
    assert all(ms >= 0 for ms in rows.values()), rows
    assert sum(rows.values()) == pytest.approx(whole, rel=1e-9)


def test_a_level_solve_is_timed_by_its_stages(solve_costs):
    before = [dict(vars(holder)) for holder in HOLDERS]
    liouv = solve_costs._full(6)  # side 784: the level route, whose plans are too large to keep
    rows = solve_costs.fastest(lambda: lindblad.steady_state(liouv), repeats=1)
    assert ["_real_form_plan (plan)", "_real_form", "_exchange_plan (plan)", "_to_exchange_basis", "_levels",
            "_eliminate (elimination)",
            "_triangularize_by_levels (elimination)", "_solve_by_levels (Gram recursion)",
            "stationarity_residuals (residual)", "DensityMatrix (check)",
            "steady_state (gap and residual checks)", "in all"] == list(rows)
    _rows_add_up(rows)
    # every function is itself again after the run
    after = [dict(vars(holder)) for holder in HOLDERS]
    assert all(a.keys() == b.keys() and all(a[k] is b[k] for k in a) for a, b in zip(before, after))


def test_the_evolve_and_sweep_tables_add_up(solve_costs):
    evolve = solve_costs.evolve_times(lindblad.STRIDE, repeats=1)
    assert {"_step_powers (set-up, X_j)", "_step_powers (anchor level, Y_b)", "_batches (batch products)",
            "evolve (set-up and loop)"} <= set(evolve)
    _rows_add_up(evolve)
    sweep = solve_costs.sweep_times(repeats=1)
    assert {"_solve_whole (inverse)", "entanglement (spectrum and gate)", "_concurrence (tau and svd)",
            "_write_csv (CSV rows)"} <= set(sweep)
    _rows_add_up(sweep)
    # a warm block builds no plan; a cold one builds each of its four
    plans = {"_assembly_plan (plan)", "_real_form_plan (plan)", "_exchange_plan (plan)", "_whole_plan (plan)"}
    assert not plans & set(sweep)
    cold = solve_costs.sweep_times(repeats=1, cold=True)
    assert plans <= set(cold)
    _rows_add_up(cold)


def test_the_witness_table_adds_up(solve_costs):
    # a warm floor only evaluates the kept samples; a cold one draws them too
    draws = {"_sample_blocks (draws)", "_bloch_vectors"}
    evaluation = {"_product_expectations (expectations)", "_block_floor (mixtures and minimum)",
                  "separable_floor (checks and kept set)"}
    warm = solve_costs.witness_times(repeats=1)
    assert set(warm) == evaluation | {"in all"}
    _rows_add_up(warm)
    cold = solve_costs.witness_times(repeats=1, cold=True)
    assert set(cold) == draws | evaluation | {"in all"}
    _rows_add_up(cold)
