"""cli.py calls no library physics: it parses options, formats the reports of polent.runs,
writes files and maps failures to exit codes.

The one exception is cmd_dynamics's call of concurrence: it takes its run from
runs.dynamics, but the benchmark's tracer test (perfbench/test_perfbench.py)
reads the name cli.concurrence and counts the spans of that run, so that call
stays where the benchmark looks for it until the benchmark changes.
"""

import ast
from pathlib import Path

import polent

CLI = Path(polent.__file__).parent / "cli.py"
PHYSICS = {
    "steady_state", "build_liouvillian", "stationarity_residuals", "closed_form", "build_full_model",
    "map_physical", "partial_trace", "trace_distance", "adiabatic_amplitude", "entanglement",
    "mode_lowering", "build_effective_model", "evolve", "concurrence", "construct_witness", "separable_floor",
}
EXCEPTIONS = {"cmd_dynamics": {"concurrence"}}


def physics_calls(source: str) -> list[str]:
    """'function: callee' for each call of a PHYSICS name, by name or attribute, outside EXCEPTIONS."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in PHYSICS and name not in EXCEPTIONS.get(owner, ()):
                    found.append(f"{owner}: {name}")
    return found


def test_cli_calls_no_physics():
    calls = physics_calls(CLI.read_text(encoding="utf-8"))
    assert not calls, f"cli.py calls library physics; it belongs in polent.runs: {calls}"


def test_the_lint_sees_a_call_by_name_or_through_a_module():
    source = "def cmd_x():\n    lindblad.steady_state(l)\n    return [concurrence(r)]\n"
    assert physics_calls(source) == ["cmd_x: steady_state", "cmd_x: concurrence"]
    assert physics_calls("def cmd_dynamics():\n    concurrence(r)\n    evolve(l)\n") == [
        "cmd_dynamics: evolve"]


def test_each_exception_is_still_used():
    # an exception that cmd_dynamics no longer needs is taken off the list
    moved = physics_calls(CLI.read_text(encoding="utf-8").replace("def cmd_dynamics(", "def cmd_moved("))
    assert sorted(moved) == sorted(f"cmd_moved: {name}" for name in EXCEPTIONS["cmd_dynamics"])
