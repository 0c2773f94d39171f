"""Span tracer installed around polent's public functions from outside the package.

``Tracer`` wraps every public function a polent module defines, and rebinds
that name in every polent module that holds it (``from .x import f`` copies
and the package re-exports), so calls from one module into another are
timed too. Dataclass validation is timed by wrapping ``__post_init__`` on
the class and is reported under the class name, e.g. ``qops.DensityMatrix``.
Leaving the ``with`` block puts every original back.

Spans stay in memory as (name, start_ns, end_ns, parent index). A span's
self time is its duration minus the time of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

LAYERS = ("analytic", "model", "lindblad", "entangle", "qops", "cli")


def _steady_state(counts, a, result):
    side = a["liouv"].matrix.shape[0]
    counts["lindblad.steady_state.max_dim"] = max(counts["lindblad.steady_state.max_dim"], side)
    counts[f"lindblad.steady_state.side.{side}"] += 1


def _build_liouvillian(counts, a, result):
    counts["lindblad.liouvillian_bytes_computed"] += result.matrix.nbytes


def _evolve(counts, a, result):
    # the step count evolve() documents: round(t_final / dt), at least 1 when t_final > 0
    steps = max(1, int(round(a["t_final"] / a["dt"]))) if a["t_final"] > 0 else 0
    counts["lindblad.evolve.steps"] += steps


def _separable_floor(counts, a, result):
    counts["entangle.separable_floor.samples"] += a["n_pure"] + a["n_mixed"]


# work counters computed from a call's bound arguments and its result, by span name
HOOKS = {
    "lindblad.steady_state": _steady_state,
    "lindblad.build_liouvillian": _build_liouvillian,
    "lindblad.evolve": _evolve,
    "entangle.separable_floor": _separable_floor,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        package = importlib.import_module("polent")
        modules = {layer: importlib.import_module(f"polent.{layer}") for layer in LAYERS}
        holders = [package, *modules.values()]
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isfunction(obj):
                    wrapper = self._wrap(name, obj)
                    for holder in holders:
                        for key, value in list(vars(holder).items()):
                            if value is obj:
                                self._set(holder, key, wrapper)
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    self._set(obj, "__post_init__", self._wrap(name, vars(obj)["__post_init__"]))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _wrap(self, name: str, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter_ns
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(counts, bound.arguments, result)
            return result

        return wrapper

    def take(self) -> tuple[dict[str, list[int]], Counter]:
        """Per span name [calls, total ns, self ns], and the counters; then reset both."""
        child = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[str, list[int]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = stats.setdefault(name, [0, 0, 0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[i]
        counts = Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return stats, counts
