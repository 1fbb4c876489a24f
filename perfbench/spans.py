"""Spans around the public functions of wvg's layers, installed from outside.

Each wrapper records (name, start, end, parent) in memory; per-layer numbers
are folded from the spans when the run ends. A wrapper replaces the function
on its own module and on every wvg module that imported it by name
(``from .exact import index``), because those modules call their own copy.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict

# Counters derived from a call's (args, kwargs, result); the ones README.md
# marks computed come from argument sizes, not from inside the program.


def _size_table_cells(args, kwargs, result):
    weights, cap = args[0], args[1]
    return {"cells": (len(weights) + 1) * (cap + 1)}


def _weight_table_cells(args, kwargs, result):
    return {"cells": args[1] + 1}


def _candidates(args, kwargs, result):
    return {"candidates": result.total_splits}


def _partitions(args, kwargs, result):
    return {"partitions": result.total_splits}


def _find_split(args, kwargs, result):
    game, player = args[0], args[1]
    w = game.weights[player]
    tried = min(result.parts) if result is not None else w // 2
    return {"candidates_tried": tried, "hits": int(result is not None)}


def _samples(args, kwargs, result):
    return {"samples": result.samples_used}


# Module -> function -> its counter (or None): each gets a span per call.
SPANNED = {
    "exact": {
        "subset_size_weight_counts": _size_table_cells,
        "subset_weight_counts": _weight_table_cells,
        "remove_weight": None,
        "prefix_sums": None,
        "index": None,
        "shapley_dp_vector": None,
        "shapley_enumerate": None,
        "banzhaf_counts_dp_vector": None,
        "banzhaf_counts_enumerate": None,
    },
    "manipulation": {
        "scan_two_way_splits": _candidates,
        "scan_k_way_splits": _partitions,
        "merge_benefit": None,
        "annex_benefit": None,
        "annex_monotonicity_probe": None,
        "check_split_bounds": None,
        "find_split_approx": _find_split,
    },
    "game": {"apply_split": None, "apply_merge": None},
    "montecarlo": {"shapley_mc": _samples, "banzhaf_raw_mc": _samples},
    "experiments": {
        "generate_game": None,
        "scan_game": None,
        "run_experiment": None,
        "export_stats": None,
    },
    "cli": {"main": None},
}
# Called far too often for a span each; only their calls are counted.
COUNTED = {"exact": ("window_sum",)}


def replace_everywhere(original, replacement) -> list[tuple[object, str, object]]:
    """Rebind every wvg module global that is ``original``; return undo records."""
    undo = []
    for name, module in list(sys.modules.items()):
        if not (name == "wvg" or name.startswith("wvg.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def restore(undo) -> None:
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)


class Tracer:
    """Collects spans and call counts while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._local = threading.local()
        self._undo: list = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [-1]
        return stack

    def _span_wrapper(self, name, fn, counter):
        spans = self.spans
        counts = self.counts[name]
        clock = time.perf_counter
        stack_of = self._stack

        def wrapper(*args, **kwargs):
            stack = stack_of()
            slot = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (name, start, end, parent)
            counts["calls"] += 1
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[key] += value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts[name]

        def wrapper(*args, **kwargs):
            counts["calls"] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        import wvg.cli  # noqa: F401  (loads every traced module)

        for mod_name, functions in SPANNED.items():
            module = sys.modules[f"wvg.{mod_name}"]
            for fn_name, counter in functions.items():
                original = getattr(module, fn_name)
                name = f"{mod_name}.{fn_name}"
                self._undo += replace_everywhere(
                    original, self._span_wrapper(name, original, counter)
                )
        for mod_name, functions in COUNTED.items():
            module = sys.modules[f"wvg.{mod_name}"]
            for fn_name in functions:
                original = getattr(module, fn_name)
                name = f"{mod_name}.{fn_name}"
                self._undo += replace_everywhere(original, self._count_wrapper(name, original))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ms, self ms, plus the derived counts.

        Self time is a span's duration minus the time its child spans cover.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out.setdefault(name, {"total_ms": 0.0, "self_ms": 0.0})
            row["total_ms"] += (end - start) * 1000
            row["self_ms"] += (end - start - child_time[i]) * 1000
        for name, counts in self.counts.items():
            out.setdefault(name, {}).update(counts)
        return out
