"""The benchmark's tracer looks up wvg functions by name; keep those names."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import wvg

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    spans = _load_spans()
    named = [(m, f) for m, fns in spans.SPANNED.items() for f in fns]
    named += [(m, f) for m, fns in spans.COUNTED.items() for f in fns]
    assert ("exact", "window_sum") in named
    missing = [
        f"wvg.{m}.{f}"
        for m, f in named
        if not callable(getattr(importlib.import_module(f"wvg.{m}"), f, None))
    ]
    assert missing == []


def test_every_name_the_bench_imports_from_wvg_exists():
    """checks.py, worker.py and workloads.py import names from ``wvg`` at
    start-up; a missing one would fail every bench run."""
    imported = []
    for name in ("checks.py", "worker.py", "workloads.py"):
        tree = ast.parse((PERFBENCH / name).read_text(), filename=name)
        imported += [
            (name, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "wvg"
            for alias in node.names
        ]
    assert {name for name, _ in imported} == {"checks.py", "worker.py", "workloads.py"}
    assert [(name, n) for name, n in imported if not hasattr(wvg, n)] == []


def test_samplers_accept_a_worker_count_and_ignore_it():
    """perfbench's thread-scaling probe passes a worker count as the fourth
    positional argument of both samplers; it must not change the estimate."""
    from wvg.game import Game
    from wvg.montecarlo import McConfig, banzhaf_raw_mc, shapley_mc

    game = Game(7, (3, 2, 2, 1, 1))
    cfg = McConfig("0.01", "0.01", seed=9, sample_count_override=10_000)
    assert shapley_mc(game, 0, cfg, 2) == shapley_mc(game, 0, cfg)
    assert banzhaf_raw_mc(game, 0, cfg, 2) == banzhaf_raw_mc(game, 0, cfg)


def test_table_counters_read_the_builders_arguments():
    """perfbench computes table cells from ``args[0]`` (the weights) and
    ``args[1]`` (the cap) of each builder call, so both builders keep
    ``(weights, cap)`` as their first two parameters."""
    spans = _load_spans()
    exact = importlib.import_module("wvg.exact")
    for name in ("subset_size_weight_counts", "subset_weight_counts"):
        builder = getattr(exact, name)
        assert list(inspect.signature(builder).parameters)[:2] == ["weights", "cap"]
        args = ((3, 1, 4), 6)
        counted = spans.SPANNED["exact"][name](args, {}, builder(*args))
        assert counted["cells"] > 0
