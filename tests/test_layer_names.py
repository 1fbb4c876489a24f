"""The benchmark's tracer looks up wvg functions by name; keep those names."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
