"""The first seeded calls of the bench workloads reproduce their pinned output digests.

Replays the first ``CALLS[workload]`` command lines of seed 1 of each
workload (20 of ``queries`` and ``study-grid``, and the first two of
``study-default``, one default ``wvg experiment`` per kind), as
``perfbench/workloads.py`` generates them, through
``wvg.cli.main`` and compares each output's digest (``perfbench/checks.py``)
with ``perfbench/pinned.json``. Each Monte-Carlo call is replayed a second
time with ``--threads 1`` appended, as the bench's replay check does, and
must give the same digest. Nothing under ``perfbench/`` is written.
"""

import contextlib
import importlib.util
import io
import json
import sys
from itertools import count
from pathlib import Path

import pytest

from wvg.cli import main

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 1
CALLS = {"queries": 20, "study-grid": 20, "study-default": 2}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
checks = _load("checks")
PINNED = json.loads((BENCH / "pinned.json").read_text(encoding="utf-8"))


def _first_calls(workload):
    ops = []
    for cycle in count():
        ops += workloads.CYCLES[workload](SEED, cycle)
        if len(ops) >= CALLS[workload]:
            return ops[:CALLS[workload]]


def _replays(workload):
    for i, op in enumerate(_first_calls(workload)):
        yield f"{workload}-{i}", workload, i, op.argv
        if op.cls == "mc":
            yield f"{workload}-{i}-threads1", workload, i, op.argv + ("--threads", "1")


CASES = [case for w in CALLS for case in _replays(w)]


@pytest.mark.parametrize("workload, i, argv", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_output_matches_its_pinned_digest(workload, i, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    assert code == 0
    assert checks.digest(out.getvalue()) == PINNED[workload][i]
