"""One workload process: set up, run the closed loop, check every output.

Started by run.py, once per set-up probe and once per measured run, so that
every run starts from a fresh interpreter. Prints one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import wvg.cli  # noqa: E402
import wvg.experiments  # noqa: E402
from wvg import Game, McConfig, banzhaf_raw_mc, shapley_mc  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedProbe, kernel_seconds, scale  # noqa: E402

# Pinned digests of every output at this seed; see pin.py.
PINNED_SEED = 1
PINNED_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json")
# Reference checks of scanned games: one sampled split every this many games.
STUDY_SAMPLE_EVERY = {"study-grid": 1, "study-default": 15}
# Traced runs make a fixed number of calls, so that their counts repeat
# exactly: one sigma's pass of study-grid, one cycle of study-default, eight
# cycles of queries; each about 7 to 9 s untraced on the baseline box.
TRACE_CALLS = {"study-grid": 40, "study-default": 2, "queries": 160}
SCALING_SAMPLES = 16384
SCALING_REPEATS = 3

# A tiny call of every command the workload issues, run once before timing.
WARMUP = {
    "study": [
        ("experiment", "--players", "5:5", "--games-per-cell", "1", "--kind", kind)
        for kind in workloads.KINDS
    ],
    "queries": [
        ("index", "--game", "7;3,3,2,2"),
        ("index", "--game", "7;3,3,2,2", "--kind", "banzhaf"),
        ("index", "--game", "7;3,3,2,2", "--engine", "mc", "--samples", "50"),
        ("index", "--game", "7;3,3,2,2", "--engine", "mc", "--samples", "50", "--kind", "banzhaf"),
        ("scan", "--game", "7;3,3,2,2", "--player", "0"),
        ("scan", "--game", "7;3,3,2,2", "--player", "0", "--k", "3"),
        ("scan", "--game", "7;3,3,2,2", "--player", "0", "--engine", "mc", "--samples", "50"),
        ("find-split", "--game", "7;3,3,2,2", "--player", "0", "--samples", "50"),
        ("merge", "--game", "7;3,3,2,2", "--coalition", "0,1"),
        ("annex", "--game", "7;3,3,2,2", "--annexer", "0", "--coalition", "1"),
        ("probe-monotonicity", "--game", "7;3,3,2,2", "--annexer", "0"),
        ("bounds", "--game", "7;3,3,2,2", "--player", "0", "--parts", "2,1"),
    ],
}


def call(argv) -> tuple[int, str, float, float]:
    """Run ``wvg.cli.main(argv)`` in-process; return (exit code, stdout, start, end).

    An exception escaping the program is a failed call (exit code -1), not
    the end of the run; its traceback goes to this process's stderr.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = wvg.cli.main(list(argv))
        except Exception:
            code = -1
            traceback.print_exc(file=sys.__stderr__)
        end = time.perf_counter()
    return code, out.getvalue(), start, end


class GameHook:
    """Times each scanned game and keeps its record until the call returns.

    Installed on ``experiments.scan_game``: per-game latency of the study
    workloads costs two clock reads per game, plus a speed sample between
    games at most every speed.INTERVAL_S, which is left out of every time.
    """

    def __init__(self, probe: SpeedProbe) -> None:
        self.records: list = []  # (start, end, record) per scanned game
        original = wvg.experiments.scan_game

        def hooked(*args, **kwargs):
            probe.sample()
            start = time.perf_counter()
            record = original(*args, **kwargs)
            self.records.append((start, time.perf_counter(), record))
            return record

        self._undo = spans.replace_everywhere(original, hooked)

    def take(self) -> list:
        records, self.records = self.records, []
        return records

    def close(self) -> None:
        spans.restore(self._undo)


@dataclass
class Call:
    """One timed call and what it returned."""

    op: workloads.Op
    index: int  # position among the run's calls
    code: int
    out: str
    start: float
    end: float
    seconds: float  # wall time, less any speed samples taken inside the call
    games: list[tuple[float, float]]  # studies: (start, end) of each game scanned


class Run:
    """The closed loop over whole cycles, checking every output as it comes.

    Each output is checked right after its call, outside the timed window,
    and dropped unless ``keep_outputs``: memory then holds no more than one
    call's output, so ``peak_rss_mb`` does not grow with the number of calls
    a run gets through.
    """

    def __init__(self, workload: str, seed: int, check: bool = True,
                 keep_outputs: bool = False, pinned: bool = True) -> None:
        self.workload = workload
        self.seed = seed
        self.study = workload.startswith("study")
        self.cycle_of = workloads.CYCLES[workload]
        self.check = check
        self.keep_outputs = keep_outputs
        self.pinned = None
        if pinned and seed == PINNED_SEED and os.path.exists(PINNED_FILE):
            with open(PINNED_FILE, encoding="utf-8") as fh:
                self.pinned = json.load(fh).get(workload)
        self.calls: list[Call] = []
        self.failed: set[int] = set()  # indices of calls with a failed check
        self.games: list[tuple[int, tuple[int, ...]]] = []
        self.rng = random.Random(workloads.derive("checks", workload, seed))
        self.probe = SpeedProbe()

    def run(self, deadline=None, limit=None, hook=None) -> float:
        """Call until ``limit`` calls are made or a cycle would end past ``deadline``.

        With a deadline, the next cycle starts only if it should end less than
        half a cycle past it, so a run measures ``--seconds`` give or take half
        a cycle and always holds whole cycles. Time spent checking outputs does
        not count. Returns the seconds measured.
        """
        start = time.perf_counter()
        paused = 0.0
        done = 0
        self.probe.sample(force=True)
        while limit is None or len(self.calls) < limit:
            ops = self.cycle_of(self.seed, done)
            if limit is not None:
                ops = ops[: limit - len(self.calls)]
            for op in ops:
                self.probe.sample()
                inside = self.probe.spent
                code, out, started, ended = call(op.argv)
                seconds = ended - started - (self.probe.spent - inside)
                records = hook.take() if hook is not None else []
                c = Call(op, len(self.calls), code, out, started, ended, seconds,
                         [(a, b) for a, b, _ in records])
                self.calls.append(c)
                self.games += (
                    [(r.game.quota, r.game.weights) for _, _, r in records]
                    if self.study else [op.game]
                )
                if self.check:
                    before = time.perf_counter()
                    if not self._passes(c, [r for _, _, r in records]):
                        self.failed.add(c.index)
                    paused += time.perf_counter() - before
                if not self.keep_outputs:
                    c.out = ""
            done += 1
            now = time.perf_counter() - paused
            if deadline is not None and now + (now - start) / done / 2 >= deadline:
                break
        self.probe.sample(force=True)
        return time.perf_counter() - paused - start

    def _passes(self, c: Call, records) -> bool:
        """Check one output: pinned digest, else the reference path."""
        if c.code != 0:
            return False
        if self.pinned is not None and c.index < len(self.pinned):
            return checks.digest(c.out) == self.pinned[c.index]
        if c.op.cls == "exact":
            return checks.check_exact_query(c.op, c.out, self.rng)
        if c.op.cls == "mc":
            return call(list(c.op.argv) + ["--threads", "1"])[1] == c.out
        if not checks.check_study_totals(c.out, records, c.op.kind):
            return False
        every = STUDY_SAMPLE_EVERY[self.workload]
        for i, record in enumerate(records):
            if i % every == 0:
                sample = checks.sample_split(record, self.rng)
                if sample is not None and not checks.check_split_sample(sample, c.op.kind):
                    return False
        return True

    def scaled_seconds(self, c: Call) -> float:
        """The call's time at reference speed (see speed.py)."""
        return c.seconds * self.probe.factor(c.start, c.end)

    def game_ms(self, c: Call, scaled: bool) -> list[float]:
        return [
            (end - start) * 1000 * (self.probe.factor(start, end) if scaled else 1)
            for start, end in c.games
        ]


def percentile(values, q: int) -> float:
    """The q-th percentile (1..99) as ``statistics.quantiles`` gives it."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def latency_stats(ms: list[float]) -> dict:
    return {"p50_ms": percentile(ms, 50), "p90_ms": percentile(ms, 90), "samples": len(ms)}


def end_to_end(run: Run, scaled: bool) -> dict:
    """Throughput per kind and latency percentiles of one measured run.

    An operation is one game fully scanned on the study workloads and one
    query on ``queries``; `bounds` computes both kinds and counts in neither
    kind's throughput. With ``scaled``, times are at reference speed.
    """
    seconds = {c.index: run.scaled_seconds(c) if scaled else c.seconds for c in run.calls}
    busy = {kind: 0.0 for kind in workloads.KINDS}
    done = {kind: 0 for kind in workloads.KINDS}
    for c in run.calls:
        if c.op.kind is not None:
            busy[c.op.kind] += seconds[c.index]
            done[c.op.kind] += len(c.games) if run.study else 1
    out = {f"{kind}_ops_per_s": done[kind] / busy[kind] for kind in workloads.KINDS}
    if run.study:
        op_ms = [ms for c in run.calls for ms in run.game_ms(c, scaled)]
        out.update({f"games_per_s.{kind}": out[f"{kind}_ops_per_s"] for kind in workloads.KINDS})
    else:
        op_ms = [seconds[c.index] * 1000 for c in run.calls]
        for cls in ("exact", "mc"):
            stats = latency_stats([seconds[c.index] * 1000 for c in run.calls if c.op.cls == cls])
            out[f"{cls}_query_p50_ms"] = stats["p50_ms"]
            out[f"{cls}_query_p90_ms"] = stats["p90_ms"]
            out[f"{cls}_query_samples"] = stats["samples"]
    stats = latency_stats(op_ms)
    out["op_p50_ms"] = stats["p50_ms"]
    out["op_p90_ms"] = stats["p90_ms"]
    out["op_samples"] = stats["samples"]
    return out


def thread_scaling(seed: int) -> dict:
    """Samples per second at ``nproc`` workers over that at 1, same seeded calls."""
    rng = random.Random(workloads.derive("scaling", seed))
    weights = tuple(max(1, round(rng.gauss(workloads.QUERY_MU, 50))) for _ in range(24))
    game = Game(sum(weights) // 2, weights)
    config = McConfig("0.01", "0.01", seed=seed, sample_count_override=SCALING_SAMPLES)
    width = len(os.sched_getaffinity(0))
    times = {1: [], width: []}
    for _ in range(SCALING_REPEATS):
        for workers in (1, width):
            start = time.perf_counter()
            shapley_mc(game, 0, config, workers)
            banzhaf_raw_mc(game, 0, config, workers)
            times[workers].append(time.perf_counter() - start)
    one, many = statistics.median(times[1]), statistics.median(times[width])
    return {"ratio": one / many, "samples": 2 * SCALING_SAMPLES, "s_at_1": one, f"s_at_{width}": many}


# Every per-layer number the traced run reports; absent layers read 0.
LAYER_KEYS = {
    "exact.subset_size_weight_counts": ("calls", "self_ms", "cells"),
    "exact.subset_weight_counts": ("calls", "self_ms", "cells"),
    "exact.remove_weight": ("calls", "self_ms"),
    "exact.prefix_sums": ("calls", "self_ms"),
    "exact.window_sum": ("calls",),
    "exact.index": ("calls", "self_ms"),
    "exact.shapley_dp_vector": ("calls", "self_ms"),
    "exact.shapley_enumerate": ("calls", "self_ms"),
    "exact.banzhaf_counts_dp_vector": ("calls", "self_ms"),
    "exact.banzhaf_counts_enumerate": ("calls", "self_ms"),
    "manipulation.scan_two_way_splits": ("calls", "self_ms", "candidates"),
    "manipulation.scan_k_way_splits": ("calls", "self_ms", "partitions"),
    "manipulation.merge_benefit": ("calls", "self_ms"),
    "manipulation.annex_benefit": ("calls", "self_ms"),
    "manipulation.annex_monotonicity_probe": ("calls", "self_ms"),
    "manipulation.check_split_bounds": ("calls", "self_ms"),
    "manipulation.find_split_approx": ("calls", "self_ms", "candidates_tried"),
    "game.apply_split": ("calls", "self_ms"),
    "game.apply_merge": ("calls", "self_ms"),
    "montecarlo.shapley_mc": ("calls", "self_ms", "samples"),
    "montecarlo.banzhaf_raw_mc": ("calls", "self_ms", "samples"),
    "experiments.generate_game": ("calls", "self_ms"),
    "experiments.scan_game": ("calls", "self_ms"),
    "experiments.run_experiment": ("calls", "self_ms"),
    "experiments.export_stats": ("calls", "self_ms"),
    "cli.main": ("calls", "self_ms"),
}


def per_layer(tracer, run: Run, untraced_s: float, traced_s: float, scaling: dict) -> dict:
    layers = tracer.layers()

    def get(name, key):
        return layers.get(name, {}).get(key, 0)

    out = {f"{name}.{key}": get(name, key) for name, keys in LAYER_KEYS.items() for key in keys}
    games = get("experiments.scan_game", "calls") if run.study else len(run.calls)
    out["exact.size_tables_per_game"] = get("exact.subset_size_weight_counts", "calls") / games
    scan_s = get("manipulation.scan_two_way_splits", "total_ms") / 1000
    out["manipulation.candidates_per_s"] = (
        get("manipulation.scan_two_way_splits", "candidates") / scan_s if scan_s else 0.0
    )
    finds = get("manipulation.find_split_approx", "calls")
    out["manipulation.find_split_approx.hit_rate"] = (
        get("manipulation.find_split_approx", "hits") / finds if finds else 0.0
    )
    mc_ms = get("montecarlo.shapley_mc", "self_ms") + get("montecarlo.banzhaf_raw_mc", "self_ms")
    mc_samples = out["montecarlo.shapley_mc.samples"] + out["montecarlo.banzhaf_raw_mc.samples"]
    out["montecarlo.samples_per_s"] = mc_samples / (mc_ms / 1000) if mc_ms else 0.0
    out["montecarlo.thread_scaling"] = scaling["ratio"]
    out["trace.overhead"] = traced_s / untraced_s
    return out


def environment(args, run: Run) -> dict:
    sizes = [len(w) for _, w in run.games]
    quotas = [q for q, _ in run.games]
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "WVG_THREADS": os.environ.get("WVG_THREADS"),
        "workload": args.workload,
        "seed": args.seed,
        "inputs": {
            "calls": len(run.calls),
            "games": len(run.games),
            "players": [min(sizes), max(sizes)],
            "quota": [min(quotas), max(quotas)],
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CYCLES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True,
                        help="CLOCK_MONOTONIC reading just before this process was started")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="file to write the spans to")
    args = parser.parse_args()

    run = Run(args.workload, args.seed, check=not args.setup_only, keep_outputs=bool(args.trace))
    for argv in WARMUP["study" if run.study else "queries"]:
        call(argv)  # a failure here shows again in the timed calls
    run.cycle_of(args.seed, 0)
    setup_wall_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned
    setup = {
        "setup_s": scale(setup_wall_s, statistics.median(kernel_seconds() for _ in range(3))),
        "setup_wall_s": setup_wall_s,
    }
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    result = dict(setup)
    if not args.trace:
        hook = GameHook(run.probe) if run.study else None
        deadline = time.perf_counter() + args.seconds
        measured_s = run.run(deadline=deadline, hook=hook)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if hook is not None:
            hook.close()
        result["metrics"] = end_to_end(run, scaled=True)
        result["detail"] = {"measured_s": measured_s, "wall": end_to_end(run, scaled=False),
                            "speed_samples": len(run.probe.seconds),
                            "kernel_ms_median": statistics.median(run.probe.seconds) * 1000}
    else:
        # Untraced, traced, untraced again over the same calls: the traced pass
        # is compared with the second untraced one, which runs as warm as it does.
        limit = TRACE_CALLS[args.workload]
        hook = GameHook(run.probe) if run.study else None
        run.run(limit=limit, hook=hook)
        if hook is not None:
            hook.close()
        traced_run, plain_run = (
            Run(args.workload, args.seed, check=False, keep_outputs=True) for _ in range(2)
        )
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced_run.run(limit=limit)
        finally:
            tracer.uninstall()
        plain_run.run(limit=limit)
        traced_s = sum(traced_run.scaled_seconds(c) for c in traced_run.calls)
        untraced_s = sum(plain_run.scaled_seconds(c) for c in plain_run.calls)
        # Tracing must not change a single output byte.
        for checked, traced, plain in zip(run.calls, traced_run.calls, plain_run.calls):
            if not checked.out == traced.out == plain.out:
                run.failed.add(checked.index)
        scaling = thread_scaling(args.seed)
        result["metrics"] = per_layer(tracer, run, untraced_s, traced_s, scaling)
        result["detail"] = {"calls": limit, "untraced_s": untraced_s, "traced_s": traced_s,
                            "spans": len(tracer.spans), "thread_scaling": scaling}
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    result["attempted"], result["failed"] = len(run.calls), len(run.failed)
    result["environment"] = environment(args, run)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
