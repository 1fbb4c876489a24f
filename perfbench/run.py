"""Benchmark for wvg: study throughput, query latency, and a traced per-layer run.

    python3 perfbench/run.py --workload queries --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root. Each run starts fresh workload processes
(worker.py): several that only set up, for ``setup_s``, then one that sets
up, measures and checks. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer ones. ``--workload all``
runs every workload both ways and prints every metric by name and unit.
Every run also writes its full record to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("study-grid", "study-default", "queries")
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 150


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def child(args, extra: list[str]) -> dict:
    """Start one workload process and return its JSON report."""
    env = dict(os.environ)
    env["WVG_THREADS"] = str(len(os.sched_getaffinity(0)))
    env["PYTHONHASHSEED"] = "0"
    argv = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + extra
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        argv + ["--spawned", repr(spawned)], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"{args.workload}: workload process timed out")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"{args.workload}: workload process exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_one(args, spec: dict) -> dict:
    """One benchmark run: set-up probes, then the measured (or traced) process."""
    setups = [child(args, ["--setup-only"]) for _ in range(SETUP_PROBES)]
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    stem = os.path.join(HERE, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    report = child(args, ["--spans", stem + ".spans.jsonl"] if args.trace else [])
    setups.append(report)
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        values = report["metrics"]
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        values = dict(report["metrics"], setup_s=statistics.median(s["setup_s"] for s in setups),
                      peak_rss_mb=report["peak_rss_mb"])
    attempted, failed = report["attempted"], report["failed"]
    record = {
        "environment": dict(report["environment"], git_sha=git_sha(),
                            seconds=args.seconds, trace=args.trace),
        "setup_s_samples": [s["setup_s"] for s in setups],
        "setup_wall_s_samples": [s["setup_wall_s"] for s in setups],
        "error_rate": failed / attempted,
        "metrics": values,
        "detail": report.get("detail", {}),
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit_of(name, spec)} for name in names},
    }
    return {"record": record, "result": result}


# Units of the numbers a run records beyond BENCHMARK.json's metrics. Times
# are at reference speed (see speed.py); "wall." ones are plain wall time.
UNITS = {
    "games_per_s": "games/ref-s",
    "query": "ref-ms",
    "hit_rate": "ratio",
    "samples_per_s": "1/s",
    "error_rate": "ratio",
    "kernel_ms_median": "ms",
    "measured_s": "s",
    "traced_s": "ref-s",
}


def unit_of(name: str, spec: dict) -> str:
    if name.startswith("wall."):
        unit = unit_of(name[len("wall."):], spec)
        return unit.replace("ref-", "") if unit.startswith(("ref-", "1/ref", "games/ref")) else unit
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if metric["name"] == name:
            return metric["unit"]
    if name.endswith("samples"):
        return "count"
    for key, unit in UNITS.items():
        if key in name:
            return unit
    return "ms" if name.endswith("_ms") else "count"


def show(label: str, values: dict, spec: dict) -> None:
    print(f"== {label}")
    for name in sorted(values):
        value = values[name]
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<48} {text:>14} {unit_of(name, spec)}")


def run_all(args, spec: dict) -> int:
    """Every workload, untraced then traced, with every metric by name and unit."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            one = argparse.Namespace(**vars(args), workload=workload, trace=trace)
            done = run_one(one, spec)
            record, result = done["record"], done["result"]
            values = dict(record["metrics"], error_rate=record["error_rate"],
                          attempted=result["attempted"], failed=result["failed"])
            for key, value in record["detail"].items():
                if isinstance(value, dict) and key == "wall":
                    values.update((f"wall.{k}", v) for k, v in value.items())
                elif isinstance(value, (int, float)):
                    values[key] = value
            show(f"{workload} ({'traced' if trace else 'untraced'})", values, spec)
            ok = ok and result["correct"]
    print(json.dumps({"environment": record["environment"], "all_correct": ok}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "wvg", "cli.py")):
        print("error: src/wvg not found; run from the root of a wvg checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        kwargs = {k: v for k, v in vars(args).items() if k not in ("workload", "trace")}
        return run_all(argparse.Namespace(**kwargs), spec)
    done = run_one(args, spec)
    print(json.dumps(done["record"]["environment"]))
    print(json.dumps(done["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
