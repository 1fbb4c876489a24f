"""Write pinned.json: the SHA-256 of every output at the pinned seed.

    python3 perfbench/pin.py

Makes a fixed number of calls per workload at worker.PINNED_SEED, checks
every output on the reference path first, and refuses to pin if any check
fails. Runs at that seed then compare each output with its digest; outputs
beyond the pinned calls fall back to the reference checks.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
os.environ["WVG_THREADS"] = str(len(os.sched_getaffinity(0)))

import worker  # noqa: E402  (puts src/ on the path first)
import checks  # noqa: E402

# About twice what one measured run does at the seed commit.
PIN_CALLS = {"study-grid": 240, "study-default": 16, "queries": 1000}


def main() -> int:
    pinned = {}
    for workload, limit in PIN_CALLS.items():
        run = worker.Run(workload, worker.PINNED_SEED, keep_outputs=True, pinned=False)
        hook = worker.GameHook(run.probe) if run.study else None
        run.run(limit=limit, hook=hook)
        if hook is not None:
            hook.close()
        print(f"{workload}: {len(run.calls)} outputs, {len(run.failed)} failed checks",
              file=sys.stderr)
        if run.failed:
            return 1
        pinned[workload] = [checks.digest(c.out) for c in run.calls]
    with open(worker.PINNED_FILE, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
