#!/usr/bin/env python3
"""Record ``perfbench/baseline.json``: every workload, traced and
untraced, at the default seed and at one seed held out while the
benchmark was written.  The untraced runs are made in two passes, and
the file gives each end-to-end metric's second-pass value over the
first, so the reader sees how well the figures repeat.

Usage, from the repository root::

    python3 perfbench/record_baseline.py [--seconds 10]

Each run is a separate ``perfbench/run.py`` process, as the benchmark
is meant to be driven; the file keeps each run's result line and its
provenance stamp.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from catalog import END_TO_END, RUN_SECONDS, WORKLOADS  # noqa: E402

#: The default seed, and one no development run used.
SEEDS = (0, 4242)


def run_once(workload: str, seed: int, trace: int, seconds: float, pass_no: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=HERE.parent, capture_output=True, text=True, check=True, timeout=180,
    )
    *_, detail, result = done.stdout.strip().splitlines()
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "pass": pass_no,
        "result": json.loads(result),
        "detail": json.loads(detail)["detail"],
    }


def findings(runs: "list[dict]") -> dict:
    """The seed-code observations the notes quote, per seed."""
    out: dict = {}
    for run in runs:
        if not run["trace"]:
            continue
        m = {name: v["value"] for name, v in run["result"]["metrics"].items()}
        seed = str(run["seed"])
        if run["workload"] == "forward-prefill":
            out.setdefault(seed, {})["forward-prefill"] = {
                "backends.picks.sharded": m["backends.picks.sharded"],
                "kernels.vs_dense_geomean": m["kernels.vs_dense_geomean"],
                "backends.regret_geomean": m["backends.regret_geomean"],
            }
        elif run["workload"] == "serve-chaos":
            out.setdefault(seed, {})["serve-chaos"] = {
                "serve.queue_share": m["serve.queue_share"],
                "serve.scheduling.order_keys": m["serve.scheduling.order_keys"],
            }
    return out


def agreement(runs: "list[dict]") -> dict:
    """Second-pass value over first-pass value of every end-to-end
    metric, per workload and seed."""
    value = {
        (run["workload"], run["seed"], run["pass"], name): metric["value"]
        for run in runs
        if not run["trace"]
        for name, metric in run["result"]["metrics"].items()
    }
    return {
        workload: {
            str(seed): {
                name: value[workload, seed, 2, name] / value[workload, seed, 1, name]
                for name in END_TO_END
            }
            for seed in SEEDS
        }
        for workload in WORKLOADS
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    args = parser.parse_args()
    plan = [(1, seed, workload, trace) for seed in SEEDS for workload in WORKLOADS for trace in (0, 1)]
    plan += [(2, seed, workload, 0) for seed in SEEDS for workload in WORKLOADS]
    runs = []
    for pass_no, seed, workload, trace in plan:
        runs.append(run_once(workload, seed, trace, args.seconds, pass_no))
        print(f"pass {pass_no} {workload} seed={seed} trace={trace} done", flush=True)
    document = {
        "schema": "nm-spmm/perfbench-baseline/v2",
        "seconds": args.seconds,
        "findings": findings(runs),
        "second_over_first_pass": agreement(runs),
        "runs": runs,
    }
    (HERE / "baseline.json").write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
