#!/usr/bin/env python3
"""Host performance benchmark of the NM-SpMM reproduction.

Usage, from the repository root::

    python3 perfbench/run.py --workload forward-decode --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` wraps each layer's public functions from outside, reports
the per-layer metrics and writes the span tree to
``perfbench/out/<workload>-seed<seed>.trace.json``.  The last stdout
line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it carries the run's provenance stamp and
the informational figures.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before NumPy loads: multithreaded BLAS on a
# shared 2-core host moves single-layer timings by more than 10x.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from catalog import PER_LAYER, RUN_SECONDS, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"


def parse_args(argv: "list[str] | None") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def run(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload and return its :class:`runinfo.Outcome`."""
    from forward_bench import FORWARD_ROWS, run_forward
    from serve_bench import run_serve

    runner = run_forward if workload in FORWARD_ROWS else run_serve
    return runner(workload, seed, seconds, trace, str(OUT_DIR))


def main(argv: "list[str] | None" = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from runinfo import Metric, run_stamp

    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        # Layers this workload does not exercise report 0.
        for name, (unit, _) in PER_LAYER.items():
            outcome.metrics.setdefault(name, Metric(0.0, unit))
        outcome.metrics = {name: outcome.metrics[name] for name in PER_LAYER}
    stamp = run_stamp(args.workload, args.seed, outcome.config)
    for name, metric in {**outcome.metrics, **outcome.info}.items():
        print(f"{name:42s} {metric.value:14.6g} {metric.unit:6s} n={metric.samples}")
    for error in outcome.errors:
        print(f"failure: {error}")
    detail = {
        "stamp": stamp,
        "trace": args.trace,
        "failed_frac": outcome.failed_frac,
        "samples": {name: m.samples for name, m in outcome.metrics.items()},
        "info": {
            name: {"value": m.value, "unit": m.unit, "samples": m.samples}
            for name, m in outcome.info.items()
        },
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(outcome.result_line()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
