"""Distributed strong scaling: tensor-parallel NM-SpMM across devices.

Models true-scale Llama layers (no weights are materialized — the
per-device launches are priced by the paper's performance model on the
shard shapes, and the collectives by the ring formulas of
:mod:`repro.distributed.topology`) across 1/2/4/8 simulated A100s:

* **strong scaling** — fixed problem, growing device count, for both
  tensor-parallel modes; each point reports modeled seconds, the
  compute/communication split, speedup vs single-device and parallel
  efficiency;
* **column-vs-row crossover** — at a fixed 4-device group, sweep the
  batch size ``m``: row-parallel keeps the full output width per
  device (block-level parallelism survives small batches) but pays a
  2x all-reduce; column-parallel halves the wire bytes but thins each
  device's output slab.  The sweep records the modeled winner per
  ``m`` and where (if anywhere) it flips.

Writes ``BENCH_distributed.json`` at the repo root (schema
``nm-spmm/distributed-bench/v1``) so the distributed trajectory
accrues across PRs.  Acceptance (asserted here and in the pytest
path): on the large Llama shape, 4-device column-parallel must model
below 0.5x the single-device latency.

Run standalone (``python benchmarks/bench_distributed.py``, ``--smoke``
for the CI-sized subset that skips the JSON write) or under
pytest-benchmark (``pytest benchmarks/bench_distributed.py``).
"""

from __future__ import annotations

import argparse
import json
import pathlib

from repro.core.plan import build_plan
from repro.distributed import DeviceGroup, modeled_shape_step
from repro.sparsity.config import NMPattern
from repro.utils.benchmeta import bench_meta
from repro.utils.tables import TextTable
from repro.workloads.llama import llama_layer_shape

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
OUTPUT_PATH = REPO_ROOT / "BENCH_distributed.json"
SCHEMA = "nm-spmm/distributed-bench/v1"

GPU = "A100"
LINK = "nvlink"
PATTERN = NMPattern(2, 8, vector_length=8)

#: (name, n, k) — true Llama linear-layer shapes (weight is k x n).
#: ``large`` is the Llama-65B LM head, the acceptance shape.
SHAPES: tuple[tuple[str, int, int], ...] = tuple(
    (f"{model}/{layer}", *llama_layer_shape(model, layer))
    for model, layer in (
        ("llama-7b", "attn-qkvo"),
        ("llama-13b", "mlp-gate-up"),
        ("llama-65b", "lm-head"),
    )
)
LARGE_SHAPE = "llama-65b/lm-head"

SCALING_M = 2048
DEVICE_COUNTS: tuple[int, ...] = (1, 2, 4, 8)
CROSSOVER_DEVICES = 4
CROSSOVER_M: tuple[int, ...] = (1, 4, 16, 64, 256, 1024, 4096)

SMOKE_SHAPES = SHAPES[:1]
SMOKE_DEVICE_COUNTS: tuple[int, ...] = (1, 2)
SMOKE_CROSSOVER_M: tuple[int, ...] = (1, 256)


def _single_device_seconds(m: int, n: int, k: int) -> float:
    return build_plan(m, n, k, PATTERN, GPU).simulate().seconds


def _point(m: int, n: int, k: int, devices: int, mode: str, single_s: float) -> dict:
    group = DeviceGroup.build(GPU, devices=devices, link=LINK)
    step = modeled_shape_step(m, n, k, PATTERN, group, mode)
    return {
        "seconds": step.seconds,
        "compute_s": step.compute_seconds,
        "comm_s": step.comm.seconds,
        "comm_fraction": round(step.comm_fraction, 4),
        "speedup_vs_single": single_s / step.seconds,
        "efficiency": single_s / step.seconds / devices,
    }


def run_config(
    name: str,
    n: int,
    k: int,
    *,
    device_counts: tuple[int, ...],
    crossover_m: tuple[int, ...],
) -> dict:
    single_s = _single_device_seconds(SCALING_M, n, k)
    scaling: dict[str, dict] = {"column": {}, "row": {}}
    for mode in scaling:
        for devices in device_counts:
            if devices == 1:
                scaling[mode][str(devices)] = {
                    "seconds": single_s,
                    "compute_s": single_s,
                    "comm_s": 0.0,
                    "comm_fraction": 0.0,
                    "speedup_vs_single": 1.0,
                    "efficiency": 1.0,
                }
                continue
            scaling[mode][str(devices)] = _point(
                SCALING_M, n, k, devices, mode, single_s
            )

    points = []
    for m in crossover_m:
        column = modeled_shape_step(
            m, n, k, PATTERN,
            DeviceGroup.build(GPU, devices=CROSSOVER_DEVICES, link=LINK),
            "column",
        )
        row = modeled_shape_step(
            m, n, k, PATTERN,
            DeviceGroup.build(GPU, devices=CROSSOVER_DEVICES, link=LINK),
            "row",
        )
        points.append(
            {
                "m": m,
                "column_s": column.seconds,
                "column_comm_fraction": round(column.comm_fraction, 4),
                "row_s": row.seconds,
                "row_comm_fraction": round(row.comm_fraction, 4),
                "winner": "column" if column.seconds <= row.seconds else "row",
            }
        )
    first_winner = points[0]["winner"]
    crossover = next(
        (p["m"] for p in points if p["winner"] != first_winner), None
    )
    return {
        "name": name,
        "shape": {"m": SCALING_M, "n": n, "k": k},
        "pattern": PATTERN.label(),
        "single_device_s": single_s,
        "scaling": scaling,
        "crossover": {
            "devices": CROSSOVER_DEVICES,
            "points": points,
            "first_winner": first_winner,
            "crossover_m": crossover,
        },
    }


def run_distributed_bench(
    *, smoke: bool = False, generated_at: "str | None" = None
) -> dict:
    shapes = SMOKE_SHAPES if smoke else SHAPES
    device_counts = SMOKE_DEVICE_COUNTS if smoke else DEVICE_COUNTS
    crossover_m = SMOKE_CROSSOVER_M if smoke else CROSSOVER_M
    return {
        "schema": SCHEMA,
        "meta": bench_meta(
            SCHEMA,
            config={
                "gpu": GPU,
                "link": LINK,
                "pattern": PATTERN.label(),
                "shapes": [list(s) for s in shapes],
                "device_counts": list(device_counts),
                "crossover_m": list(crossover_m),
                "scaling_m": SCALING_M,
            },
            generated_at=generated_at,
        ),
        "gpu": GPU,
        "link": LINK,
        "pattern": PATTERN.label(),
        "configs": [
            run_config(
                name, n, k,
                device_counts=device_counts,
                crossover_m=crossover_m,
            )
            for name, n, k in shapes
        ],
    }


def write_results(result: dict) -> pathlib.Path:
    OUTPUT_PATH.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return OUTPUT_PATH


def render_results(result: dict) -> str:
    table = TextTable(
        ["config", "mode", "devices", "modeled ms", "comm %", "speedup", "eff"],
        title="distributed strong scaling (modeled, "
        f"{result['gpu']} x {result['link']})",
    )
    for config in result["configs"]:
        for mode, by_devices in config["scaling"].items():
            for devices, point in by_devices.items():
                table.add_row(
                    [
                        config["name"],
                        mode,
                        devices,
                        f"{point['seconds'] * 1e3:.3f}",
                        f"{point['comm_fraction'] * 100:.1f}",
                        f"{point['speedup_vs_single']:.2f}x",
                        f"{point['efficiency'] * 100:.0f}%",
                    ]
                )
    lines = [table.render()]
    for config in result["configs"]:
        cross = config["crossover"]
        winners = ", ".join(
            f"m={p['m']}:{p['winner']}" for p in cross["points"]
        )
        flip = (
            f"flips at m={cross['crossover_m']}"
            if cross["crossover_m"] is not None
            else "no flip"
        )
        lines.append(
            f"{config['name']} column-vs-row @ {cross['devices']} devices: "
            f"{winners} ({flip})"
        )
    return "\n".join(lines)


def check_acceptance(result: dict) -> "str | None":
    """The tentpole bar: 4-device column-parallel below half the
    single-device latency on the large Llama shape — or a reason
    string when the data misses it (None = pass, or not measured in
    smoke mode)."""
    by_name = {c["name"]: c for c in result["configs"]}
    config = by_name.get(LARGE_SHAPE)
    if config is None:
        return None  # smoke subset
    point = config["scaling"]["column"].get("4")
    if point is None:
        return None
    ratio = point["seconds"] / config["single_device_s"]
    if ratio >= 0.5:
        return (
            f"4-device column-parallel models {ratio:.2f}x the "
            f"single-device latency on {LARGE_SHAPE} (bar: < 0.5x)"
        )
    return None


def test_bench_distributed(benchmark, emit):
    result = benchmark.pedantic(run_distributed_bench, rounds=1, iterations=1)
    path = write_results(result)
    emit(
        "distributed",
        render_results(result) + f"\n\nwrote {path.relative_to(REPO_ROOT)}",
    )

    assert result["schema"] == SCHEMA
    assert len(result["configs"]) == len(SHAPES)
    for config in result["configs"]:
        for mode in ("column", "row"):
            assert set(config["scaling"][mode]) == {
                str(d) for d in DEVICE_COUNTS
            }
            for point in config["scaling"][mode].values():
                assert point["seconds"] > 0
                assert 0 <= point["comm_fraction"] <= 1
        assert len(config["crossover"]["points"]) == len(CROSSOVER_M)
    assert check_acceptance(result) is None


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one shape, 2 devices, no JSON write (CI rot check)",
    )
    args = parser.parse_args(argv)
    result = run_distributed_bench(smoke=args.smoke)
    print(render_results(result))
    if not args.smoke:
        print(f"\nwrote {write_results(result)}")
        failure = check_acceptance(result)
        if failure is not None:
            print(f"FAIL: {failure}")
            return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
