"""Serving-runtime benchmark: latency/throughput under synthetic load.

Runs the canned Llama-shaped scenarios (Poisson and bursty arrivals,
single- and multi-model registries, mixed prefill/decode traffic, and
a priority-tiered fifo-vs-slo-edf pair) through the serving simulator
and writes ``BENCH_serving.json`` at the repo root so the serving perf
trajectory accrues across PRs.

Schema (``nm-spmm/serving-bench/v2``)::

    {
      "schema": "nm-spmm/serving-bench/v2",
      "configs": [
        {
          "name": "<scenario>",
          "scenario": "<describe() string>",
          "metrics": {
            "latency": {"p50_ms", "p95_ms", "p99_ms", "mean_ms", "max_ms"},
            "queue_wait": {...same keys...},
            "latency_by_priority": {"<tier>": {...same keys...}},
            "slo": {"requests", "attained", "attainment_rate",
                    "attainment_by_priority"},
            "continuous": {"steps", "joins", "evictions", "preemptions"},
            "achieved_qps", "completed_requests", "batches", "launches",
            "mean_batch_requests", "mean_batch_rows",
            "batch_requests_histogram", "padded_rows_histogram",
            "padding_overhead", "modeled_gpu_busy_s",
            "modeled_gpu_utilization", "plan_cache", "policy", ...
          }
        }, ...
      ]
    }

v2 adds the ``latency_by_priority``, ``slo``, and ``continuous``
blocks (plus ``policy.scheduling`` / ``policy.continuous_batching`` /
``policy.decode_rows_threshold``) and the three scheduling scenarios.
The per-launch histograms/means span ``launches`` = dynamic
``batches`` + continuous-batching engine steps (in v1 they spanned
``batches``, which continuous runs would under-count).  A top-level
``tracer_overhead`` block (additive) records the observability
layer's cost on the medium config: disabled-facade and
tracing-enabled wall times with their ratios.  A top-level ``meta``
block (also additive; see :func:`repro.utils.benchmeta.bench_meta`)
carries the seed and a fingerprint of the scenario grid so ``python
-m repro bench diff`` refuses cross-configuration comparisons.

Run standalone (``python benchmarks/bench_serving.py``) or under
pytest-benchmark (``pytest benchmarks/bench_serving.py``).
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import time

from repro.obs import Tracer
from repro.serve.batcher import BatchingPolicy
from repro.serve.scenarios import LlamaServingScenario
from repro.utils.benchmeta import bench_meta
from repro.utils.tables import TextTable

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
OUTPUT_PATH = REPO_ROOT / "BENCH_serving.json"
SCHEMA = "nm-spmm/serving-bench/v2"

#: The tracked scenario grid.  Numerics are disabled: the benchmark
#: tracks scheduler/model behavior, and modeled time is what drives the
#: simulated clock either way.  ``priority-fifo`` and
#: ``priority-slo-edf`` replay the *identical* tiered trace under the
#: two schedulers, so their delta is pure scheduling.
SCENARIOS: dict[str, LlamaServingScenario] = {
    "poisson-7b": LlamaServingScenario(
        models=("llama-7b",),
        qps=200.0,
        duration_s=2.0,
        arrival="poisson",
        execute_numerics=False,
    ),
    "bursty-7b": LlamaServingScenario(
        models=("llama-7b",),
        qps=200.0,
        duration_s=2.0,
        arrival="bursty",
        execute_numerics=False,
    ),
    "poisson-multi": LlamaServingScenario(
        models=("llama-7b", "llama-13b"),
        qps=400.0,
        duration_s=2.0,
        arrival="poisson",
        execute_numerics=False,
        policy=BatchingPolicy(max_wait_s=1e-3),
    ),
    "mixed-prefill-decode": LlamaServingScenario.mixed_prefill_decode(),
    "priority-fifo": LlamaServingScenario.priority_tiered("fifo"),
    "priority-slo-edf": LlamaServingScenario.priority_tiered("slo-edf"),
}

#: The priority tier the fifo-vs-slo-edf acceptance comparison reads.
HIGH_PRIORITY_TIER = "2"

#: Medium config the tracer-overhead measurement runs on.
TRACER_OVERHEAD_SCENARIO = "poisson-7b"
TRACER_OVERHEAD_ROUNDS = 15
#: The always-on production tracer configuration ``sampled_ratio``
#: measures: head-sample 5% of traces, retain at most 4096 records.
TRACER_SAMPLE_RATE = 0.05
TRACER_RING_CAPACITY = 4096


def measure_tracer_overhead() -> dict:
    """Cost of the observability layer on the medium config.

    Tracing is disabled by default (``tracer=None``), so the default
    path pays only the facade — a ``None`` check per instrumentation
    site.  That cost is below measurement resolution, which is what
    ``facade_ratio`` asserts: two *interleaved* min-of-rounds timings
    of the disabled path agree within the 5% budget (interleaving
    exposes both series to the same machine noise).
    ``enabled_ratio`` records what opting in costs (span/metric
    recording against a numerics-off simulation whose per-launch work
    is tiny, so this is the worst case — with numerics on, kernel time
    dominates).  ``sampled_ratio`` is the always-on production
    configuration — head sampling plus a bounded retention ring — and
    is asserted to stay under the 1.2x budget."""
    base = SCENARIOS[TRACER_OVERHEAD_SCENARIO]

    def once(make_tracer) -> float:
        scenario = dataclasses.replace(base, tracer=make_tracer())
        start = time.perf_counter()  # repro-lint: disable=DET002 -- host benchmark timing
        scenario.run()
        return time.perf_counter() - start  # repro-lint: disable=DET002 -- host benchmark timing

    def sampled_tracer() -> Tracer:
        return Tracer(
            sample_rate=TRACER_SAMPLE_RATE,
            ring_capacity=TRACER_RING_CAPACITY,
        )

    once(lambda: None)  # warm imports/allocator before timing
    disabled = disabled_again = enabled = sampled = math.inf
    for _ in range(TRACER_OVERHEAD_ROUNDS):
        disabled = min(disabled, once(lambda: None))
        enabled = min(enabled, once(Tracer))
        sampled = min(sampled, once(sampled_tracer))
        disabled_again = min(disabled_again, once(lambda: None))
    return {
        "scenario": TRACER_OVERHEAD_SCENARIO,
        "rounds": TRACER_OVERHEAD_ROUNDS,
        "disabled_s": disabled,
        "facade_ratio": disabled_again / disabled,
        "enabled_s": enabled,
        "enabled_ratio": enabled / disabled,
        "sample_rate": TRACER_SAMPLE_RATE,
        "ring_capacity": TRACER_RING_CAPACITY,
        "sampled_s": sampled,
        "sampled_ratio": sampled / disabled,
    }


def bench_metadata(generated_at: "str | None" = None) -> dict:
    """The standard ``meta`` header for this benchmark.

    The fingerprint covers only the scenario grid (name ->
    ``describe()``), so a ``--smoke`` run — same grid, overhead
    measurement skipped — stays comparable with the committed full
    run, while any grid edit refuses comparison against stale
    baselines."""
    seeds = {scenario.seed for scenario in SCENARIOS.values()}
    return bench_meta(
        SCHEMA,
        config={name: s.describe() for name, s in SCENARIOS.items()},
        seed=seeds.pop() if len(seeds) == 1 else None,
        generated_at=generated_at,
    )


def run_serving_bench(
    *,
    include_overhead: bool = True,
    generated_at: "str | None" = None,
) -> dict:
    """Run every scenario and return the schema-shaped result.

    ``include_overhead=False`` is the CI smoke mode: the scenario
    metrics are deterministic on the simulated clock, but the
    tracer-overhead block measures host wall time and has no business
    in a regression gate."""
    configs = []
    for name, scenario in SCENARIOS.items():
        report = scenario.run()
        configs.append(
            {
                "name": name,
                "scenario": scenario.describe(),
                "metrics": report.summary(),
            }
        )
    result = {
        "schema": SCHEMA,
        "meta": bench_metadata(generated_at),
        "configs": configs,
    }
    if include_overhead:
        result["tracer_overhead"] = measure_tracer_overhead()
    return result


def config_named(result: dict, name: str) -> dict:
    for config in result["configs"]:
        if config["name"] == name:
            return config
    raise KeyError(name)


def write_results(
    result: dict, path: "pathlib.Path | None" = None
) -> pathlib.Path:
    path = OUTPUT_PATH if path is None else path
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return path


def render_results(result: dict) -> str:
    table = TextTable(
        ["scenario", "p50 ms", "p99 ms", "hi-pri p99", "SLO %", "QPS",
         "batch req", "cache hit%"],
        title="serving benchmark",
    )
    for config in result["configs"]:
        metrics = config["metrics"]
        hi = metrics["latency_by_priority"].get(HIGH_PRIORITY_TIER)
        slo_rate = metrics["slo"]["attainment_rate"]
        table.add_row(
            [
                config["name"],
                f"{metrics['latency']['p50_ms']:.3f}",
                f"{metrics['latency']['p99_ms']:.3f}",
                "-" if hi is None else f"{hi['p99_ms']:.3f}",
                "-" if slo_rate is None else f"{slo_rate * 100:.1f}",
                f"{metrics['achieved_qps']:.1f}",
                f"{metrics['mean_batch_requests']:.2f}",
                f"{metrics['plan_cache']['hit_rate'] * 100:.1f}",
            ]
        )
    return table.render()


def test_bench_serving(benchmark, emit):
    result = benchmark.pedantic(run_serving_bench, rounds=1, iterations=1)
    path = write_results(result)
    emit(
        "serving",
        render_results(result) + f"\n\nwrote {path.relative_to(REPO_ROOT)}",
    )

    assert result["schema"] == SCHEMA
    assert len(result["configs"]) == len(SCENARIOS)
    for config in result["configs"]:
        metrics = config["metrics"]
        lat = metrics["latency"]
        assert 0 < lat["p50_ms"] <= lat["p95_ms"] <= lat["p99_ms"]
        assert metrics["achieved_qps"] > 0
        assert metrics["completed_requests"] > 0
        # Row bucketing must make the plan cache converge under load.
        assert metrics["plan_cache"]["hit_rate"] > 0.5

    # Continuous batching must actually roll on the mixed scenario,
    # and the histogram mass must equal the launch count.
    mixed = config_named(result, "mixed-prefill-decode")["metrics"]
    assert mixed["continuous"]["steps"] > 0
    assert mixed["continuous"]["evictions"] > 0
    assert (
        mixed["launches"]
        == mixed["batches"] + mixed["continuous"]["steps"]
        == sum(mixed["padded_rows_histogram"].values())
    )

    # The acceptance comparison: at equal offered load, slo-edf must
    # beat fifo on high-priority p99 *and* SLO attainment.
    fifo = config_named(result, "priority-fifo")["metrics"]
    edf = config_named(result, "priority-slo-edf")["metrics"]
    fifo_hi = fifo["latency_by_priority"][HIGH_PRIORITY_TIER]
    edf_hi = edf["latency_by_priority"][HIGH_PRIORITY_TIER]
    assert edf_hi["p99_ms"] < fifo_hi["p99_ms"]
    fifo_hi_slo = fifo["slo"]["attainment_by_priority"][HIGH_PRIORITY_TIER]
    edf_hi_slo = edf["slo"]["attainment_by_priority"][HIGH_PRIORITY_TIER]
    assert edf_hi_slo > fifo_hi_slo
    assert edf["slo"]["attainment_rate"] > fifo["slo"]["attainment_rate"]

    # Observability acceptance: the default (disabled) path pays only
    # the facade, whose cost stays below the 5% measurement budget.
    overhead = result["tracer_overhead"]
    assert overhead["disabled_s"] > 0 and overhead["enabled_s"] > 0
    assert overhead["facade_ratio"] < 1.05
    # Sampled + ring-bounded tracing is cheap enough to leave on.
    assert overhead["sampled_s"] > 0
    assert overhead["sampled_ratio"] < 1.2


if __name__ == "__main__":  # pragma: no cover
    import argparse

    cli = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    cli.add_argument(
        "--smoke", action="store_true",
        help="skip the wall-clock tracer-overhead measurement "
             "(deterministic metrics only, for CI bench diff)",
    )
    cli.add_argument(
        "--out", default=None, metavar="PATH",
        help=f"output path (default {OUTPUT_PATH})",
    )
    cli.add_argument(
        "--timestamp", default=None, metavar="ISO8601",
        help="recorded as meta.generated_at (this tool never reads "
             "the wall clock itself)",
    )
    cli_args = cli.parse_args()
    bench_result = run_serving_bench(
        include_overhead=not cli_args.smoke,
        generated_at=cli_args.timestamp,
    )
    print(render_results(bench_result))
    out = pathlib.Path(cli_args.out) if cli_args.out else None
    print(f"\nwrote {write_results(bench_result, out)}")
