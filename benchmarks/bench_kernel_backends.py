"""Kernel-backend throughput: wall clock per backend, GFLOP/s, speedups.

Times raw-kernel baselines (dense BLAS, the vectorized functional
kernel, the structural blocked/packed executors with explicit blocking
parameters) plus **every backend registered in the execution-backend
registry** (:mod:`repro.backends`) through the real ``execute()``
facade — so a newly registered backend lands in the tracked numbers
without touching this file.  The grid covers small/medium/large shapes
and a low- (2:4) and high-sparsity (8:32) pattern, plus decode-shaped
(m <= 16) Llama-7B/8 projections at 2:8, and writes
``BENCH_kernels.json`` at the repo root so the kernel perf trajectory
accrues across PRs.  These are the substrate's own numbers (host CPU
BLAS), not the GPU model's.

Schema (``nm-spmm/kernel-bench/v1``)::

    {
      "schema": "nm-spmm/kernel-bench/v1",
      "configs": [
        {
          "name": "<size>-<N:M>",
          "shape": {"m", "n", "k"},
          "pattern": "<label>",
          "backends": {
            "<backend>": {"seconds", "gflops", "speedup_vs_dense"},
            ...
          },
          "fast_vs_blocked": <wall-clock speedup>
        }, ...
      ]
    }

``gflops`` is dense-equivalent throughput (``2*m*n*k / seconds``) so
backends are comparable on one axis; sparse backends do ``N/M`` of that
useful work.

Run standalone (``python benchmarks/bench_kernel_backends.py``,
``--smoke`` for the CI-sized grid that skips the JSON write) or under
pytest-benchmark (``pytest benchmarks/bench_kernel_backends.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import time

import numpy as np

from repro.backends import available_backends
from repro.core.api import NMSpMM, SparseHandle
from repro.gpu.catalog import resolve_gpu
from repro.kernels import fast as fast_kernel
from repro.kernels.blocked import nm_spmm_blocked
from repro.kernels.fast import nm_spmm_fast
from repro.kernels.functional import nm_spmm_functional
from repro.kernels.packed import nm_spmm_packed
from repro.kernels.tiling import TileParams, params_for
from repro.sparsity.colinfo import preprocess_offline
from repro.sparsity.compress import compress
from repro.sparsity.config import NMPattern
from repro.sparsity.pruning import prune_dense
from repro.utils.benchmeta import bench_meta
from repro.utils.tables import TextTable

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
OUTPUT_PATH = REPO_ROOT / "BENCH_kernels.json"
SCHEMA = "nm-spmm/kernel-bench/v1"

#: (name, (m, n, k)) — medium matches ``bench_functional_kernels``, the
#: shape the tentpole's >=5x fast-vs-blocked target is measured on.
SHAPES: tuple[tuple[str, tuple[int, int, int]], ...] = (
    ("small", (128, 256, 256)),
    ("medium", (256, 512, 512)),
    ("large", (512, 1024, 1024)),
)
SMOKE_SHAPES: tuple[tuple[str, tuple[int, int, int]], ...] = (
    ("small", (32, 64, 64)),
    ("decode", (1, 64, 64)),
)

PATTERNS: tuple[NMPattern, ...] = (
    NMPattern(2, 4, vector_length=4),
    NMPattern(8, 32, vector_length=32),
)

#: Registry rows that are part of the library itself: a failure in one
#: of these is a regression and must abort the run, while third-party
#: registrations get the lenient skip-with-a-note path.
BUILTIN_BACKENDS = ("fast", "structural", "dense_scatter")

#: The exact ``bench_functional_kernels`` medium configuration — the
#: problem the tentpole's >=5x fast-vs-blocked acceptance target is
#: defined on (Table I medium blocking with ks pinned to 128).
FUNCBENCH_NAME = "medium-funcbench"
FUNCBENCH_SHAPE = (256, 512, 512)
FUNCBENCH_PATTERN = NMPattern(8, 32, vector_length=32)
FUNCBENCH_PARAMS = TileParams(ms=32, ns=64, mr=32, nr=32, mt=8, nt=4, ks=128)

#: Decode-shaped rows: the Llama-7B/8 ``lm-head`` (n=4000, k=512) and
#: ``attn-qkvo`` (512x512) projections perfbench's forward-decode runs,
#: at 2:8 L=8 and the skinny batches a decode step sees.
DECODE_PATTERN = NMPattern(2, 8, vector_length=8)
DECODE_SHAPES: tuple[tuple[str, tuple[int, int, int]], ...] = tuple(
    (f"{layer}-m{m}", (m, n, k))
    for layer, (n, k) in (("lm-head", (4000, 512)), ("attn-qkvo", (512, 512)))
    for m in (1, 4, 16)
)

#: Alternating execute()/raw-kernel pairs behind ``fast_facade_overhead``
#: per timing repeat (15 pairs at the full grid's 5 repeats).
FACADE_PAIRS_PER_REPEAT = 3


def _best_of(fn, repeats: int) -> float:
    """Best wall-clock seconds over ``repeats`` calls (after warmup)."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()  # repro-lint: disable=DET002 -- host benchmark timing
        fn()
        best = min(best, time.perf_counter() - t0)  # repro-lint: disable=DET002 -- host benchmark timing
    return best


def _paired_overhead(wrapped, raw, pairs: int) -> float:
    """``min(wrapped) / min(raw) - 1`` over ``pairs`` alternating calls
    of the two (after one warmup each)."""
    wrapped()
    raw()
    best = [float("inf"), float("inf")]
    for _ in range(pairs):
        for slot, fn in enumerate((wrapped, raw)):
            t0 = time.perf_counter()  # repro-lint: disable=DET002 -- host benchmark timing
            fn()
            best[slot] = min(best[slot], time.perf_counter() - t0)  # repro-lint: disable=DET002 -- host benchmark timing
    return best[0] / best[1] - 1.0


def run_config(
    name: str,
    shape: tuple[int, int, int],
    pattern: NMPattern,
    *,
    params: TileParams | None = None,
    repeats: int = 5,
    seed: int = 11,
) -> dict:
    """Time every backend on one (shape, pattern) cell."""
    m, n, k = shape
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k)).astype(np.float32)
    b = rng.standard_normal((k, n)).astype(np.float32)
    pruned, mask = prune_dense(pattern, b)
    comp = compress(pattern, pruned, mask)
    # Offline artifacts are precomputed — the benchmark times the
    # online phase, mirroring how serving uses the handles.  The
    # registry rows run through the real execute() facade against a
    # prepared handle (gather layout built in the warmup call) with a
    # plan built once here, so they time execution, not planning, and
    # facade overhead is part of the number.
    handle = SparseHandle(compressed=comp)
    op = NMSpMM(pattern)
    if params is None:
        params = params_for(
            m, n, k, pattern, resolve_gpu("A100").smem_bytes_per_sm
        )
    col_info = preprocess_offline(comp, params.ws(pattern), params.ns)
    plan = op.plan_for(m, handle, params)

    backends = {
        "dense": lambda: a @ pruned,
        "functional": lambda: nm_spmm_functional(a, comp),
        "blocked": lambda: nm_spmm_blocked(a, comp, params),
        "packed": lambda: nm_spmm_packed(a, comp, params, col_info),
    }
    registry_rows = set()
    for registered in available_backends():
        if registered.name in backends:
            # Never let a registered name shadow a raw baseline row —
            # speedup_vs_dense must stay anchored to raw BLAS.
            print(
                f"note: skipping registered backend {registered.name!r} "
                "(collides with a raw baseline row)"
            )
            continue
        verdict = registered.supports(
            op.build_request(a, handle, params=params)
        )
        if verdict is not True:
            if registered.name in BUILTIN_BACKENDS:
                raise RuntimeError(
                    f"builtin backend {registered.name!r} declined a "
                    f"benchmark request: {verdict}"
                )
            print(
                f"note: skipping registered backend {registered.name!r} "
                f"(unsupported here: {verdict})"
            )
            continue
        registry_rows.add(registered.name)
        backends[registered.name] = (
            lambda name=registered.name: op.execute(
                a, handle, params=params, plan=plan, backend=name
            )
        )
    gold = a @ pruned
    flops = 2.0 * m * n * k
    results: dict[str, dict] = {}
    for backend, fn in backends.items():
        # Sanity gate only (the equivalence suite owns tight bounds);
        # tolerance scales with the float32 reduction depth.  Registry
        # rows that cannot run or cannot meet float32 tolerance (e.g.
        # a registered quantized backend) are skipped with a note
        # instead of aborting the tracked run; the builtin rows stay a
        # hard gate via the acceptance assertions downstream.
        try:
            np.testing.assert_allclose(
                fn(), gold, rtol=2e-4, atol=1e-4 * np.sqrt(k)
            )
        except Exception as exc:
            if backend in registry_rows and backend not in BUILTIN_BACKENDS:
                first_line = str(exc).strip().splitlines()[0]
                print(
                    f"note: skipping registered backend {backend!r} "
                    f"({type(exc).__name__}: {first_line})"
                )
                continue
            raise
        seconds = _best_of(fn, repeats)
        results[backend] = {
            "seconds": seconds,
            "gflops": flops / seconds / 1e9,
        }
    dense_s = results["dense"]["seconds"]
    for entry in results.values():
        entry["speedup_vs_dense"] = dense_s / entry["seconds"]
    # Same-run facade-overhead measurement: the registry's "fast" row
    # runs through execute(); time it and the raw kernel on the same
    # operands alternately, pair by pair, so both minima see the same
    # machine state (two back-to-back best-of runs swung this ratio
    # from -33% to +58% on identical code).
    fast_facade_overhead = None
    if "fast" in results:
        fast_facade_overhead = _paired_overhead(
            backends["fast"],
            lambda: nm_spmm_fast(a, handle.gather_layout()),
            FACADE_PAIRS_PER_REPEAT * repeats,
        )
    return {
        "name": f"{name}-{pattern.n}:{pattern.m}",
        "shape": {"m": m, "n": n, "k": k},
        "pattern": pattern.label(),
        "backends": results,
        # None when the 'fast' registry row was skipped/replaced (it is
        # a registry row, not a guaranteed baseline) — the acceptance
        # checks downstream fail loudly on it rather than crashing here.
        "fast_vs_blocked": (
            results["blocked"]["seconds"] / results["fast"]["seconds"]
            if "fast" in results
            else None
        ),
        "fast_facade_overhead": fast_facade_overhead,
    }


def run_kernel_bench(
    *, smoke: bool = False, generated_at: "str | None" = None
) -> dict:
    """Run the full grid (or the CI smoke slice) and return the
    schema-shaped result."""
    shapes = SMOKE_SHAPES if smoke else SHAPES
    repeats = 1 if smoke else 5
    configs = [
        run_config(name, shape, pattern, repeats=repeats)
        for name, shape in shapes
        for pattern in PATTERNS
    ]
    if not smoke:
        configs.append(
            run_config(
                FUNCBENCH_NAME,
                FUNCBENCH_SHAPE,
                FUNCBENCH_PATTERN,
                params=FUNCBENCH_PARAMS,
                repeats=repeats,
            )
        )
        configs.extend(
            run_config(name, shape, DECODE_PATTERN, repeats=repeats)
            for name, shape in DECODE_SHAPES
        )
    meta = bench_meta(
        SCHEMA,
        config={
            "shapes": [[name, list(shape)] for name, shape in shapes],
            "patterns": [p.label() for p in PATTERNS],
            "repeats": repeats,
            "funcbench": not smoke,
            "decode_shapes": [
                [name, list(shape)]
                for name, shape in (() if smoke else DECODE_SHAPES)
            ],
        },
        generated_at=generated_at,
    )
    # Host provenance, outside the fingerprint: the BLAS threads the
    # caller set, and the spans a fast call above SPLIT_MACS runs on.
    meta["blas_threads"] = os.environ.get("OPENBLAS_NUM_THREADS")
    meta["kernel_workers"] = fast_kernel._cpus()
    return {"schema": SCHEMA, "meta": meta, "configs": configs}


def write_results(result: dict) -> pathlib.Path:
    OUTPUT_PATH.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return OUTPUT_PATH


def render_results(result: dict) -> str:
    # Column order: dense baseline first, then the union of measured
    # backends across all configs in first-seen order (a registry row
    # may be skipped on some configs but measured on others).
    names: list[str] = []
    for config in result["configs"]:
        for name in config["backends"]:
            if name != "dense" and name not in names:
                names.append(name)
    table = TextTable(
        ["config", "dense ms"]
        + [f"{name} ms" for name in names]
        + ["fast GFLOP/s", "fast/blocked"],
        title="kernel backends (host wall clock)",
    )
    for config in result["configs"]:
        be = config["backends"]
        table.add_row(
            [
                config["name"],
                f"{be['dense']['seconds'] * 1e3:.3f}",
            ]
            + [
                f"{be[name]['seconds'] * 1e3:.3f}" if name in be else "-"
                for name in names
            ]
            + [
                f"{be['fast']['gflops']:.1f}" if "fast" in be else "-",
                (
                    f"{config['fast_vs_blocked']:.1f}x"
                    if config["fast_vs_blocked"] is not None
                    else "-"
                ),
            ]
        )
    return table.render()


def test_bench_kernel_backends(benchmark, emit):
    result = benchmark.pedantic(run_kernel_bench, rounds=1, iterations=1)
    path = write_results(result)
    emit(
        "kernel_backends",
        render_results(result) + f"\n\nwrote {path.relative_to(REPO_ROOT)}",
    )

    assert result["schema"] == SCHEMA
    assert len(result["configs"]) == (
        len(SHAPES) * len(PATTERNS) + 1 + len(DECODE_SHAPES)
    )
    for config in result["configs"]:
        # The builtin registry rows must be present alongside the raw
        # baselines (they always support these requests and meet
        # float32 tolerance); third-party registrations may be skipped
        # with a note, so they are deliberately not asserted here.
        for builtin in BUILTIN_BACKENDS:
            assert builtin in config["backends"]
        for entry in config["backends"].values():
            assert entry["seconds"] > 0
            assert entry["gflops"] > 0
    by_name = {c["name"]: c for c in result["configs"]}
    # The PR-2 headline: fast must beat the structural blocked executor
    # by >=5x on the bench_functional_kernels medium problem.
    funcbench = by_name[f"{FUNCBENCH_NAME}-8:32"]["fast_vs_blocked"]
    assert funcbench is not None and funcbench >= 5.0
    # The registry PR's headline: dense_scatter closes the tiny-L gap,
    # beating gather-GEMM on the degenerate 2:4/L=4 small config...
    small = by_name["small-2:4"]["backends"]
    assert small["dense_scatter"]["gflops"] >= small["fast"]["gflops"]
    # ...without the facade materially slowing fast vs the raw kernel
    # on the medium/large configs.  Same-run comparison (the cross-run
    # GFLOP/s history is machine-noise bound), with a bar wide enough
    # for shared-machine jitter: the checked-in data shows single-run
    # excursions past 20% in the facade's *favor*, so a tight bound
    # would flake on an unchanged tree; real facade cost measures 1-8%.
    for size in ("medium", "large"):
        for config_pattern in ("2:4", "8:32"):
            overhead = by_name[f"{size}-{config_pattern}"][
                "fast_facade_overhead"
            ]
            assert overhead is not None and overhead < 0.25


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny grid, one repeat, no JSON write (CI rot check)",
    )
    args = parser.parse_args(argv)
    result = run_kernel_bench(smoke=args.smoke)
    print(render_results(result))
    if not args.smoke:
        print(f"\nwrote {write_results(result)}")
        # Enforce the acceptance bars wherever the tracked numbers are
        # regenerated (the pytest path asserts the same).
        by_name = {c["name"]: c for c in result["configs"]}
        funcbench = by_name[f"{FUNCBENCH_NAME}-8:32"]["fast_vs_blocked"]
        if funcbench is None or funcbench < 5.0:
            shown = "missing" if funcbench is None else f"{funcbench:.1f}x"
            print(
                f"FAIL: fast is only {shown} vs the structural blocked "
                "executor on the funcbench medium problem "
                "(acceptance bar: >=5x)"
            )
            return 1
        small = by_name["small-2:4"]["backends"]
        if "fast" not in small or "dense_scatter" not in small:
            print(
                "FAIL: the small-2:4 acceptance rows are missing "
                f"(measured: {sorted(small)})"
            )
            return 1
        if small["dense_scatter"]["gflops"] < small["fast"]["gflops"]:
            print(
                "FAIL: dense_scatter "
                f"({small['dense_scatter']['gflops']:.1f} GFLOP/s) does "
                "not close the tiny-L gap vs fast "
                f"({small['fast']['gflops']:.1f} GFLOP/s) on small-2:4"
            )
            return 1
        # The decode rows are reported, not gated: at m <= 16 the
        # facade's fixed per-call cost is a large share of a call that
        # takes tens of microseconds.
        decode = {
            f"{name}-{DECODE_PATTERN.n}:{DECODE_PATTERN.m}"
            for name, _ in DECODE_SHAPES
        }
        worst = max(
            (
                c["fast_facade_overhead"]
                for c in result["configs"]
                if c["fast_facade_overhead"] is not None
                and c["name"] not in decode
            ),
            default=None,
        )
        if worst is not None and worst >= 0.25:
            # Looser than the pytest bar: standalone runs share the
            # machine with whatever else is running.
            print(
                f"FAIL: execute() facade costs fast {worst * 100:.0f}% "
                "over the raw kernel (bar: <25%)"
            )
            return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
