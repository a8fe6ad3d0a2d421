"""Command-line entry points: ``python -m repro <experiment>``.

Regenerates each paper artefact from the performance model and prints
the same rows/series the paper reports::

    python -m repro fig7            # step-wise optimization bars
    python -m repro fig8            # blocking-parameter kernels
    python -m repro fig9 --gpu 3090 # comparison on the 100-point set
    python -m repro fig10           # roofline analysis
    python -m repro table1          # autotuner vs Table I
    python -m repro serve-sim       # dynamic-batching serving simulation
    python -m repro backends        # registered execution backends
    python -m repro trace summarize # top-k table from a serve-sim trace
    python -m repro trace critical-path  # per-request latency buckets
    python -m repro trace attribute # roofline placement of gpu.launches
    python -m repro trace diff      # regression-gate two traces
    python -m repro bench diff      # regression-gate two BENCH_*.json
    python -m repro all             # everything
"""

from __future__ import annotations

import argparse
import sys

from repro._version import __version__
from repro.backends import backend_names
from repro.distributed import LINKS, SHARD_MODES
from repro.workloads.llama import LLAMA_LAYER_KINDS

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nm-spmm",
        description="NM-SpMM reproduction: regenerate the paper's tables and figures.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="experiment", required=True)

    p7 = sub.add_parser("fig7", help="step-wise optimization evaluation (Fig. 7)")
    p7.add_argument("--gpus", nargs="+", default=["A100", "3090", "4090"])

    p8 = sub.add_parser("fig8", help="blocking-parameter kernels (Fig. 8)")
    p8.add_argument("--gpu", default="A100")

    p9 = sub.add_parser("fig9", help="comparison with related work (Fig. 9)")
    p9.add_argument("--gpu", default="A100")
    p9.add_argument("--limit", type=int, default=None, help="truncate the 100-point set")
    p9.add_argument("--per-point", action="store_true", help="print all points")

    p10 = sub.add_parser("fig10", help="roofline analysis (Fig. 10)")
    p10.add_argument("--gpu", default="A100")

    pt1 = sub.add_parser("table1", help="autotuner vs Table I parameters")
    pt1.add_argument("--gpu", default="A100")
    pt1.add_argument("--max-block", type=int, default=128)

    psw = sub.add_parser("sweep", help="custom shape/sparsity sweep")
    psw.add_argument("--shapes", nargs="+", default=["4096x4096x4096"],
                     help="MxNxK triples, e.g. 512x512x512")
    psw.add_argument("--sparsities", nargs="+", type=float,
                     default=[0.5, 0.625, 0.75, 0.875])
    psw.add_argument("--gpus", nargs="+", default=["A100"])
    psw.add_argument("--versions", nargs="+", default=["V3"])
    psw.add_argument("--vector-length", type=int, default=32)

    pv = sub.add_parser(
        "validate", help="cross-check the analytic model vs the kernels"
    )
    pv.add_argument("--n-ratio", type=int, default=2, help="pattern N")
    pv.add_argument("--m-ratio", type=int, default=8, help="pattern M")
    pv.add_argument("--vector-length", type=int, default=4)

    pss = sub.add_parser(
        "serve-sim",
        help="dynamic-batching serving simulation over Llama-shaped load",
    )
    pss.add_argument("--models", nargs="+", default=["llama-7b"],
                     help="Llama checkpoints to serve (e.g. llama-7b llama-13b)")
    pss.add_argument("--layer", default="attn-qkvo",
                     choices=LLAMA_LAYER_KINDS)
    pss.add_argument("--scale", type=int, default=16,
                     help="shrink every dimension by this factor (1 = true shapes)")
    pss.add_argument("--pattern", default="2:8", help="N:M sparsity, e.g. 2:8")
    pss.add_argument("--vector-length", type=int, default=8)
    pss.add_argument("--gpu", default="A100")
    pss.add_argument("--opt-version", default="V3", help="optimization level")
    pss.add_argument("--qps", type=float, default=200.0)
    pss.add_argument("--duration", type=float, default=5.0,
                     help="simulated seconds of arrivals")
    pss.add_argument("--arrival", choices=["poisson", "bursty"],
                     default="poisson")
    pss.add_argument("--seed", type=int, default=0)
    pss.add_argument("--sched", choices=["fifo", "priority", "slo-edf"],
                     default="fifo",
                     help="scheduling policy: arrival order, strict "
                          "priority tiers, or priority + earliest "
                          "deadline first")
    pss.add_argument("--decode-fraction", type=float, default=None,
                     metavar="FRAC",
                     help="emit this fraction of traffic as decode-shaped "
                          "multi-step sequences and serve them with "
                          "continuous batching (rolling in-flight batch)")
    pss.add_argument("--max-batch-requests", type=int, default=16)
    pss.add_argument("--max-batch-rows", type=int, default=256)
    pss.add_argument("--max-wait-ms", type=float, default=2.0)
    pss.add_argument("--cache-size", type=int, default=None,
                     help="plan-cache capacity (entries; default 64, or in "
                          "--model-mode every layer at every row bucket)")
    pss.add_argument("--backend", default="auto",
                     choices=list(backend_names()),
                     help="execution backend batches run with (from the "
                          "backend registry; auto = cost-aware selection)")
    pss.add_argument("--devices", type=int, default=1,
                     help="simulated device count; > 1 shards every model "
                          "tensor-parallel across the group")
    pss.add_argument("--shard", choices=list(SHARD_MODES), default="column",
                     help="tensor-parallel mode for --devices > 1: shard n "
                          "and all-gather outputs (column) or shard k and "
                          "all-reduce partials (row)")
    pss.add_argument("--link", choices=sorted(LINKS), default="nvlink",
                     help="interconnect of the simulated device group")
    pss.add_argument("--faults", default=None, metavar="SPEC",
                     help="inject seeded chaos: ';'-separated clauses "
                          "like 'launch:p=0.2,start=1,end=3', "
                          "'devfail:device=1,at=2.5', "
                          "'slow:device=0,factor=3', or "
                          "'link:factor=0.1,extra-lat=2e-4,"
                          "period=0.25,duty=0.5'")
    pss.add_argument("--resilience", action="store_true",
                     help="enable the resilience machinery (retries "
                          "with backoff, request timeouts, circuit "
                          "breakers + re-sharding onto survivors, "
                          "admission load shedding)")
    pss.add_argument("--no-numerics", action="store_true",
                     help="modeled timing only; skip the NumPy kernels")
    pss.add_argument("--model-mode", action="store_true",
                     help="serve a whole Llama model through a "
                          "ModelExecutor: requests carry prompt/decode "
                          "lengths, prefill + per-token decode walk every "
                          "layer, and KV-cache bytes are accounted against "
                          "a simulated HBM budget (modeled timing only; "
                          "serves the first --models entry)")
    pss.add_argument("--blocks", type=int, default=2,
                     help="transformer blocks the model-mode executor "
                          "instantiates")
    pss.add_argument("--hbm-tokens", type=int, default=None,
                     metavar="TOKENS",
                     help="model-mode HBM budget as KV-token headroom "
                          "above the compressed weights (default: the "
                          "GPU catalog's dram_gb)")
    pss.add_argument("--hbm-bytes", type=int, default=None, metavar="BYTES",
                     help="model-mode HBM budget as an explicit byte "
                          "count (mutually exclusive with --hbm-tokens)")
    pss.add_argument("--kv-admission", choices=["kv-aware", "none"],
                     default="kv-aware",
                     help="model-mode admission: respect the HBM budget "
                          "(evict under pressure) or run the no-memory-"
                          "model baseline that thrashes on overflow")
    pss.add_argument("--prompt-lens", type=int, nargs="+",
                     default=[64, 128, 256], metavar="TOKENS",
                     help="model-mode per-request prompt lengths "
                          "(uniform draw)")
    pss.add_argument("--max-new-tokens", type=int, nargs="+",
                     default=[8, 16], metavar="TOKENS",
                     help="model-mode per-request decode lengths "
                          "(uniform draw)")
    pss.add_argument("--slo-ms", type=float, default=None,
                     help="model-mode per-request latency SLO")
    pss.add_argument("--json", default=None, metavar="PATH",
                     help="also write the summary as JSON")
    pss.add_argument("--trace", default=None, metavar="PATH",
                     help="record the run's span tree and write it here")
    pss.add_argument("--trace-format",
                     choices=["perfetto", "jsonl", "jsonl-stream"],
                     default="perfetto",
                     help="trace file format: Chrome trace-event JSON "
                          "(loadable in Perfetto/chrome://tracing), a "
                          "line-per-record JSONL event log, or the same "
                          "JSONL written incrementally while the run "
                          "executes (bounded tracer memory)")
    pss.add_argument("--metrics", default=None, metavar="PATH",
                     help="write the run's metrics in Prometheus text "
                          "exposition format")

    sub.add_parser(
        "backends",
        help="list registered execution backends and their capabilities",
    )

    plint = sub.add_parser(
        "lint",
        help="AST-based invariant linter: determinism, units, ledger "
             "and API discipline (the repro-lint CI gate)",
    )
    plint.add_argument("paths", nargs="*", default=["src"],
                       help="files or directories to lint (default: src)")
    plint.add_argument("--format", choices=["text", "json"], default="text",
                       dest="output_format",
                       help="report format: clickable text rows or the "
                            "repro-lint-report/v1 JSON document")
    plint.add_argument("--baseline", default=None, metavar="PATH",
                       help="JSON baseline of grandfathered findings; "
                            "only findings not in it fail the gate")
    plint.add_argument("--update-baseline", action="store_true",
                       help="rewrite --baseline from the current "
                            "findings (prunes stale entries) and exit 0")
    plint.add_argument("--select", nargs="+", default=None, metavar="CODE",
                       help="run only these rule codes (default: all)")
    plint.add_argument("--exclude", action="append", default=[],
                       metavar="PREFIX",
                       help="skip files whose path (relative to the "
                            "working directory) starts with this posix "
                            "prefix; repeatable")
    plint.add_argument("--list-rules", action="store_true",
                       help="print the registered rule pack and exit")

    ptr = sub.add_parser(
        "trace", help="inspect trace files written by serve-sim --trace"
    )
    trace_sub = ptr.add_subparsers(dest="trace_command", required=True)
    ptrs = trace_sub.add_parser(
        "summarize",
        help="aggregate a trace's spans into a top-k self/total table",
    )
    ptrs.add_argument("file", help="trace file (either format)")
    ptrs.add_argument("--top", type=int, default=10,
                      help="rows to print (sorted by total time)")
    ptrv = trace_sub.add_parser(
        "validate",
        help="schema-check a Chrome trace-event JSON file",
    )
    ptrv.add_argument("file", help="Chrome trace-event JSON file")
    ptrc = trace_sub.add_parser(
        "critical-path",
        help="decompose per-request latency into queue/retry/compute/"
             "comm/paging/host buckets",
    )
    ptrc.add_argument("file", help="trace file (either format)")
    ptrc.add_argument("--json", action="store_true",
                      help="emit the full report as JSON instead of a table")
    ptra = trace_sub.add_parser(
        "attribute",
        help="place every traced gpu.launch on its GPU's roofline",
    )
    ptra.add_argument("file", help="trace file (either format)")
    ptra.add_argument("--top", type=int, default=12,
                      help="launch groups to print (sorted by GPU time)")
    ptra.add_argument("--json", action="store_true",
                      help="emit the full report as JSON instead of a table")
    ptrd = trace_sub.add_parser(
        "diff",
        help="compare two traces; exit 1 if a duration regressed",
    )
    ptrd.add_argument("old", help="baseline trace file")
    ptrd.add_argument("new", help="candidate trace file")
    ptrd.add_argument("--threshold", type=float, default=None,
                      help="relative noise threshold (default 0.01)")
    ptrd.add_argument("--all", action="store_true",
                      help="also print unchanged metrics")

    pbench = sub.add_parser(
        "bench", help="operate on BENCH_*.json benchmark results"
    )
    bench_sub = pbench.add_subparsers(dest="bench_command", required=True)
    pbd = bench_sub.add_parser(
        "diff",
        help="compare two benchmark results of the same schema; "
             "exit 1 on regression, 2 on schema/config mismatch",
    )
    pbd.add_argument("old", help="baseline BENCH_*.json")
    pbd.add_argument("new", help="candidate BENCH_*.json")
    pbd.add_argument("--threshold", type=float, default=None,
                     help="relative noise threshold (default per schema: "
                          "0.01 modeled, 0.25 wall-clock kernels)")
    pbd.add_argument("--smoke", action="store_true",
                     help="compare only metrics present in both results "
                          "(CI smoke subset vs committed full run)")
    pbd.add_argument("--all", action="store_true",
                     help="also print unchanged metrics")

    pall = sub.add_parser("all", help="run every experiment")
    pall.add_argument("--gpu", default="A100")
    pall.add_argument("--limit", type=int, default=20)
    return parser


#: serve-sim flags only --model-mode reads; plain mode refuses each one
#: set to anything but its default.
MODEL_MODE_FLAGS = (
    "blocks", "hbm_tokens", "hbm_bytes", "kv_admission", "slo_ms", "prompt_lens",
    "max_new_tokens",
)


def render_backends() -> str:
    """The ``backends`` subcommand's listing: every registered backend
    with its capabilities, plus the auto-selector's policy."""
    from repro.backends import AutoSelector, available_backends
    from repro.utils.tables import TextTable

    table = TextTable(
        ["name", "traces", "needs plan", "description"],
        title="execution backends (repro.backends registry)",
    )
    table.add_row(["auto", "-", "-", AutoSelector().describe()])
    for backend in available_backends():
        # capabilities() is optional in the Backend protocol, and a
        # third-party backend may expose it as a plain dict attribute.
        caps = getattr(backend, "capabilities", None)
        caps = (caps() if callable(caps) else caps) or {}
        table.add_row(
            [
                backend.name,
                str(caps.get("traces", "?")),
                "yes" if caps.get("needs_plan") else "no",
                str(caps.get("description", backend.__class__.__name__)),
            ]
        )
    return table.render()


def run_lint(args: argparse.Namespace) -> int:
    """The ``lint`` subcommand: run the invariant linter and gate on
    new findings (exit 1) — the same call CI makes."""
    from repro.analysis import (
        Baseline,
        format_json,
        format_rule_list,
        format_text,
        lint_paths,
        load_baseline,
        save_baseline,
    )
    from repro.errors import LintError

    if args.list_rules:
        print(format_rule_list())
        return 0
    try:
        rules = None
        if args.select is not None:
            from repro.analysis import get_rule

            rules = [get_rule(code) for code in args.select]
        report = lint_paths(
            tuple(args.paths), rules=rules, exclude=tuple(args.exclude)
        )
        if args.update_baseline:
            if args.baseline is None:
                raise LintError("--update-baseline requires --baseline PATH")
            save_baseline(Baseline.from_findings(report.findings), args.baseline)
            print(
                f"wrote {args.baseline} "
                f"({len(report.findings)} grandfathered findings)"
            )
            return 0
        if args.baseline is not None:
            report.apply_baseline(load_baseline(args.baseline))
    except LintError as exc:
        raise SystemExit(f"lint: {exc}") from exc
    if args.output_format == "json":
        print(format_json(report))
    else:
        print(format_text(report))
    return 0 if report.clean else 1


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    from repro.errors import ReproError

    try:
        return _run(args)
    except ReproError as exc:
        command = " ".join(
            part for part in (
                args.experiment,
                getattr(args, "trace_command", None),
                getattr(args, "bench_command", None),
            ) if part
        )
        raise SystemExit(f"{command}: {exc}") from exc


def _run(args: argparse.Namespace) -> int:
    """Run one parsed subcommand; library errors propagate to
    :func:`main`, which turns them into a one-line exit."""
    # Imports are deferred so `--help` stays fast.
    from repro.bench import (
        render_fig10,
        render_fig7,
        render_fig8,
        render_fig9,
        render_table1,
        run_fig10,
        run_fig7,
        run_fig8,
        run_fig9,
        run_table1,
    )

    if args.experiment == "fig7":
        print(render_fig7(run_fig7(tuple(args.gpus))))
    elif args.experiment == "fig8":
        print(render_fig8(run_fig8(args.gpu)))
    elif args.experiment == "fig9":
        print(render_fig9(run_fig9(args.gpu, limit=args.limit), per_point=args.per_point))
    elif args.experiment == "fig10":
        print(render_fig10(run_fig10(args.gpu)))
    elif args.experiment == "table1":
        print(render_table1(run_table1(args.gpu, max_block=args.max_block)))
    elif args.experiment == "sweep":
        from repro.bench.runner import run_sweep
        from repro.sparsity.config import NMPattern

        shapes = []
        for spec_str in args.shapes:
            parts = spec_str.lower().split("x")
            if len(parts) != 3 or not all(p.isdigit() for p in parts):
                raise SystemExit(
                    f"sweep: bad shape {spec_str!r}; expected MxNxK"
                )
            shapes.append(tuple(int(p) for p in parts))
        patterns = [
            NMPattern.from_sparsity(s, m=32, vector_length=args.vector_length)
            for s in args.sparsities
        ]
        sweep = run_sweep(shapes, patterns, args.gpus, args.versions)
        print(sweep.render())
        print(f"\ngeomean speedup vs cuBLAS: {sweep.geomean_speedup():.2f}x")
    elif args.experiment == "validate":
        from repro.model.validation import validate_model
        from repro.sparsity.config import NMPattern

        pattern = NMPattern(
            args.n_ratio, args.m_ratio, vector_length=args.vector_length
        )
        report = validate_model(pattern)
        print(report.render())
        worst = report.max_rel_error()
        print(f"\nmax relative error (exact quantities): {worst * 100:.3f}%")
        if worst > 1e-6:
            return 1
    elif args.experiment == "serve-sim":
        import json as json_module

        from repro.errors import ReproError
        from repro.serve.batcher import BatchingPolicy
        from repro.serve.scenarios import LlamaServingScenario, parse_pattern

        tracer = None
        stream_writer = None
        if args.trace or args.metrics:
            from repro.obs import Tracer

            if args.trace and args.trace_format == "jsonl-stream":
                from repro.obs import StreamingJsonlWriter

                stream_writer = StreamingJsonlWriter(args.trace)
                tracer = Tracer(sink=stream_writer)
            else:
                tracer = Tracer()
        try:
            policy = BatchingPolicy(
                max_batch_requests=args.max_batch_requests,
                max_batch_rows=args.max_batch_rows,
                max_wait_s=args.max_wait_ms * 1e-3,
            )
            if args.model_mode:
                from repro.serve.model_exec import ModelServingScenario

                if args.decode_fraction is not None:
                    raise SystemExit(
                        "serve-sim: --decode-fraction does not apply in "
                        "--model-mode (decode lengths come from "
                        "--max-new-tokens)"
                    )
                scenario = ModelServingScenario(
                    model=args.models[0],
                    scale=args.scale,
                    blocks=args.blocks,
                    pattern=parse_pattern(args.pattern, args.vector_length),
                    gpu=args.gpu,
                    version=args.opt_version,
                    backend=args.backend,
                    qps=args.qps,
                    duration_s=args.duration,
                    arrival=args.arrival,
                    seed=args.seed,
                    scheduling=args.sched,
                    policy=policy,
                    plan_cache_capacity=args.cache_size,
                    prompt_len_choices=tuple(args.prompt_lens),
                    max_new_tokens_choices=tuple(args.max_new_tokens),
                    slo_ms=args.slo_ms,
                    hbm_tokens=args.hbm_tokens,
                    hbm_bytes=args.hbm_bytes,
                    kv_admission=args.kv_admission,
                    devices=args.devices,
                    shard=args.shard,
                    link=args.link,
                    tracer=tracer,
                    faults=args.faults,
                    resilience=args.resilience or None,
                )
            else:
                defaults = build_parser().parse_args(["serve-sim"])
                for dest in MODEL_MODE_FLAGS:
                    if getattr(args, dest) != getattr(defaults, dest):
                        flag = "--" + dest.replace("_", "-")
                        raise SystemExit(f"serve-sim: {flag} applies only in --model-mode")
                scenario = LlamaServingScenario(
                    models=tuple(args.models),
                    layer=args.layer,
                    scale=args.scale,
                    pattern=parse_pattern(args.pattern, args.vector_length),
                    gpu=args.gpu,
                    version=args.opt_version,
                    qps=args.qps,
                    duration_s=args.duration,
                    arrival=args.arrival,
                    seed=args.seed,
                    policy=policy,
                    plan_cache_capacity=64 if args.cache_size is None else args.cache_size,
                    execute_numerics=not args.no_numerics,
                    backend=args.backend,
                    scheduling=args.sched,
                    continuous=args.decode_fraction is not None,
                    decode_fraction=args.decode_fraction,
                    devices=args.devices,
                    shard=args.shard,
                    link=args.link,
                    tracer=tracer,
                    faults=args.faults,
                    resilience=args.resilience or None,
                )
            report = scenario.run()
        except (ReproError, SystemExit):
            if stream_writer is not None:
                stream_writer.close()
            raise
        print(report.render(title=f"serve-sim: {scenario.describe()}"))
        if args.json:
            with open(args.json, "w") as fh:
                json_module.dump(report.summary(), fh, indent=2, sort_keys=True)
            print(f"\nwrote {args.json}")
        if args.trace:
            from repro.obs import write_chrome_trace, write_jsonl

            if stream_writer is not None:
                stream_writer.close()
            elif args.trace_format == "jsonl":
                write_jsonl(tracer, args.trace)
            else:
                write_chrome_trace(tracer, args.trace)
            print(f"wrote {args.trace} ({args.trace_format})")
        if args.metrics:
            from repro.obs import prometheus_text

            with open(args.metrics, "w") as fh:
                fh.write(prometheus_text(tracer.metrics))
            print(f"wrote {args.metrics} (prometheus)")
    elif args.experiment == "trace":
        from repro.errors import ObsError
        from repro.obs import summarize_file, validate_chrome_trace

        if args.trace_command == "summarize":
            try:
                print(summarize_file(args.file, top=args.top))
            except (OSError, ObsError) as exc:
                raise SystemExit(f"trace summarize: {exc}") from exc
        elif args.trace_command == "critical-path":
            import json as json_module

            from repro.obs import load_trace
            from repro.obs.analyze import extract_critical_paths

            try:
                report = extract_critical_paths(load_trace(args.file))
            except (OSError, ValueError, ObsError) as exc:
                raise SystemExit(f"trace critical-path: {exc}") from exc
            if args.json:
                print(json_module.dumps(report.to_dict(), indent=2,
                                        sort_keys=True))
            else:
                print(report.render(title=f"critical path: {args.file}"))
        elif args.trace_command == "attribute":
            import json as json_module

            from repro.obs import load_trace
            from repro.obs.analyze import attribute_roofline

            try:
                report = attribute_roofline(load_trace(args.file))
            except (OSError, ValueError, ObsError) as exc:
                raise SystemExit(f"trace attribute: {exc}") from exc
            if args.json:
                print(json_module.dumps(report.to_dict(), indent=2,
                                        sort_keys=True))
            else:
                print(report.render(
                    top=args.top, title=f"roofline attribution: {args.file}"
                ))
        elif args.trace_command == "diff":
            from repro.obs import load_trace
            from repro.obs.analyze import diff_traces
            from repro.obs.analyze.diff import DEFAULT_THRESHOLD

            try:
                report = diff_traces(
                    load_trace(args.old),
                    load_trace(args.new),
                    threshold=(DEFAULT_THRESHOLD if args.threshold is None
                               else args.threshold),
                )
            except (OSError, ValueError, ObsError) as exc:
                raise SystemExit(f"trace diff: {exc}") from exc
            print(report.render(all_rows=args.all))
            return report.exit_code
        else:
            import json as json_module

            try:
                with open(args.file) as fh:
                    data = json_module.load(fh)
            except (OSError, ValueError) as exc:
                raise SystemExit(f"trace validate: {exc}") from exc
            problems = validate_chrome_trace(data)
            if problems:
                for problem in problems:
                    print(f"invalid: {problem}")
                return 1
            print(
                f"{args.file}: valid Chrome trace "
                f"({len(data['traceEvents'])} events)"
            )
    elif args.experiment == "bench":
        from repro.errors import ObsError
        from repro.obs.analyze import diff_bench_files

        try:
            report = diff_bench_files(
                args.old, args.new,
                threshold=args.threshold, smoke=args.smoke,
            )
        except (OSError, ValueError) as exc:
            print(f"bench diff: {exc}")
            return 2
        except ObsError as exc:
            print(f"bench diff: refused: {exc}")
            return 2
        print(report.render(all_rows=args.all))
        return report.exit_code
    elif args.experiment == "backends":
        print(render_backends())
    elif args.experiment == "lint":
        return run_lint(args)
    elif args.experiment == "all":
        print(render_fig7(run_fig7()))
        print()
        print(render_fig8(run_fig8(args.gpu)))
        print()
        print(render_fig9(run_fig9(args.gpu, limit=args.limit)))
        print()
        print(render_fig10(run_fig10(args.gpu)))
        print()
        print(render_table1(run_table1(args.gpu)))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
