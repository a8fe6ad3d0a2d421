"""End-to-end model serving: the full Llama decode loop through the
serving engine with KV-cache-aware device-memory accounting — canned
scenarios, the kv-aware-vs-none SLO comparison the benchmark tracks,
obs integration, chaos determinism, and the hypothesis properties
(never over budget at any event; zero leaked KV after drain)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServeError
from repro.obs import Tracer
from repro.serve.loadgen import TrafficSource, generate_requests
from repro.serve.model_exec import (
    DeviceMemoryModel,
    ModelServingScenario,
    agentic_short_decodes,
    long_context_summarization,
    prefill_heavy_chat,
)
from repro.serve.request import InferenceRequest


class TestModelModeTraffic:
    def test_sources_emit_model_mode_requests(self):
        source = TrafficSource(
            model="llama-7b", k=256,
            prompt_len_choices=(32, 64),
            max_new_tokens_choices=(4, 8),
        )
        trace = generate_requests(
            [source], 50.0, 1.0, seed=1, synthesize_activations=False
        )
        assert trace
        for request in trace:
            assert request.prompt_len in (32, 64)
            assert request.max_new_tokens in (4, 8)
            assert request.a is None

    def test_model_mode_excludes_decode_fraction(self):
        with pytest.raises(ServeError, match="mutually exclusive"):
            TrafficSource(
                model="m", k=16,
                prompt_len_choices=(8,), decode_fraction=0.5,
            )

    def test_bad_choices_rejected(self):
        with pytest.raises(ServeError, match="prompt_len_choices"):
            TrafficSource(model="m", k=16, prompt_len_choices=())
        with pytest.raises(ServeError, match="max_new_tokens_choices"):
            TrafficSource(
                model="m", k=16, prompt_len_choices=(8,),
                max_new_tokens_choices=(0,),
            )


class TestScenarioConfig:
    def test_validation(self):
        with pytest.raises(ServeError, match="not both"):
            ModelServingScenario(hbm_tokens=100, hbm_bytes=1 << 20)
        with pytest.raises(ServeError, match="hbm_tokens"):
            ModelServingScenario(hbm_tokens=0)
        with pytest.raises(ServeError, match="admission"):
            ModelServingScenario(kv_admission="magic")

    def test_budget_in_kv_token_headroom(self):
        scenario = ModelServingScenario(hbm_tokens=1000)
        executor = scenario.build_executor()
        assert scenario.budget_bytes(executor) == (
            executor.weight_bytes + 1000 * executor.kv_bytes_per_token
        )
        assert ModelServingScenario(hbm_bytes=12345).budget_bytes() == 12345
        assert ModelServingScenario().budget_bytes() is None

    def test_non_int_hbm_bytes_rejected(self):
        # The scenario used to truncate 2.5 to a 2-byte budget.
        with pytest.raises(ServeError, match="hbm_bytes must be finite int"):
            ModelServingScenario(hbm_bytes=2.5).build_server()

    @pytest.mark.parametrize("hbm_tokens", [True, 2.5])
    def test_non_int_hbm_tokens_rejected(self, hbm_tokens):
        # True used to run as a 1-token headroom, and 2.5 failed only in
        # build_server(), naming hbm_bytes.
        with pytest.raises(ServeError, match="hbm_tokens must be an int"):
            ModelServingScenario(hbm_tokens=hbm_tokens)

    def test_describe_names_the_regime(self):
        text = long_context_summarization().describe()
        assert "kv=kv-aware" in text and "hbm_tokens=2000" in text


class TestEndToEnd:
    def test_prefill_heavy_chat_completes(self):
        report = prefill_heavy_chat(duration_s=0.5).run()
        summary = report.summary()
        assert summary["resilience"]["outcomes"]["completed"] > 0
        assert summary["memory"]["admission"] == "kv-aware"
        assert summary["memory"]["peak_utilization"] <= 1.0
        assert summary["model"]["prefill_s"] > 0
        assert "kv-aware" in report.metrics.render()

    def test_agentic_short_decodes_runs(self):
        summary = agentic_short_decodes(duration_s=0.5).run().summary()
        assert summary["resilience"]["outcomes"]["completed"] > 0
        assert summary["continuous"]["steps"] > 0

    def test_kv_aware_beats_none_under_memory_pressure(self):
        # The tracked benchmark comparison in miniature: identical
        # offered load, memory-constrained long-context regime.
        kv = long_context_summarization(duration_s=1.0).run().summary()
        none = long_context_summarization(
            duration_s=1.0, kv_admission="none"
        ).run().summary()
        assert kv["slo"]["attainment_rate"] > none["slo"]["attainment_rate"]
        # Both regimes genuinely exercised: the kv-aware run evicted
        # under pressure, the baseline overflowed and paid thrash.
        assert kv["memory"]["kv_evictions"] > 0
        assert kv["memory"]["overflow_steps"] == 0
        assert none["memory"]["overflow_steps"] > 0
        assert none["model"]["thrash_s"] > 0

    def test_impossible_request_refused_at_submission(self):
        scenario = prefill_heavy_chat(hbm_tokens=100)
        server, _ = scenario.build_server()
        with pytest.raises(ServeError, match="can never fit"):
            server.submit(
                InferenceRequest(
                    request_id=0, model=scenario.model.lower(), a=None,
                    arrival_s=0.0, shape=(1, 256),
                    prompt_len=400, max_new_tokens=8,
                )
            )

    def test_plain_request_rejected_on_model_mode_entry(self):
        server, _ = prefill_heavy_chat().build_server()
        with pytest.raises(ServeError, match="prompt_len"):
            server.submit(
                InferenceRequest(
                    request_id=0, model="llama-7b", a=None,
                    arrival_s=0.0, shape=(1, 256),
                )
            )

    def test_deterministic_per_seed(self):
        first = long_context_summarization(duration_s=0.5).run().summary()
        second = long_context_summarization(duration_s=0.5).run().summary()
        assert first == second

    def test_deterministic_under_faults(self):
        def run():
            return long_context_summarization(
                duration_s=0.5, devices=2,
                faults="devfail:device=1,at=0.25", resilience=True,
            ).run().summary()

        first, second = run(), run()
        assert first == second
        assert first["resilience"]["reshards"] == 1
        assert first["memory"]["budget_shrinks"] == 1

    def test_failed_steps_keep_their_kv_accounting(self):
        # Memory-pressure evictions and (re)prefills inside a step that
        # then suffers a launch fault still happened: the step record
        # keeps them, so the per-step totals match the HBM pool's.
        report = long_context_summarization(
            duration_s=4.0, seed=0, faults="launch:p=0.3;seed=0",
            resilience=True,
        ).run()
        summary = report.summary()
        assert summary["memory"]["kv_evictions"] > 0
        assert (
            summary["model"]["kv_evictions"]
            == summary["memory"]["kv_evictions"]
        )
        failed = [s for s in report.metrics.step_records if s.failed]
        assert any(s.prefill_s > 0 for s in failed)
        assert any(s.kv_bytes > 0 for s in failed)


class TestObsIntegration:
    def test_model_spans_and_kv_telemetry(self):
        tracer = Tracer()
        report = long_context_summarization(
            duration_s=0.5, tracer=tracer
        ).run()
        tracer.check_invariants()
        prefills = tracer.find("model.prefill")
        decodes = tracer.find("model.decode_step")
        assert prefills and decodes
        # Per-layer gather-GEMM launches nest under the walk spans.
        launches = [
            s for s in tracer.find("gpu.launch") if "layer" in s.attrs
        ]
        assert launches
        walk_ids = {s.span_id for s in prefills + decodes}
        assert any(s.parent_id in walk_ids for s in launches)
        # Memory pressure surfaced as events + counter + drained gauge.
        evicts = [e for e in tracer.events if e.name == "kv.evict"]
        assert len(evicts) > 0
        assert report.summary()["memory"]["kv_evictions"] >= len(evicts)
        metrics = tracer.metrics.as_dict()
        assert metrics["serve_kv_bytes"]["_"] == 0.0
        assert sum(metrics["serve_kv_evictions_total"].values()) > 0


class TestCli:
    def test_model_mode_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve-sim", "--model-mode", "--blocks", "3",
             "--hbm-tokens", "1500", "--kv-admission", "none",
             "--prompt-lens", "64", "128", "--max-new-tokens", "4",
             "--slo-ms", "300"]
        )
        assert args.model_mode and args.blocks == 3
        assert args.hbm_tokens == 1500 and args.kv_admission == "none"
        assert args.prompt_lens == [64, 128]
        assert args.max_new_tokens == [4]
        assert args.slo_ms == 300.0
        defaults = build_parser().parse_args(["serve-sim"])
        assert not defaults.model_mode
        assert defaults.kv_admission == "kv-aware"

    def test_model_mode_run_reports_memory(self, capsys):
        from repro.cli import main

        assert main(
            ["serve-sim", "--model-mode", "--qps", "60",
             "--duration", "0.2", "--hbm-tokens", "2000",
             "--slo-ms", "400"]
        ) == 0
        out = capsys.readouterr().out
        assert "kv=kv-aware hbm_tokens=2000" in out
        assert "HBM budget" in out and "KV pressure" in out

    def test_model_mode_rejects_decode_fraction(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="decode-fraction"):
            main(["serve-sim", "--model-mode", "--decode-fraction", "0.5",
                  "--duration", "0.1"])

    def test_model_mode_config_errors_exit_cleanly(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="serve-sim:"):
            main(["serve-sim", "--model-mode", "--duration", "0.1",
                  "--hbm-tokens", "100", "--hbm-bytes", "1000"])


class TestMemoryProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_accountant_conserves_bytes_under_random_ops(self, data):
        budget = data.draw(st.integers(1_000, 50_000))
        mem = DeviceMemoryModel(budget)
        weights = data.draw(st.integers(0, budget))
        mem.add_weights("weights", weights, 0.0)
        live: list[int] = []
        next_id = 0
        for t in range(data.draw(st.integers(1, 60))):
            op = data.draw(st.sampled_from(("reserve", "grow", "release")))
            if op == "reserve":
                nbytes = data.draw(st.integers(0, budget))
                if mem.fits(nbytes):  # the engine's admission gate
                    mem.reserve_kv(next_id, nbytes, float(t))
                    live.append(next_id)
                    next_id += 1
            elif op == "grow" and live:
                rids = data.draw(
                    st.lists(st.sampled_from(live), min_size=1, unique=True)
                )
                delta = data.draw(st.integers(0, 1_000))
                if mem.fits(delta * len(rids)):
                    mem.grow_kv(rids, delta, float(t))
            elif op == "release" and live:
                rid = data.draw(st.sampled_from(live))
                live.remove(rid)
                mem.release_kv(rid, float(t))
        for rid in live:  # drain
            mem.release_kv(rid, 1e9)
        mem.assert_within_budget()  # held at *every* recorded event
        assert mem.reconcile() == weights  # zero leaked KV
        assert mem.peak_bytes <= budget

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        qps=st.floats(30.0, 120.0),
        hbm_tokens=st.integers(700, 4_000),
    )
    def test_serving_never_exceeds_budget(self, seed, qps, hbm_tokens):
        report = prefill_heavy_chat(
            seed=seed, qps=qps, hbm_tokens=hbm_tokens, duration_s=0.3
        ).run()
        mem = report.memory_model
        assert mem is not None
        # Weights + KV stayed inside the budget at every event, and
        # every KV byte was released by drain (ledgers reconcile).
        mem.assert_within_budget()
        assert not mem.kv
        assert mem.reconcile() == mem.weight_bytes
        assert mem.weight_bytes <= mem.peak_bytes <= mem.budget_bytes
