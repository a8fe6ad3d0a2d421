"""The cost-aware auto-selector: decision table, reasons, overrides.

The satellite decision table from the registry PR: pattern (2:4, 8:32)
x vector length (4, 32) x trace-requested, asserting both the chosen
backend and that ``explain()`` yields a non-empty reason for every
cell.
"""

import numpy as np
import pytest

from repro.backends import (
    AutoSelector,
    ExecutionResult,
    SelectionDecision,
    register_backend,
    unregister_backend,
)
from repro.core.api import NMSpMM
from repro.errors import ConfigurationError
from repro.kernels.blocked import KernelTrace
from repro.serve.model_exec.executor import ModelExecutor
from repro.sparsity.config import NMPattern
from repro.workloads.synthetic import random_dense

RTOL = 2e-5
ATOL = 2e-5

#: (N, M) x L grid of the satellite decision table, at a batched
#: m=256 where the per-call scatter is amortized.  Expected choices:
#: a demanded trace always routes to the recorded-provenance executors;
#: L=4 degenerates the gather-GEMM (modeled efficiency (4/16)^2) so
#: both patterns route to dense_scatter once the batch amortizes the
#: scatter; L=32 is full-efficiency gather-GEMM and stays on fast.
DECISION_TABLE = [
    ((2, 4), 4, False, "dense_scatter"),
    ((2, 4), 4, True, "structural"),
    ((2, 4), 32, False, "fast"),
    ((2, 4), 32, True, "structural"),
    ((8, 32), 4, False, "dense_scatter"),
    ((8, 32), 4, True, "structural"),
    ((8, 32), 32, False, "fast"),
    ((8, 32), 32, True, "structural"),
]

#: Batch size the table is evaluated at (a batched serving shape; the
#: decode regime m=1 is covered separately below).
TABLE_M = 256


class Cheap:
    """A third-party numerics backend that enters the cost race through
    the ``estimated_cost`` hook at a settable price."""

    name = "cheap"

    def __init__(self):
        self.cost = 0.5

    def supports(self, request):
        return True

    def estimated_cost(self, request):
        return self.cost

    def run(self, request):
        return ExecutionResult(
            output=request.a @ request.handle.dense(),
            backend=self.name,
        )


@pytest.fixture
def numerics_backend():
    backend = register_backend(Cheap())
    yield backend
    unregister_backend(backend.name)


def _request(nm, ell, with_trace, rng, m=TABLE_M):
    n_ratio, m_ratio = nm
    pattern = NMPattern(n_ratio, m_ratio, vector_length=ell)
    op = NMSpMM(pattern)
    handle = op.prepare(random_dense(2 * pattern.m, 2 * ell, rng))
    a = random_dense(m, handle.k, rng)
    trace = KernelTrace() if with_trace else None
    return op, handle, op.build_request(a, handle, trace=trace)


class TestDecisionTable:
    @pytest.mark.parametrize(
        "nm, ell, with_trace, expected",
        DECISION_TABLE,
        ids=[
            f"{nm[0]}:{nm[1]}-L{ell}-{'trace' if tr else 'numerics'}"
            for nm, ell, tr, _ in DECISION_TABLE
        ],
    )
    def test_choice_and_reason(self, nm, ell, with_trace, expected, rng):
        op, _, request = _request(nm, ell, with_trace, rng)
        decision = op.selector.explain(request)
        assert isinstance(decision, SelectionDecision)
        assert decision.backend == expected
        assert decision.reason.strip()
        assert op.selector.select(request) == expected

    @pytest.mark.parametrize(
        "nm, ell, with_trace, expected",
        DECISION_TABLE,
        ids=[
            f"{nm[0]}:{nm[1]}-L{ell}-{'trace' if tr else 'numerics'}"
            for nm, ell, tr, _ in DECISION_TABLE
        ],
    )
    def test_execute_lands_on_the_chosen_backend(
        self, nm, ell, with_trace, expected, rng
    ):
        """The facade's auto path runs exactly what explain() chose and
        produces correct numerics."""
        op, handle, request = _request(nm, ell, with_trace, rng)
        result = op.run(request)
        assert result.backend == expected
        assert result.decision is not None
        assert result.decision.backend == expected
        np.testing.assert_allclose(
            result.output, request.a @ handle.dense(), rtol=RTOL, atol=ATOL
        )
        if with_trace:
            assert request.trace.fma_ops > 0


class TestBatchSizeAwareness:
    """The scatter is paid per call, so the decision must flip with
    the batch size — measured: on tiny-L problems fast wins the decode
    regime (m=1) and dense_scatter wins once batches amortize the
    scatter."""

    def test_decode_batches_stay_on_fast(self, rng):
        op, _, request = _request((2, 4), 4, False, rng, m=1)
        decision = op.selector.explain(request)
        assert decision.backend == "fast"
        assert "m=1" in decision.reason

    def test_batched_tiny_l_routes_to_dense_scatter(self, rng):
        op, _, request = _request((2, 4), 4, False, rng, m=TABLE_M)
        assert op.selector.explain(request).backend == "dense_scatter"

    def test_scatter_term_disabled_ignores_batch(self, rng):
        selector = AutoSelector(scatter_macs_per_element=0)
        op, _, request = _request((2, 4), 4, False, rng, m=1)
        assert selector.explain(request).backend == "dense_scatter"


@pytest.fixture(scope="module")
def llama_executor():
    """The perfbench forward executor: Llama-7B/8, two blocks, 2:8 L=8."""
    return ModelExecutor(
        "llama-7b", scale=8, blocks=2, pattern=NMPattern(2, 8, vector_length=8)
    )


class TestLlamaLayerPicks:
    """On real layer shapes the default registry races host backends
    only, and the L=8 gather-GEMM wins every layer at decode and at
    prefill."""

    @pytest.mark.parametrize("m", [1, 256])
    def test_auto_picks_fast_on_every_layer(self, llama_executor, m):
        for spec in llama_executor.layers:
            op, handle = spec.layer.op, spec.layer.handle
            x = np.zeros((m, spec.layer.in_features), dtype=np.float32)
            decision = op.selector.explain_uncached(op.build_request(x, handle))
            assert decision.backend == "fast", (spec.name, decision.costs)
            assert set(decision.costs) == {"fast", "dense_scatter"}


class TestExplainContents:
    def test_cost_race_exposes_costs_and_rejections(
        self, numerics_backend, rng
    ):
        numerics_backend.cost = 1e9
        op, _, request = _request((2, 4), 4, False, rng)
        decision = op.selector.explain(request)
        # The builtins race on the calibrated model; a registered
        # third-party backend enters through its estimated_cost hook.
        assert set(decision.costs) == {"fast", "dense_scatter", "cheap"}
        assert decision.costs["cheap"] == 1e9
        assert decision.costs["dense_scatter"] < decision.costs["fast"]
        builtin = op.selector.modeled_costs(request)
        assert all(decision.costs[name] == builtin[name] for name in builtin)
        rejected_names = {name for name, _ in decision.rejected}
        assert {"fast", "cheap"} <= rejected_names
        assert all(why.strip() for _, why in decision.rejected)

    def test_rejected_only_lists_registered_candidates(
        self, registry_snapshot, numerics_backend, rng
    ):
        op, _, request = _request((2, 4), 4, True, rng)
        unregister_backend("dense_scatter")
        decision = op.selector.explain(request)
        rejected_names = {name for name, _ in decision.rejected}
        assert "dense_scatter" not in rejected_names
        assert rejected_names == {"fast", "cheap"}

    def test_trace_decision_has_no_cost_race(self, rng):
        op, _, request = _request((2, 4), 4, True, rng)
        decision = op.selector.explain(request)
        assert decision.costs == {}
        assert decision.backend == "structural"

    def test_describe_is_nonempty(self):
        assert AutoSelector().describe().strip()


class TestThirdPartyCostRace:
    """Registered backends enter auto-selection via the optional
    ``estimated_cost(request)`` hook; without it they are listed as
    rejected with that reason instead of being silently ignored."""

    def test_cheapest_estimate_wins_the_race(self, numerics_backend, rng):
        op, handle, request = _request((8, 32), 32, False, rng)
        decision = op.selector.explain(request)
        assert decision.backend == "cheap"
        assert decision.costs["cheap"] == 0.5
        result = op.run(request)
        assert result.backend == "cheap"
        np.testing.assert_allclose(
            result.output, request.a @ handle.dense(), rtol=RTOL, atol=ATOL
        )

    def test_losing_estimate_is_rejected_with_cost(
        self, numerics_backend, rng
    ):
        numerics_backend.cost = 1e9
        op, _, request = _request((8, 32), 32, False, rng)
        decision = op.selector.explain(request)
        assert decision.backend == "fast"
        assert any(name == "cheap" for name, _ in decision.rejected)

    def test_refusing_backend_never_wins_the_race(self, rng):
        """A candidate whose supports() declines the request is routed
        around (with its reason in rejected), not crashed into."""
        class CheapButPicky:
            name = "picky-cheap"

            def supports(self, request):
                return "only runs on Sundays"

            def estimated_cost(self, request):
                return 1e-9

            def run(self, request):  # pragma: no cover - unreachable
                return ExecutionResult(output=request.a, backend=self.name)

        register_backend(CheapButPicky())
        try:
            op, handle, request = _request((8, 32), 32, False, rng)
            decision = op.selector.explain(request)
            assert decision.backend == "fast"
            assert dict(decision.rejected)["picky-cheap"] == (
                "only runs on Sundays"
            )
            assert op.run(request).backend == "fast"
        finally:
            unregister_backend("picky-cheap")

    def test_hookless_backend_listed_as_out_of_race(self, rng):
        class NoHook:
            name = "nohook"

            def supports(self, request):
                return True

            def run(self, request):
                return ExecutionResult(
                    output=request.a @ request.handle.dense(),
                    backend=self.name,
                )

        register_backend(NoHook())
        try:
            op, _, request = _request((8, 32), 32, False, rng)
            decision = op.selector.explain(request)
            assert decision.backend == "fast"
            reasons = dict(decision.rejected)
            assert "nohook" in reasons
            assert "estimated_cost" in reasons["nohook"]
        finally:
            unregister_backend("nohook")


class TestSelectorConfiguration:
    def test_lower_crossover_keeps_sparse_path(self, rng):
        """With the efficiency ramp pinned at L=1 the gather-GEMM is
        always modeled at full rate, so even 2:4/L=4 stays on fast."""
        selector = AutoSelector(gather_full_efficiency_l=1)
        op, _, request = _request((2, 4), 4, False, rng)
        assert selector.explain(request).backend == "fast"

    def test_selector_injectable_per_operator(self, rng):
        pattern = NMPattern(2, 4, vector_length=4)
        op = NMSpMM(pattern, selector=AutoSelector(gather_full_efficiency_l=1))
        handle = op.prepare(random_dense(2 * pattern.m, 8, rng))
        request = op.build_request(random_dense(4, handle.k, rng), handle)
        assert op.run(request).backend == "fast"

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ConfigurationError, match=">= 1"):
            AutoSelector(gather_full_efficiency_l=0)


class TestDecisionMemo:
    """The selector memoizes decisions per (handle, m-bucket) and
    invalidates on backend register/unregister (ROADMAP open item)."""

    def test_repeat_explain_hits_the_memo(self, rng):
        op, _, request = _request((8, 32), 32, False, rng)
        first = op.selector.explain(request)
        assert op.selector.memo_stats.misses == 1
        assert op.selector.explain(request) is first
        assert op.selector.memo_stats.hits == 1

    def test_same_pow2_bucket_reuses_the_decision(self, rng):
        op, handle, request = _request((8, 32), 32, False, rng)
        decision = op.selector.explain(request)
        # m=356 shares the power-of-two bucket of TABLE_M=256
        # (bit_length 9 covers 256..511), so the decision is reused.
        other = op.build_request(
            random_dense(TABLE_M + 100, handle.k, rng), handle
        )
        assert op.selector.explain(other) is decision
        assert op.selector.memo_stats.hits == 1

    def test_different_bucket_misses(self, rng):
        op, handle, request = _request((8, 32), 32, False, rng)
        op.selector.explain(request)
        small = op.build_request(random_dense(1, handle.k, rng), handle)
        op.selector.explain(small)
        assert op.selector.memo_stats.misses == 2

    def test_registration_invalidates(self, registry_snapshot, rng):
        op, handle, request = _request((8, 32), 32, False, rng)
        assert op.selector.explain(request).backend == "fast"

        class Cheapest:
            name = "cheapest"

            def supports(self, request):
                return True

            def estimated_cost(self, request):
                return 1e-9

            def run(self, request):  # pragma: no cover
                return ExecutionResult(output=request.a, backend=self.name)

        register_backend(Cheapest())
        # Same request object: a stale memo would return "fast".
        assert op.selector.explain(request).backend == "cheapest"
        unregister_backend("cheapest")
        assert op.selector.explain(request).backend == "fast"

    def test_trace_and_numerics_do_not_collide(self, rng):
        op, handle, request = _request((8, 32), 32, False, rng)
        assert op.selector.explain(request).backend == "fast"
        traced = op.build_request(
            random_dense(TABLE_M, handle.k, rng), handle,
            trace=KernelTrace(),
        )
        assert op.selector.explain(traced).backend == "structural"

    def test_memo_disabled_by_capacity_zero(self, rng):
        selector = AutoSelector(memo_capacity=0)
        op, _, request = _request((8, 32), 32, False, rng)
        selector.explain(request)
        assert selector.memo_stats is None

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ConfigurationError, match="memo_capacity"):
            AutoSelector(memo_capacity=-1)

    def test_repeated_serving_steps_hit_the_memo(self):
        """The motivating workload: a server replaying bucketed batch
        sizes against the same handle runs the cost race once per
        bucket, not once per launch."""
        from repro.serve.scenarios import LlamaServingScenario

        scenario = LlamaServingScenario(
            qps=200.0, duration_s=0.3, execute_numerics=True
        )
        server, sources = scenario.build_server()
        from repro.serve.loadgen import generate_requests

        report = server.simulate(
            generate_requests(
                sources, scenario.qps, scenario.duration_s, seed=0,
                synthesize_activations=True,
            )
        )
        launches = len(report.metrics.batch_records)
        assert launches > 2
        stats = server.model(server.model_names[0]).op.selector.memo_stats
        assert stats.hits + stats.misses == launches
        assert stats.hits > 0
        # One cost race per padded-row bucket, the rest are memo hits.
        assert stats.misses <= len(report.metrics.padded_rows_histogram())


class TestFallbacks:
    def test_scatter_unregistered_falls_back_to_fast(
        self, registry_snapshot, rng
    ):
        op, _, request = _request((2, 4), 4, False, rng)
        unregister_backend("dense_scatter")
        decision = op.selector.explain(request)
        assert decision.backend == "fast"
        assert decision.reason.strip()

    def test_no_numeric_backends_falls_back_to_structural(
        self, registry_snapshot, rng
    ):
        op, _, request = _request((2, 4), 4, False, rng)
        unregister_backend("fast")
        unregister_backend("dense_scatter")
        decision = op.selector.explain(request)
        assert decision.backend == "structural"

    def test_trace_without_structural_is_an_error(
        self, registry_snapshot, rng
    ):
        op, _, request = _request((2, 4), 4, True, rng)
        unregister_backend("structural")
        with pytest.raises(ConfigurationError, match="structural"):
            op.selector.explain(request)
