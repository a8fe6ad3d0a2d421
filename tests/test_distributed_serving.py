"""Distributed serving: InferenceServer(devices=) end to end."""

import numpy as np
import pytest

from repro.distributed import modeled_shape_step
from repro.errors import ServeError, ShardError
from repro.serve import BatchingPolicy, InferenceServer, TrafficSource
from repro.serve.loadgen import generate_requests
from repro.serve.scenarios import LlamaServingScenario
from repro.sparsity.config import NMPattern

K = 128
N = 96
PATTERN = NMPattern(2, 8, vector_length=8)


def _server(devices=1, **kwargs):
    server = InferenceServer(
        policy=BatchingPolicy(max_wait_s=1e-3),
        devices=devices,
        **kwargs,
    )
    rng = np.random.default_rng(7)
    server.register_model(
        "m/layer",
        rng.standard_normal((K, N)).astype(np.float32),
        PATTERN,
    )
    return server


def _trace(seed=0, qps=300.0, duration=0.5):
    return generate_requests(
        [TrafficSource(model="m/layer", k=K)],
        qps=qps,
        duration_s=duration,
        seed=seed,
    )


class TestConstruction:
    def test_invalid_devices_rejected(self):
        with pytest.raises(ServeError, match="devices"):
            InferenceServer(devices=0)

    @pytest.mark.parametrize("devices", [2.5, 2.0, True, "2"])
    def test_non_integer_devices_rejected(self, devices):
        with pytest.raises(ServeError, match="devices must be an int"):
            InferenceServer(devices=devices)

    def test_numpy_integer_devices_accepted(self):
        entry = _server(devices=np.int64(2)).model("m/layer")
        assert entry.sharded.devices == 2

    def test_invalid_shard_mode_rejected(self):
        with pytest.raises(ServeError, match="shard mode"):
            InferenceServer(devices=2, shard="diagonal")

    def test_per_device_plan_caches(self):
        server = _server(devices=4)
        assert len(server.plan_caches) == 4
        assert server.plan_cache is server.plan_caches[0]

    def test_registration_shards_the_handle(self):
        server = _server(devices=2, shard="row")
        entry = server.model("m/layer")
        assert entry.distributed
        assert entry.sharded.mode == "row"
        assert entry.sharded.devices == 2
        assert entry.group.devices == 2
        assert "row-parallel x2" in entry.describe()

    def test_single_device_entry_is_not_distributed(self):
        entry = _server().model("m/layer")
        assert not entry.distributed
        assert entry.sharded is None

    def test_unshardable_model_fails_at_registration(self):
        server = InferenceServer(devices=64, shard="column")
        rng = np.random.default_rng(0)
        with pytest.raises(ShardError, match="column-parallel"):
            server.register_model(
                "tiny",
                rng.standard_normal((K, N)).astype(np.float32),
                PATTERN,
            )


class TestDistributedSimulation:
    @pytest.mark.parametrize("shard", ["column", "row"])
    def test_outputs_match_single_device(self, shard):
        """The same trace served 1-way and 3-way produces the same
        per-request outputs (tensor parallelism is a numerics no-op)."""
        single = _server().simulate(_trace())
        distributed = _server(devices=3, shard=shard).simulate(_trace())
        assert single.metrics.completed == distributed.metrics.completed
        for one, many in zip(
            single.request_records, distributed.request_records, strict=True
        ):
            assert one.request.request_id == many.request.request_id
            np.testing.assert_allclose(
                one.output, many.output, rtol=2e-5, atol=2e-5
            )

    def test_logical_shapes_trimmed(self):
        """Weights that are not pattern multiples pad internally; each
        request's sharded output is trimmed to its logical n."""
        weights = np.random.default_rng(3).standard_normal((30, 29))
        trace = generate_requests(
            [TrafficSource(model="odd", k=30)], qps=300.0, duration_s=0.1,
            seed=1,
        )
        reports = []
        for devices in (1, 2):
            server = InferenceServer(devices=devices, shard="row")
            server.register_model("odd", weights.astype(np.float32), PATTERN)
            reports.append(server.simulate(trace))
        single, sharded = reports
        assert sharded.metrics.completed == single.metrics.completed > 0
        for one, many in zip(
            single.request_records, sharded.request_records, strict=True
        ):
            assert many.output.shape == (one.request.rows, 29)
            np.testing.assert_allclose(
                one.output, many.output, rtol=2e-5, atol=2e-5
            )

    def test_per_device_metrics_reported(self):
        report = _server(devices=2).simulate(_trace())
        metrics = report.metrics
        assert metrics.is_distributed
        assert metrics.comm_s > 0
        assert 0 < metrics.comm_fraction < 1
        assert set(metrics.device_busy_s()) == {0, 1}
        assert all(b > 0 for b in metrics.device_busy_s().values())
        summary = report.summary()
        assert summary["distributed"]["devices"] == 2
        assert summary["distributed"]["comm_fraction"] > 0
        assert set(summary["distributed"]["per_device_busy_s"]) == {"0", "1"}
        assert summary["topology"] == {
            "devices": 2,
            "shard": "column",
            "link": "nvlink",
        }

    def test_single_device_reports_stay_clean(self):
        report = _server().simulate(_trace())
        assert not report.metrics.is_distributed
        assert report.metrics.comm_s == 0.0
        assert "distributed" not in report.summary()
        assert "topology" not in report.summary()
        assert report.devices == 1 and report.shard is None

    def test_render_mentions_topology(self):
        text = _server(devices=2).simulate(_trace()).render()
        assert "comm fraction" in text
        assert "device 1 utilization" in text
        assert "2 devices, column-parallel over nvlink" in text

    def test_distributed_launch_includes_comm_in_modeled_time(self):
        """Every distributed launch's modeled time is the slowest
        device plus the collective — never less than either term."""
        report = _server(devices=2).simulate(_trace())
        for record in report.metrics.batch_records:
            assert record.per_device_gpu_s
            assert record.modeled_gpu_s == pytest.approx(
                max(record.per_device_gpu_s) + record.comm_s
            )

    def test_plan_cache_stats_aggregate_devices(self):
        server = _server(devices=2)
        report = server.simulate(_trace())
        launches = len(report.metrics.batch_records)
        stats = report.plan_cache_stats
        # Two lookups per launch (one per device).
        assert stats["hits"] + stats["misses"] == 2 * launches

    def test_continuous_batching_composes_with_devices(self):
        server = InferenceServer(
            policy=BatchingPolicy(max_wait_s=1e-3),
            devices=2,
            continuous_batching=True,
        )
        rng = np.random.default_rng(3)
        server.register_model(
            "m/layer",
            rng.standard_normal((K, N)).astype(np.float32),
            PATTERN,
        )
        trace = generate_requests(
            [TrafficSource(model="m/layer", k=K, decode_fraction=0.7)],
            qps=300.0,
            duration_s=0.5,
            seed=5,
        )
        report = server.simulate(trace)
        assert report.metrics.step_records
        for step in report.metrics.step_records:
            assert step.per_device_gpu_s
            assert step.comm_s > 0


class TestLaunchPrice:
    """The engine's tensor-parallel launch price equals the benchmark's
    shape-only price exactly: the same per-device plans, the same ring
    collective, one :class:`DistributedStep` composition."""

    @pytest.mark.parametrize("shard", ["column", "row"])
    @pytest.mark.parametrize("devices", [2, 3])
    @pytest.mark.parametrize("rows", [1, 16, 64])
    def test_engine_matches_modeled_shape_step(self, shard, devices, rows):
        server = _server(devices=devices, shard=shard)
        entry = server.model("m/layer")
        seconds, per_device, comm, _, _ = server._modeled_launch(entry, rows)
        handle = entry.handle
        step = modeled_shape_step(
            rows, handle.n, handle.k, handle.pattern, entry.group, shard
        )
        assert per_device == step.per_device_seconds
        assert comm == step.comm
        assert seconds == step.seconds
        # The composition rule itself: the slowest device gates the ring.
        assert seconds == max(per_device) + comm.seconds
        assert 0 < step.comm_fraction < 1


class TestScenarioIntegration:
    def test_scenario_passes_topology_through(self):
        scenario = LlamaServingScenario(
            qps=40.0,
            duration_s=0.2,
            execute_numerics=False,
            devices=2,
            shard="row",
            link="pcie4",
        )
        report = scenario.run()
        assert report.devices == 2
        assert report.shard == "row"
        assert report.link == "pcie4"
        assert report.metrics.is_distributed
        assert "devices=2 shard=row link=pcie4" in scenario.describe()

    def test_serve_sim_cli_smoke(self, capsys):
        from repro.cli import main

        code = main(
            [
                "serve-sim",
                "--devices", "2",
                "--shard", "column",
                "--qps", "40",
                "--duration", "0.2",
                "--no-numerics",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "comm fraction" in out
        assert "2 devices, column-parallel over nvlink" in out
