"""Tests for the sweep runner."""

import pytest

from repro.bench.runner import Sweep, run_sweep
from repro.sparsity.config import NMPattern


def _version(sweep: Sweep, version: str) -> Sweep:
    """The cells of ``sweep`` run at ``version``."""
    return Sweep([cell for cell in sweep.cells if cell.version == version])


class TestSweepRunner:
    @pytest.fixture(scope="class")
    def sweep(self) -> Sweep:
        return run_sweep(
            shapes=[(512, 512, 512), (1024, 1024, 1024)],
            patterns=[NMPattern(16, 32, 32), NMPattern(4, 32, 32)],
            gpus=["A100"],
            versions=["V1", "V3"],
        )

    def test_cell_count(self, sweep):
        assert len(sweep.cells) == 2 * 2 * 1 * 2

    def test_geomean_positive(self, sweep):
        assert sweep.geomean_speedup() > 0

    def test_best_worst(self, sweep):
        assert sweep.best().speedup >= sweep.worst().speedup

    def test_v3_geomean_beats_v1(self, sweep):
        assert (
            _version(sweep, "V3").geomean_speedup()
            >= _version(sweep, "V1").geomean_speedup()
        )

    def test_render(self, sweep):
        text = sweep.render("demo")
        assert "demo" in text and "512x512x512" in text

    def test_empty_geomean_rejected(self):
        with pytest.raises(ValueError):
            Sweep([]).geomean_speedup()


class TestCliSweep:
    def test_sweep_command(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "sweep",
                    "--shapes",
                    "512x512x512",
                    "--sparsities",
                    "0.5",
                    "0.875",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "geomean speedup" in out

    def test_bad_shape_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["sweep", "--shapes", "512x512"])
