"""Benchmark-local tests: ``python -m pytest perfbench`` from the repo root.

Kept out of the repository's tier-1 suite (``perfbench/pytest.ini``
collects ``check_*.py``), because the tiny pass runs every workload.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import forward_bench  # noqa: E402
import serve_bench  # noqa: E402
from catalog import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from repro.errors import ServeError  # noqa: E402
from repro.serve.metrics import ServingMetrics  # noqa: E402
from repro.serve.model_exec.executor import ModelExecutor  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_keeps_the_contract_limits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names + list(WORKLOADS))
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert all(len(why) <= 200 and "\n" not in why for why in WORKLOADS.values())
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert END_TO_END["setup_s"] == ("s", "lower", 0.25)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_pass_emits_every_metric_with_its_unit(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = END_TO_END if trace == "0" else PER_LAYER
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        n: spec[0] for n, spec in expected.items()
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        path = ROOT / "perfbench" / "out" / f"{workload}-seed3.trace.json"
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        for verb in ("validate", "summarize"):
            checked = subprocess.run(
                [sys.executable, "-m", "repro", "trace", verb, str(path)],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert checked.returncode == 0, checked.stdout + checked.stderr


def test_wrong_logits_land_in_failed(monkeypatch):
    logits = ModelExecutor.logits
    monkeypatch.setattr(ModelExecutor, "logits", lambda self, x: logits(self, x) * 1.01)
    outcome = forward_bench.run_forward("forward-decode", 0, 0.1, False, "")
    assert outcome.attempted > 0 and outcome.failed == outcome.attempted
    assert outcome.result_line()["correct"] is False
    assert outcome.info["failed_frac"].value == 1.0


def test_sampled_dense_reference_matches_the_executor():
    executor = forward_bench.build_executor(1)
    pool = forward_bench.input_pool("forward-prefill", 1)
    refs = forward_bench.reference_logits(executor, pool)
    assert all(len(ref) == forward_bench.CHECK_ROWS for ref in refs)
    for x, ref in zip(pool, refs):
        assert forward_bench.check_logits(executor.logits(x), ref) is None


def test_unreconciled_report_lands_in_failed(monkeypatch):
    def lost(self):
        raise ServeError("a request was silently lost")

    monkeypatch.setattr(ServingMetrics, "reconcile", lost)
    outcome = serve_bench.run_serve("serve-chaos", 0, 0.1, False, "")
    assert outcome.attempted > 0 and outcome.failed == outcome.attempted


def test_changed_modeled_digest_lands_in_failed(monkeypatch):
    digests = iter(range(1_000_000))
    monkeypatch.setattr(serve_bench, "modeled_digest", lambda report: str(next(digests)))
    outcome = serve_bench.run_serve("serve-chaos", 0, 0.1, False, "")
    # The first report sets the reference digest; every later one differs.
    assert outcome.failed == outcome.attempted - 1 >= 1


def test_inputs_follow_the_seed():
    pool_a = forward_bench.input_pool("forward-prefill", 5)
    pool_b = forward_bench.input_pool("forward-prefill", 5)
    pool_c = forward_bench.input_pool("forward-prefill", 6)
    assert all((a == b).all() for a, b in zip(pool_a, pool_b))
    assert not (pool_a[0] == pool_c[0]).all()
    first = serve_bench.SERVE_WORKLOADS["serve-model"](5).requests
    again = serve_bench.SERVE_WORKLOADS["serve-model"](5).requests
    assert [(r.arrival_s, r.prompt_len) for r in first] == [
        (r.arrival_s, r.prompt_len) for r in again
    ]


def test_lint_clean():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "perfbench"],
        cwd=ROOT, capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_without_sources_exits_nonzero_and_prints_no_result():
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        done = _run("--workload", "forward-decode", "--seconds", "1", cwd=bare)
        assert done.returncode != 0
        assert '"metrics"' not in done.stdout
    finally:
        shutil.rmtree(bare)
