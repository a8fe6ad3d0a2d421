"""Shared pieces of the benchmark: clock, statistics, host-load
reference, result record and the provenance stamp every result carries."""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.utils.benchmeta import bench_meta
from repro.utils.stats import percentile

__all__ = [
    "SCHEMA",
    "BLOCK_S",
    "Metric",
    "Outcome",
    "wall_s",
    "median",
    "p90",
    "HostReference",
    "samples",
    "call_metrics",
    "setup_metrics",
    "rss_mb",
    "peak_rss_metric",
    "run_stamp",
]

#: Schema tag of the benchmark's result lines and baseline file.
SCHEMA = "nm-spmm/perfbench/v1"

#: Seconds of back-to-back ``logits()`` calls between two reference
#: samples; one ``simulate()`` is long enough to stand alone.
BLOCK_S = 0.2

#: Median seconds of each reference loop on an idle 2-vCPU x86 VM with
#: one OpenBLAS thread; ``setup_s`` is set-up time at this host speed.
REFERENCE_NOMINAL_S = {"python": 0.0035, "gather": 0.0064}


def samples() -> "array[float]":
    """Storage for a run's timings.  Doubles in one buffer, not float
    objects: those would stay scattered through the allocator's arenas
    that each operation's garbage shares, so the process's peak memory
    would grow with the number of operations a run makes."""
    return array("d")


def wall_s() -> float:
    """Monotonic wall-clock seconds."""
    return time.perf_counter()  # repro-lint: disable=DET002 -- host benchmark timing


def median(values: "Sequence[float]") -> float:
    return float(statistics.median(values))


def p90(values: "Sequence[float]") -> float:
    return float(percentile(values, 90))


def rss_mb() -> float:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_metric(baseline_mb: float) -> "Metric":
    """Peak resident set so far above ``baseline_mb``, the :func:`rss_mb`
    read after the interpreter, the library and the harness's own inputs
    and buffers were in memory (Linux reports ``ru_maxrss`` in KiB)."""
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return Metric(peak_mb - baseline_mb, "MB")


@dataclass
class Metric:
    value: float
    unit: str
    #: How many samples the value summarizes (1 for exact counts).
    samples: int = 1


@dataclass
class Outcome:
    """What one workload run produced.

    ``metrics`` holds the names ``BENCHMARK.json`` declares for the
    run's mode; ``info`` holds the further figures that are printed but
    not gated (raw and modeled times, failure share, sample counts).
    """

    #: The workload configuration the result's fingerprint covers.
    config: "dict[str, Any]" = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    metrics: "dict[str, Metric]" = field(default_factory=dict)
    info: "dict[str, Metric]" = field(default_factory=dict)
    errors: "list[str]" = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def result_line(self) -> "dict[str, Any]":
        """The final stdout line the contract defines."""
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": m.value, "unit": m.unit}
                for name, m in self.metrics.items()
            },
        }


class HostReference:
    """A fixed loop, timed just before and just after each timed piece
    of a run.

    On a shared host, other tenants' load slows everything for seconds
    to minutes at a time, by up to 2x.  A piece's time over the mean of
    the two reference samples around it cancels the load both felt, and
    the loop runs no code under test.  Load slows Python-bound and
    memory-bound work by different factors, so ``kind`` matches what
    bounds the workload: ``"python"`` (dict and sort work) or
    ``"gather"`` (the access pattern of the gather-GEMM kernel at
    m=256: 1 KiB rows gathered into an 8 MiB block, then a batched
    matmul with 8 output columns per window; a plain GEMM tracked the
    prefill calls worse than the raw times did).
    """

    def __init__(self, kind: str):
        self.nominal_s = REFERENCE_NOMINAL_S[kind]
        if kind == "gather":
            rng = np.random.default_rng(0x5EED)
            self._at = rng.standard_normal((512, 256)).astype(np.float32)
            self._rows = rng.integers(0, 512, size=64 * 128)
            self._values = rng.standard_normal((64, 128, 8)).astype(np.float32)
            # Preallocated outputs keep the loop from moving peak RSS.
            self._gathered = np.empty((64 * 128, 256), dtype=np.float32)
            self._product = np.empty((64, 256, 8), dtype=np.float32)
            self._loop = self._gather
        else:
            self._loop = self._python
        self.samples = samples()
        self.sample()

    @staticmethod
    def _python() -> None:
        totals: dict[int, int] = {}
        for i in range(20_000):
            key = i * 7919 % 1009
            totals[key] = totals.get(key, 0) + i
        sorted(totals.items())

    def _gather(self) -> None:
        windows = self._gathered.reshape(64, 128, 256).transpose(0, 2, 1)
        for _ in range(2):
            np.take(self._at, self._rows, axis=0, out=self._gathered)
            np.matmul(windows, self._values, out=self._product)

    def sample(self) -> float:
        """Time the loop once.  The collector is off while it runs: a
        collection would scan the program's heap, so the loop's time
        would depend on the code under test."""
        enabled = gc.isenabled()
        gc.disable()
        start_s = wall_s()
        self._loop()
        took_s = wall_s() - start_s
        if enabled:
            gc.enable()
        self.samples.append(took_s)
        return took_s

    def ratio(self, took_s: float) -> float:
        """``took_s``, just measured, over the mean of the last sample
        and a fresh one."""
        before_s = self.samples[-1]
        return took_s / ((before_s + self.sample()) / 2)


def call_metrics(
    durations: "array[float]",
    ratios: "array[float]",
    work: float,
    work_name: str,
    reference: HostReference,
) -> "tuple[dict, dict]":
    """Gated and informational figures of one closed loop.

    ``durations`` are the per-call wall seconds; ``ratios`` are
    :meth:`HostReference.ratio` of each block's mean call; ``work`` is
    what all the calls did together (rows or launches), reported per
    wall second as ``work_name``.  The gate is the median ratio: tenant
    load inflates every quantile of the raw times while it lasts, and a
    whole run can fall inside it.
    """
    n = len(durations)
    gated = {"call_vs_ref": Metric(median(ratios), "x", len(ratios))}
    info = {
        "call_ms_p50": Metric(median(durations) * 1e3, "ms", n),
        "call_ms_p90": Metric(p90(durations) * 1e3, "ms", n),
        work_name: Metric(work / sum(durations), "1/s", n),
        "reference_ms_p50": Metric(median(reference.samples) * 1e3, "ms", len(reference.samples)),
    }
    return gated, info


def setup_metrics(
    durations: "array[float]", ratios: "array[float]", reference: HostReference
) -> "tuple[Metric, Metric]":
    """``setup_s`` (the median set-up over the reference around it, in
    seconds at the reference's nominal speed) and the raw median."""
    n = len(durations)
    return (
        Metric(median(ratios) * reference.nominal_s, "s", n),
        Metric(median(durations), "s", n),
    )


def _openblas_version() -> str:
    config = getattr(np, "__config__", None)
    blas = getattr(config, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"


def run_stamp(workload: str, seed: int, config: "dict[str, Any]") -> "dict[str, Any]":
    """Provenance of one run: thread pinning, host and library versions,
    the seed, and a fingerprint of the workload configuration, so
    results from different configurations are never compared."""
    return {
        "workload": workload,
        "seed": seed,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "blas": _openblas_version(),
        "python": platform.python_version(),
        "meta": bench_meta(SCHEMA, config={"workload": workload, **config}, seed=seed),
    }
