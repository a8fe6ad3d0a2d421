"""Every public entry point refuses bad input with one line.

Each case changes one field of a cheap valid base configuration (no
numerics, a short horizon) to a bad value: a bool or float for an int,
NaN, ±inf, 0, a negative, a huge value, or a wrong type.  A case must
end, under an alarm, in one of three ways:

* success;
* one :class:`~repro.errors.ReproError` whose message is one line;
* from the CLI, the single ``"<command>: <message>"`` exit line (or
  argparse's own usage error, exit code 2).

Everything runs in-process.  Tier-1 draws a few cases per entry point;
the ``serve-fuzz`` Hypothesis profile draws 300.
"""

from __future__ import annotations

import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_serve_fuzz import watchdog

from repro.cli import main
from repro.core.api import NMSpMM
from repro.errors import ReproError
from repro.faults import parse_fault_spec
from repro.serve.batcher import BatchingPolicy
from repro.serve.loadgen import TrafficSource, generate_requests
from repro.serve.model_exec import ModelServingScenario
from repro.serve.model_exec.executor import ModelSpec
from repro.serve.request import InferenceRequest
from repro.serve.resilience import ResiliencePolicy
from repro.serve.scenarios import LlamaServingScenario
from repro.serve.server import InferenceServer
from repro.sparsity.config import NMPattern

#: Seconds one case may take before it counts as a hang.
ALARM_S = 10.0

EXAMPLES = (
    settings().max_examples
    if settings.get_current_profile_name() == "serve-fuzz"
    else 6
)

contract = settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Bad library values: bool and float for ints, non-finite, zero,
#: negative, huge, and wrong types.
BAD_VALUES = (
    True, False, 2.5, math.nan, math.inf, -math.inf, 0, -1, -0.5,
    10**20, 1e300, "x", "", None, (), [1], object(),
)

#: Bad CLI values, as a shell would pass them.
BAD_ARGS = (
    "nan", "inf", "-inf", "0", "-1", "2.5", "1e30", "99999999999999999999",
    "x", "", "1:2:3",
)


def one_line(exc: BaseException) -> str:
    text = str(exc)
    assert "\n" not in text, f"{type(exc).__name__} spans lines: {text!r}"
    return text


def run_case(call) -> None:
    """Run ``call`` under the alarm; success or one ReproError line."""
    with watchdog(ALARM_S):
        try:
            call()
        except ReproError as exc:
            one_line(exc)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
CLI_BASES = {
    "serve-sim": ["serve-sim", "--duration", "0.02", "--qps", "50", "--no-numerics"],
    "serve-sim-model": [
        "serve-sim", "--model-mode", "--duration", "0.02", "--qps", "50", "--no-numerics",
    ],
    "sweep": ["sweep", "--shapes", "256x256x256", "--sparsities", "0.5"],
    "validate": ["validate"],
}
SERVE_FLAGS = (
    "--qps", "--duration", "--seed", "--scale", "--pattern", "--vector-length",
    "--max-batch-requests", "--max-batch-rows", "--max-wait-ms", "--cache-size",
    "--devices", "--backend", "--shard", "--link", "--faults", "--gpu", "--opt-version",
    "--models", "--arrival", "--sched",
    # Model mode only: plain mode must refuse each.
    "--blocks", "--hbm-tokens", "--hbm-bytes", "--kv-admission", "--slo-ms",
    "--prompt-lens", "--max-new-tokens",
)
CLI_FLAGS = {
    "serve-sim": SERVE_FLAGS + ("--decode-fraction", "--layer"),
    "serve-sim-model": SERVE_FLAGS,
    "sweep": ("--shapes", "--sparsities", "--vector-length", "--gpus", "--versions"),
    "validate": ("--n-ratio", "--m-ratio", "--vector-length"),
}


def run_cli(argv: "list[str]") -> None:
    out, err = io.StringIO(), io.StringIO()
    with watchdog(ALARM_S), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(argv)
            return
        except SystemExit as exc:
            code = exc.code
    if code == 2 and "error:" in err.getvalue():
        return  # argparse's own usage error
    assert isinstance(code, str), f"{argv} exited with {code!r}: {err.getvalue()!r}"
    assert code.startswith(f"{argv[0]}: ") and "\n" not in code, code


@pytest.mark.parametrize("command", sorted(CLI_BASES))
def test_cli_base_config_runs(command):
    run_cli(CLI_BASES[command])


@pytest.mark.parametrize("command", sorted(CLI_BASES))
@contract
@given(data=st.data())
def test_cli_bad_flag_value(command, data):
    flag = data.draw(st.sampled_from(CLI_FLAGS[command]), label="flag")
    value = data.draw(st.sampled_from(BAD_ARGS), label="value")
    run_cli([*CLI_BASES[command], flag, value])


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--slo-ms", "1"), ("--hbm-tokens", "5"), ("--hbm-bytes", "7"),
        ("--kv-admission", "none"), ("--blocks", "9"),
        ("--prompt-lens", "4"), ("--max-new-tokens", "4"),
    ],
)
def test_plain_mode_refuses_model_mode_flags(flag, value):
    with pytest.raises(SystemExit) as exc:
        main([*CLI_BASES["serve-sim"], flag, value])
    assert exc.value.code == f"serve-sim: {flag} applies only in --model-mode"


# ---------------------------------------------------------------------------
# Library constructors
# ---------------------------------------------------------------------------
PATTERN = NMPattern(2, 8, vector_length=8)


def _requests(sources=(TrafficSource(model="m", k=8),), qps=50.0, duration_s=0.05, **kw):
    return generate_requests(sources, qps, duration_s, **kw)


def _run(scenario_cls):
    def build(**kw):
        scenario_cls(**kw).run()
    return build


def _nmspmm(**kw):
    op = NMSpMM(**kw)
    op.prepare(np.ones((16, 16), dtype=np.float32))


#: entry point -> (callable, valid base kwargs, fields to break)
CONSTRUCTORS = {
    "InferenceServer": (
        InferenceServer, {},
        ("policy", "plan_cache_capacity", "host_overhead_s", "backend", "scheduling",
         "devices", "shard", "link", "tracer", "faults", "resilience", "hbm_bytes",
         "kv_admission", "host_link_bytes_per_s"),
    ),
    "BatchingPolicy": (
        BatchingPolicy, {},
        ("max_batch_requests", "max_batch_rows", "max_wait_s", "pad_rows_quantum",
         "decode_rows_threshold"),
    ),
    "TrafficSource": (
        TrafficSource, {"model": "m", "k": 8},
        ("model", "k", "rows_choices", "rows_weights", "share", "priority", "slo_ms",
         "decode_fraction", "decode_steps_choices", "prompt_len_choices",
         "max_new_tokens_choices"),
    ),
    "InferenceRequest": (
        InferenceRequest,
        {"request_id": 0, "model": "m", "a": None, "arrival_s": 0.0, "shape": (1, 8)},
        ("request_id", "arrival_s", "shape", "priority", "slo_ms", "steps", "prompt_len",
         "max_new_tokens"),
    ),
    "generate_requests": (
        _requests, {},
        ("sources", "qps", "duration_s", "seed", "arrival", "burst_factor",
         "burst_fraction", "cycle_s"),
    ),
    "ResiliencePolicy": (
        ResiliencePolicy, {},
        ("max_retries", "backoff_base_s", "backoff_multiplier", "backoff_jitter",
         "timeout_slo_multiplier", "default_timeout_ms", "breaker_threshold",
         "breaker_cooldown_s", "shed_queue_rows", "shed_protect_priority"),
    ),
    "parse_fault_spec": (parse_fault_spec, {"spec": "launch:p=0.1"}, ("spec", "seed")),
    "LlamaServingScenario": (
        _run(LlamaServingScenario),
        {"duration_s": 0.02, "qps": 50.0, "execute_numerics": False},
        ("models", "layer", "scale", "pattern", "gpu", "version", "qps", "duration_s",
         "arrival", "seed", "policy", "plan_cache_capacity", "backend", "scheduling",
         "decode_fraction", "tiers", "devices", "shard", "link", "tracer", "host_overhead_s",
         "faults", "resilience"),
    ),
    "ModelServingScenario": (
        _run(ModelServingScenario), {"duration_s": 0.02, "qps": 50.0},
        ("model", "scale", "blocks", "pattern", "gpu", "version", "backend",
         "kv_dtype_bytes", "qps", "duration_s", "arrival", "seed", "scheduling", "policy",
         "plan_cache_capacity", "prompt_len_choices", "max_new_tokens_choices", "slo_ms",
         "tiers", "hbm_tokens", "hbm_bytes", "kv_admission", "host_link_bytes_per_s",
         "host_overhead_s", "tracer", "devices", "shard", "link", "faults", "resilience"),
    ),
    "ModelSpec": (
        ModelSpec, {},
        ("model", "scale", "blocks", "pattern", "seed", "kv_dtype_bytes"),
    ),
    "NMPattern": (NMPattern, {"n": 2, "m": 8, "vector_length": 8}, ("n", "m", "vector_length")),
    "NMSpMM": (_nmspmm, {"pattern": PATTERN}, ("pattern", "gpu", "version", "selector")),
}


@pytest.mark.parametrize("entry", sorted(CONSTRUCTORS))
def test_base_config_is_valid(entry):
    call, base, _ = CONSTRUCTORS[entry]
    call(**base)


@pytest.mark.parametrize("entry", sorted(CONSTRUCTORS))
@contract
@given(data=st.data())
def test_bad_field_value(entry, data):
    call, base, fields = CONSTRUCTORS[entry]
    field = data.draw(st.sampled_from(fields), label="field")
    value = data.draw(st.sampled_from(BAD_VALUES), label="value")
    run_case(lambda: call(**{**base, field: value}))


#: Inputs that used to pass construction and then fail deep inside a
#: run (or never): each must now be refused up front with one line.
NAMED_CASES = [
    (BatchingPolicy, {"pad_rows_quantum": math.nan}),
    (BatchingPolicy, {"max_batch_requests": 2.5}),
    (BatchingPolicy, {"max_batch_rows": math.inf}),
    (TrafficSource, {"model": "m", "k": 8, "share": math.inf}),
    (TrafficSource, {"model": "m", "k": 2.5}),
    (TrafficSource, {"model": "m", "k": 8, "priority": 0.5}),
    (TrafficSource, {"model": "m", "k": 8, "priority": True}),
    (TrafficSource, {"model": "m", "k": 8, "slo_ms": math.inf}),
    (ModelSpec, {"blocks": 10**9}),
    (InferenceServer, {"devices": 10**20}),
]


@pytest.mark.parametrize("call, kwargs", NAMED_CASES)
def test_named_bad_inputs_are_refused(call, kwargs):
    with watchdog(ALARM_S), pytest.raises(ReproError) as info:
        call(**kwargs)
    one_line(info.value)


#: Fields that more than one entry point takes -> those entry points.
SHARED_FIELDS = {
    "priority": ("TrafficSource", "InferenceRequest"),
    "slo_ms": ("TrafficSource", "InferenceRequest"),
    "scale": ("LlamaServingScenario", "ModelServingScenario", "ModelSpec"),
    "seed": ("LlamaServingScenario", "ModelServingScenario", "ModelSpec", "generate_requests"),
    "blocks": ("ModelServingScenario", "ModelSpec"),
    "devices": ("InferenceServer", "LlamaServingScenario", "ModelServingScenario"),
    "hbm_bytes": ("InferenceServer", "ModelServingScenario"),
    "kv_admission": ("InferenceServer", "ModelServingScenario"),
    "host_overhead_s": ("InferenceServer", "LlamaServingScenario", "ModelServingScenario"),
}


@pytest.mark.parametrize("field", sorted(SHARED_FIELDS))
@pytest.mark.parametrize("value", [True, -1, math.nan, math.inf, "5"])
def test_shared_field_is_refused_in_the_same_words(field, value):
    messages = set()
    for entry in SHARED_FIELDS[field]:
        call, base, _ = CONSTRUCTORS[entry]
        with watchdog(ALARM_S), pytest.raises(ReproError) as info:
            call(**{**base, field: value})
        messages.add(one_line(info.value))
    assert len(messages) == 1, messages
