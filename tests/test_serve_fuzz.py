"""Chaos fuzzer for the serving engine.

Random scenario x fault plan x scheduling policy x device count x
batching mode x resilience runs must all terminate, account for every
request exactly once, stay inside a launch-count bound derived from the
trace and the retry budget, and (model mode) keep the HBM pool's
ledgers clean.

Tier-1 draws :data:`TIER1_EXAMPLES` examples.  CI re-runs the file
with a few hundred under the ``serve-fuzz`` Hypothesis profile
registered in ``tests/conftest.py``::

    PYTHONPATH=src python -m pytest tests/test_serve_fuzz.py -q \\
        --hypothesis-profile=serve-fuzz
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from datetime import timedelta

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve.loadgen import generate_requests
from repro.serve.model_exec import long_context_summarization
from repro.serve.resilience import ResiliencePolicy
from repro.serve.scenarios import LlamaServingScenario

TIER1_EXAMPLES = 25

#: Wall-clock budget of one example, build included.  Hypothesis only
#: checks its ``deadline`` once an example returns, so a watchdog alarm
#: at the same budget turns a stalled event loop into a failure rather
#: than a hung run.
DEADLINE_S = 10.0

DURATION_S = 0.3

EXAMPLES = (
    settings().max_examples
    if settings.get_current_profile_name() == "serve-fuzz"
    else TIER1_EXAMPLES
)


class Stalled(Exception):
    """The simulation outlived :data:`DEADLINE_S`."""


@contextmanager
def watchdog(seconds: float):
    def expire(signum, frame):
        raise Stalled(f"simulation still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@st.composite
def fault_specs(draw, devices: int) -> "str | None":
    """A fault-spec string over any subset of the four fault kinds."""
    def window() -> str:
        start = draw(st.sampled_from((0.0, 0.05, 0.1)))
        end = draw(st.sampled_from((0.15, 0.25, DURATION_S)))
        return f"start={start},end={end}"

    device = st.integers(0, devices - 1)
    clauses = []
    if draw(st.booleans()):
        p = draw(st.sampled_from((0.05, 0.2, 0.5)))
        clauses.append(f"launch:p={p},{window()}")
    if draw(st.booleans()):
        factor = draw(st.sampled_from((2, 4)))
        clauses.append(f"slow:device={draw(device)},factor={factor},{window()}")
    if draw(st.booleans()):
        factor = draw(st.sampled_from((0.1, 0.5)))
        clauses.append(f"link:factor={factor},{window()}")
    if draw(st.booleans()):
        at = draw(st.sampled_from((0.02, 0.1, 0.2)))
        clauses.append(f"devfail:device={draw(device)},at={at}")
    if not clauses:
        return None
    clauses.append(f"seed={draw(st.integers(0, 99))}")
    return ";".join(clauses)


@st.composite
def scenarios(draw):
    """One serving scenario: a plain projection or a whole model."""
    devices = draw(st.integers(1, 3))
    common = dict(
        seed=draw(st.integers(0, 2**16)),
        duration_s=DURATION_S,
        scheduling=draw(st.sampled_from(("fifo", "priority", "slo-edf"))),
        devices=devices,
        shard=draw(st.sampled_from(("column", "row"))),
        faults=draw(fault_specs(devices)),
        resilience=draw(st.booleans()),
    )
    if draw(st.booleans()):
        return long_context_summarization(
            kv_admission=draw(st.sampled_from(("kv-aware", "none"))),
            **common,
        )
    return LlamaServingScenario.priority_tiered(
        qps=draw(st.sampled_from((300.0, 1500.0))),
        continuous=draw(st.booleans()),
        decode_fraction=0.5,
        execute_numerics=draw(st.booleans()),
        **common,
    )


@settings(
    max_examples=EXAMPLES,
    deadline=timedelta(seconds=DEADLINE_S),
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios())
def test_chaos_run_terminates_and_reconciles(scenario):
    server, sources = scenario.build_server()
    requests = generate_requests(
        sources, scenario.qps, scenario.duration_s, seed=scenario.seed,
        arrival=scenario.arrival,
        synthesize_activations=server.execute_numerics,
    )
    with watchdog(DEADLINE_S):
        report = server.simulate(requests)
    m = report.metrics

    m.reconcile()
    terminal = [r.request.request_id for r in m.request_records] + [
        d.request.request_id for d in m.drop_records
    ]
    assert sorted(terminal) == sorted(r.request_id for r in requests)

    # Every failed launch burns one attempt of each request it carried,
    # and a request has at most ``max_retries + 1`` attempts; every
    # successful batch completes its members, and every successful step
    # advances each resident sequence by one of its steps.
    retries = ResiliencePolicy().max_retries if scenario.resilience else 0
    bound = (
        len(requests) * (retries + 1)
        + len(requests)
        + sum(r.steps for r in requests)
    )
    assert len(m.batch_records) + len(m.step_records) <= bound

    mem = report.memory_model
    if mem is None:
        return
    assert mem.reconcile() == mem.weight_bytes
    # Only a kv-aware pool at its original size promises headroom: the
    # ``none`` baseline overflows by design, and a fail-stop shrinks
    # the budget below bytes that fit the larger one.
    if mem.enforce and not mem.budget_shrinks:
        mem.assert_within_budget()
