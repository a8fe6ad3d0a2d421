"""Write the traced run's spans and check them with the repo's own
validator, so ``python -m repro trace validate`` accepts the file."""

from __future__ import annotations

import json
import os

from repro.errors import ObsError
from repro.obs.export import validate_chrome_trace, write_chrome_trace
from repro.obs.tracer import Tracer
from runinfo import Outcome

__all__ = ["export_trace"]


def export_trace(tracer: Tracer, path: str, outcome: Outcome) -> None:
    """Export ``tracer`` as Chrome JSON at ``path``; a malformed span
    tree or file counts as a failure."""
    try:
        tracer.check_invariants()
    except ObsError as exc:
        outcome.fail(f"trace span tree: {exc}")
        return
    os.makedirs(os.path.dirname(path), exist_ok=True)
    write_chrome_trace(tracer, path)
    with open(path) as fh:
        problems = validate_chrome_trace(json.load(fh))
    if problems:
        outcome.fail(f"trace file {path}: {problems[0]}")
