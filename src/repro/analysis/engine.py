"""The lint engine: walk files, parse, run rules, apply pragmas.

:func:`lint_paths` is the one entry point — the CLI, the CI gate and
the tier-1 "src is clean" test all call it.  Unparseable files are not
crashes: they surface as ``LINT999`` findings so the gate still fails
loudly and locatably.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.analysis.baseline import Baseline
from repro.analysis.finding import Finding
from repro.analysis.pragmas import collect_suppressions, is_suppressed
from repro.analysis.registry import Rule, RuleContext, iter_rules
from repro.errors import LintError

__all__ = ["PARSE_FAILURE_CODE", "LintReport", "lint_paths", "lint_source"]

#: Code attached to files the engine cannot parse or read.
PARSE_FAILURE_CODE = "LINT999"


@dataclass
class LintReport:
    """The outcome of one lint run.

    ``findings`` is every live (non-suppressed) finding, sorted by
    location.  After :meth:`apply_baseline`, ``new_findings`` is the
    subset the gate fails on and ``stale_baseline`` counts paid-down
    baseline entries.
    """

    findings: list[Finding]
    files_scanned: int
    suppressed: int
    new_findings: "list[Finding] | None" = None
    grandfathered: list[Finding] = field(default_factory=list)
    stale_baseline: int = 0

    @property
    def gating_findings(self) -> list[Finding]:
        """What fails the gate: post-baseline news, or everything."""
        if self.new_findings is not None:
            return self.new_findings
        return self.findings

    @property
    def clean(self) -> bool:
        return not self.gating_findings

    def counts_by_code(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return dict(sorted(counts.items()))

    def apply_baseline(self, baseline: Baseline) -> None:
        new, grandfathered, stale = baseline.partition(self.findings)
        self.new_findings = new
        self.grandfathered = grandfathered
        self.stale_baseline = stale


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    """Every ``.py`` file under ``paths``, depth-first, sorted."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(
                p
                for p in path.rglob("*.py")
                if not any(part.startswith(".") for part in p.parts)
            )
        elif path.is_file():
            yield path
        else:
            raise LintError(f"lint target {raw!r} is neither a file nor a directory")


def _display_path(path: Path, root: "Path | None") -> str:
    if root is not None:
        try:
            return path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()


def lint_source(
    source: str,
    *,
    path: str = "<string>",
    rules: "Iterable[Rule] | None" = None,
) -> tuple[list[Finding], int]:
    """Lint one module's source text.

    Returns ``(findings, suppressed_count)``; used by the engine per
    file and by rule unit tests directly.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        finding = Finding(
            file=path,
            line=int(exc.lineno or 1),
            col=int(exc.offset or 0),
            code=PARSE_FAILURE_CODE,
            message=f"file does not parse: {exc.msg}",
        )
        return [finding], 0
    suppressions = collect_suppressions(source)
    context = RuleContext(path=path, tree=tree)
    findings: list[Finding] = []
    suppressed = 0
    rule_list = list(rules) if rules is not None else list(iter_rules())
    for rule in rule_list:
        for finding in rule.check(context):
            if is_suppressed(suppressions, finding.line, finding.code):
                suppressed += 1
            else:
                findings.append(finding)
    findings.sort()
    return findings, suppressed


def lint_paths(
    paths: Sequence[str],
    *,
    rules: "Iterable[Rule] | None" = None,
    root: "str | None" = None,
    exclude: Sequence[str] = (),
) -> LintReport:
    """Lint every ``.py`` file under ``paths`` with the registered
    rule pack (or an explicit ``rules`` subset).

    ``root`` anchors display paths (defaults to the current working
    directory), which is also what DET002's sanctioned-path suffixes
    and baseline entries match against.  ``exclude`` drops files whose
    display path starts with any given posix prefix — how the CI gate
    skips ``tests/fixtures/lint/`` (deliberately broken seed files).
    """
    root_path = Path(root) if root is not None else Path.cwd()
    rule_list = list(rules) if rules is not None else list(iter_rules())
    prefixes = tuple(p.rstrip("/") for p in exclude)
    all_findings: list[Finding] = []
    suppressed_total = 0
    files_scanned = 0
    for file_path in iter_python_files(paths):
        display = _display_path(file_path, root_path)
        if any(
            display == p or display.startswith(p + "/") for p in prefixes
        ):
            continue
        files_scanned += 1
        try:
            source = file_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            all_findings.append(
                Finding(
                    file=display,
                    line=1,
                    col=0,
                    code=PARSE_FAILURE_CODE,
                    message=f"file cannot be read: {exc}",
                )
            )
            continue
        findings, suppressed = lint_source(source, path=display, rules=rule_list)
        all_findings.extend(findings)
        suppressed_total += suppressed
    all_findings.sort()
    return LintReport(
        findings=all_findings,
        files_scanned=files_scanned,
        suppressed=suppressed_total,
    )
