"""The :class:`Rule` protocol and the process-wide rule registry.

Mirrors the execution-backend registry
(:mod:`repro.backends.registry`): rules are *registered*, not
enumerated in an ``if/elif``, so a new invariant is a
:func:`register_rule` call.  The shipped rule pack
(:mod:`repro.analysis.rules`) registers itself on import; third-party
rules join the same way and are immediately picked up by the engine,
the CLI listing and the JSON report.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Iterator, Protocol, runtime_checkable

from repro.analysis.finding import Finding, Severity
from repro.errors import LintError

__all__ = [
    "RuleContext",
    "Rule",
    "register_rule",
    "unregister_rule",
    "get_rule",
    "available_rules",
    "rule_codes",
]


@dataclass
class RuleContext:
    """Everything a rule may inspect about one source file.

    ``path`` is the display path (posix separators, relative to the
    lint root when the file lies under it) — rules that sanction
    specific files (DET002's measured-host-span sites) match on its
    suffix.  ``tree`` is the parsed module.
    """

    path: str
    tree: ast.Module

    def finding(
        self,
        node: ast.AST,
        code: str,
        message: str,
        *,
        severity: Severity = Severity.ERROR,
    ) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        return Finding(
            file=self.path,
            line=int(getattr(node, "lineno", 1)),
            col=int(getattr(node, "col_offset", 0)),
            code=code,
            message=message,
            severity=severity,
        )


@runtime_checkable
class Rule(Protocol):
    """One named invariant checked over a module's AST.

    ``code`` is the stable identifier pragmas and baselines key on
    (``DET001``...); ``description`` the one-liner shown by
    ``repro lint --list-rules``.  ``check`` yields findings — it must
    not mutate the tree.
    """

    code: str
    description: str

    def check(self, context: RuleContext) -> Iterable[Finding]:
        """Yield every violation of this rule in ``context.tree``."""
        ...  # pragma: no cover


#: Registration order is preserved; reports sort by location anyway.
_REGISTRY: dict[str, Rule] = {}


def register_rule(rule: Rule, *, replace: bool = False) -> Rule:
    """Register ``rule`` under its ``code`` and return it."""
    code = getattr(rule, "code", None)
    if not isinstance(code, str) or not code:
        raise LintError(f"rule {rule!r} must expose a nonempty string `code`")
    if not callable(getattr(rule, "check", None)):
        raise LintError(f"rule {code!r} must define a callable `check(context)`")
    if code in _REGISTRY and not replace:
        raise LintError(
            f"rule {code!r} is already registered ({_REGISTRY[code]!r}); "
            "pass replace=True to override"
        )
    _REGISTRY[code] = rule
    return rule


def unregister_rule(code: str) -> Rule:
    """Remove and return a registered rule (mainly for tests)."""
    try:
        return _REGISTRY.pop(code)
    except KeyError:
        raise LintError(
            f"unknown rule {code!r}; registered: {list(_REGISTRY)}"
        ) from None


def get_rule(code: str) -> Rule:
    """Look a rule up by code."""
    try:
        return _REGISTRY[code]
    except KeyError:
        raise LintError(
            f"unknown rule {code!r}; expected one of {rule_codes()}"
        ) from None


def _ensure_default_rules() -> None:
    # Imported lazily so `repro.analysis.registry` has no import cycle
    # with the rule modules (which import RuleContext from here).
    import repro.analysis.rules  # noqa: F401


def available_rules() -> tuple[Rule, ...]:
    """Every registered rule (the shipped pack registers on demand)."""
    _ensure_default_rules()
    return tuple(_REGISTRY.values())


def rule_codes() -> tuple[str, ...]:
    """The registered rule codes, in registration order."""
    _ensure_default_rules()
    return tuple(_REGISTRY)


def iter_rules(codes: "Iterable[str] | None" = None) -> Iterator[Rule]:
    """The rules to run: all registered ones, or the named subset."""
    _ensure_default_rules()
    if codes is None:
        yield from _REGISTRY.values()
        return
    for code in codes:
        yield get_rule(code)
