"""Rule plugin registry.

A rule is a function from ``(ModuleFacts, ProjectIndex | None)`` to an
iterable of :class:`~repro.verify.analysis.findings.Finding`, registered
under its diagnostic code with the :func:`rule` decorator::

    @rule("REPRO142", name="no-teleportation",
          summary="stations must not move faster than light")
    def check_teleportation(facts, project):
        ...

Registration is declarative — the engine discovers rules by importing
:mod:`repro.verify.analysis.rules`, runs whichever subset the caller
selected, and sorts the combined findings, so plugin order never affects
output.  ``requires_project`` marks cross-module rules: they still run
in single-file mode (``lint_source``), but receive ``project=None`` and
are expected to degrade to their file-local subset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence

from repro.verify.analysis.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.verify.analysis.facts import ModuleFacts
    from repro.verify.analysis.project import ProjectIndex

__all__ = ["Rule", "rule", "all_rules", "get_rules", "rule_codes"]

CheckFn = Callable[
    ["ModuleFacts", Optional["ProjectIndex"]], Iterable[Finding]
]


@dataclass(frozen=True)
class Rule:
    """One registered rule plugin."""

    code: str
    name: str
    summary: str
    check: CheckFn = field(repr=False)
    requires_project: bool = False

    def run(
        self, facts: "ModuleFacts", project: Optional["ProjectIndex"]
    ) -> List[Finding]:
        return list(self.check(facts, project))


_RULES: Dict[str, Rule] = {}


def rule(
    code: str,
    name: str,
    summary: str,
    requires_project: bool = False,
) -> Callable[[CheckFn], CheckFn]:
    """Register a rule plugin under ``code`` (e.g. ``REPRO110``)."""

    def register(check: CheckFn) -> CheckFn:
        if code in _RULES:
            raise ValueError(f"duplicate rule registration: {code}")
        _RULES[code] = Rule(
            code=code, name=name, summary=summary, check=check,
            requires_project=requires_project,
        )
        return check

    return register


def _load_rules() -> None:
    """Import the rule package so its modules self-register."""
    if not _RULES:
        import importlib

        importlib.import_module("repro.verify.analysis.rules")


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by code."""
    _load_rules()
    return [_RULES[code] for code in sorted(_RULES)]


def rule_codes() -> List[str]:
    _load_rules()
    return sorted(_RULES)


def get_rules(codes: Optional[Sequence[str]] = None) -> List[Rule]:
    """The selected rules (all when ``codes`` is None).

    Raises KeyError on an unknown code so typos fail loudly.
    """
    _load_rules()
    if codes is None:
        return all_rules()
    missing = [code for code in codes if code not in _RULES]
    if missing:
        raise KeyError(f"unknown rule code(s): {', '.join(sorted(missing))}")
    return [_RULES[code] for code in sorted(set(codes))]
