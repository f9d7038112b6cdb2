"""REPRO110: the layer DAG and cross-layer private-attribute access.

Two checks, both driven by :mod:`repro.verify.analysis.layers`:

* **Imports** — a module may import its own layer and the layers below
  it (``sim <- phy <- mac/core <- net <- topo <- experiments``); the
  obs/verify/fault/runner service layers each declare exactly the
  surface they need, and stack modules reach *into* the services only
  from declared hook points (``topo/builder.py``, ``core/config.py``,
  ``fault/report.py``).  ``TYPE_CHECKING``-only imports are exempt.
* **Private attributes** (requires the project index) — generalizing
  REPRO106's ``._audible`` ban: reading ``x._name`` where ``_name`` is
  written (``self._name = ...``) by exactly one *other* layer group is a
  layering leak; the owning layer should grow a public accessor.
  ``._audible`` itself stays REPRO106's, to keep one finding per site.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.verify.analysis.facts import ModuleFacts
from repro.verify.analysis.findings import Finding
from repro.verify.analysis.layers import (
    HOOK_EXCEPTIONS,
    KNOWN_PACKAGES,
    allowed_imports,
)
from repro.verify.analysis.project import ProjectIndex, module_fullname
from repro.verify.analysis.registry import rule


def _import_target_package(module: str, level: int,
                           own_module: Optional[str]) -> Optional[str]:
    """The repro package an import lands in, or None for external ones."""
    if level > 0 and own_module is not None:
        base = own_module.split(".")
        if level <= len(base):
            base = base[:len(base) - level + 1] if own_module.endswith(
                "__init__") else base[:len(base) - level]
        module = ".".join(base + ([module] if module else []))
    parts = module.split(".")
    if parts[0] != "repro":
        return None
    if len(parts) == 1:
        return ""
    return parts[1] if parts[1] in KNOWN_PACKAGES else (
        "cli" if parts[1] == "cli" else ""
    )


@rule("REPRO110", name="layering",
      summary="imports and private access must follow the layer DAG",
      requires_project=True)
def check_layering(
    facts: ModuleFacts, project: Optional[ProjectIndex]
) -> Iterator[Finding]:
    package = facts.package
    if package is None or facts.rel is None:
        return
    allowed = allowed_imports(package, facts.rel)
    own_module = module_fullname(facts.rel)
    for binding in facts.imports:
        if binding.type_checking:
            continue
        target = _import_target_package(
            binding.module or binding.orig_name, binding.level, own_module
        )
        if target is None or target == package:
            continue
        if target in allowed:
            continue
        if (facts.rel, target) in HOOK_EXCEPTIONS:
            continue
        layer = package if package else "top-level"
        ok = ", ".join(sorted(p for p in allowed if p)) or "(none)"
        yield Finding(
            facts.path, binding.line, binding.col, "REPRO110",
            f"layer '{layer}' must not import "
            f"'{f'repro.{target}' if target else 'repro'}'"
            f" (allowed: {ok}); the layer DAG is"
            " sim <- phy <- mac/core <- net <- topo <- experiments, with"
            " obs/verify/fault reached only via declared hook points"
            " (repro.verify.analysis.layers)",
        )
    if project is None:
        return
    for event in facts.attr_events:
        if (
            not event.attr.startswith("_")
            or event.attr.startswith("__")
            or event.base_is_self
            or event.attr == "_audible"  # REPRO106 owns this one
        ):
            continue
        owner = project.attr_owned_elsewhere(event.attr, package)
        if owner is None:
            continue
        yield Finding(
            facts.path, event.line, event.col, "REPRO110",
            f"cross-layer access to private attribute '.{event.attr}' owned"
            f" by layer '{owner}'; promote a public accessor on the owning"
            " layer instead of reaching through it",
        )
