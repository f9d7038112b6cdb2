"""The layer DAG and module classification.

The reproduction is layered bottom-up::

    sim <- phy <- mac/core <- net <- topo <- experiments

(``core`` holds the MACAW exchange engine and the configuration
vocabulary; it and ``mac`` are one layer — they import each other by
design.)  A module may import its own layer and anything *below* it.
The service subsystems — observability, fault injection, verification,
the cell runner, the sweep service and the CLI — sit beside the stack
and reach into it only through **declared hook points**:

* ``topo/builder.py`` is the wiring hook: the one stack module allowed
  to import ``obs``, ``verify`` and ``fault`` (ScenarioBuilder installs
  sanitizers, probes and fault schedules at build time).
* ``core/config.py`` is the configuration hook: :class:`RunProfile`
  consolidates metrics and fault knobs, so it may name their types.
* ``fault/report.py`` is the degradation-benchmark hook: it drives whole
  scenarios, so it may import ``topo``.

``TYPE_CHECKING``-only imports are exempt everywhere: they cannot leak
runtime behaviour across layers, and annotations routinely point upward
(``phy`` annotating a ``mac.frames.Frame`` payload, for instance).

REPRO110 enforces both halves of this contract: the import DAG above,
and — generalizing REPRO106's ``._audible`` ban — any access to a
private attribute *owned by another layer* (ownership is computed from
the whole-tree ``self._name = ...`` writes in pass 1).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

__all__ = [
    "KNOWN_PACKAGES",
    "LAYER_ALLOWED_IMPORTS",
    "SUBTREE_ALLOWED_IMPORTS",
    "HOOK_EXCEPTIONS",
    "LAYER_GROUP",
    "classify_module",
    "module_package",
    "allowed_imports",
]

#: Every package directly under ``src/repro``.  Top-level modules
#: (``cli.py``, ``__init__.py``, ``__main__.py``) classify as ``""``.
KNOWN_PACKAGES: FrozenSet[str] = frozenset({
    "sim", "phy", "mac", "core", "net", "topo", "experiments",
    "analysis", "obs", "verify", "fault", "runner", "service",
})

_STACK_BELOW_NET = frozenset({"sim", "phy", "mac", "core"})
_STACK_BELOW_TOPO = _STACK_BELOW_NET | {"net"}
_STACK_ALL = _STACK_BELOW_TOPO | {"topo"}

#: package -> packages it may import at runtime (its own always included).
LAYER_ALLOWED_IMPORTS: Dict[str, FrozenSet[str]] = {
    "sim": frozenset({"sim"}),
    "phy": frozenset({"sim", "phy"}),
    "mac": frozenset(_STACK_BELOW_NET),
    "core": frozenset(_STACK_BELOW_NET),
    "net": frozenset(_STACK_BELOW_TOPO),
    "topo": frozenset(_STACK_ALL),
    "experiments": frozenset(_STACK_ALL | {"experiments", "analysis"}),
    # Result analysis (tables/metrics) reads the stack's outputs.
    "analysis": frozenset(_STACK_ALL | {"analysis"}),
    # Service layers: each declares exactly the hook surface it needs.
    "obs": frozenset({"sim", "mac", "obs"}),
    "verify": frozenset({"sim", "mac", "core", "verify"}),
    "fault": frozenset({"sim", "phy", "core", "fault"}),
    "runner": frozenset(_STACK_ALL | {"experiments", "runner", ""}),
    # The service layer owns the worker model (CellScheduler, run_cells)
    # and the sweep jobs built on it: it sits above runner (journal +
    # scheduler + seed policy) and round-trips whole run profiles (metrics
    # configs, fault schedules) through job specs on disk.
    "service": frozenset(
        _STACK_ALL | {"experiments", "obs", "fault", "runner", "service"}
    ),
    # The CLI and the top-level package tie everything together.
    "cli": frozenset(KNOWN_PACKAGES | {"", "cli"}),
    "": frozenset(KNOWN_PACKAGES | {"", "cli"}),
}

#: (module path relative to the repro root, imported package) pairs that
#: are *declared hook points* — reviewed exceptions to the DAG above.
HOOK_EXCEPTIONS: FrozenSet[Tuple[str, str]] = frozenset({
    ("topo/builder.py", "obs"),
    ("topo/builder.py", "verify"),
    ("topo/builder.py", "fault"),
    ("core/config.py", "obs"),
    ("core/config.py", "fault"),
    ("fault/report.py", "topo"),
})

#: Subtrees whose modules get their own import surface, overriding their
#: package's row above.  The differential oracle/fuzzer orchestrates the
#: whole system — experiments, the runner, fault schedules — exactly
#: like the CLI does, but lives under ``verify`` because digest equality
#: is a verification concern.  Keyed by repro-relative path prefix;
#: first match wins.
SUBTREE_ALLOWED_IMPORTS: Dict[str, FrozenSet[str]] = {
    "verify/diff/": frozenset(KNOWN_PACKAGES | {""}),
}

#: Packages sharing a rank (mutual private-attribute access is in-layer).
LAYER_GROUP: Dict[str, str] = {
    "mac": "mac/core",
    "core": "mac/core",
}


def classify_module(normalized_path: str) -> Optional[str]:
    """The repro-relative path of a module, or None when outside the tree.

    ``normalized_path`` uses forward slashes.  Works for installed
    checkouts (``src/repro/mac/maca.py`` -> ``mac/maca.py``) and for
    fixture paths that simply start with a known package name
    (``mac/maca.py``, matching the legacy lint's conventions).
    """
    parts = normalized_path.split("/")
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            rel = "/".join(parts[index + 1:])
            return rel or None
    if parts and (parts[0] in KNOWN_PACKAGES or len(parts) == 1):
        return normalized_path
    return None


def module_package(normalized_path: str) -> Optional[str]:
    """The repro package a module belongs to ("" for top-level modules)."""
    rel = classify_module(normalized_path)
    if rel is None:
        return None
    head = rel.split("/")[0]
    if "/" not in rel:
        return "cli" if head == "cli.py" else ""
    return head if head in KNOWN_PACKAGES else None


def allowed_imports(package: str, rel: Optional[str] = None) -> FrozenSet[str]:
    """Packages ``package`` may import at runtime (empty = unknown package).

    ``rel`` (the repro-relative module path) lets subtree overrides in
    :data:`SUBTREE_ALLOWED_IMPORTS` widen one directory's surface without
    touching its whole package.
    """
    if rel is not None:
        for prefix, allowed in SUBTREE_ALLOWED_IMPORTS.items():
            if rel.startswith(prefix):
                return allowed
    return LAYER_ALLOWED_IMPORTS.get(package, frozenset())
