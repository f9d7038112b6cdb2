"""The whole-tree index: what cross-module rules know about the project.

Pass 1 reduces every module to a serializable summary
(:meth:`~repro.verify.analysis.facts.ModuleFacts.summary`); this module
folds those summaries into the :class:`ProjectIndex` that pass-2 rule
plugins consult:

* ``private_attr_owners`` — for each ``self._name`` attribute written
  anywhere in the tree, the set of layer groups that define it.  The
  REPRO110 attribute rule flags reads of an attribute whose *only*
  defining layer is a different one.
* ``init_reexports`` — ``(source module, name)`` pairs that a package
  ``__init__.py`` imports and lists in its ``__all__``.  REPRO105 treats
  such names as used (the re-export *is* the use).
* ``frozen_classes`` — every ``@dataclass(frozen=True)`` class name in
  the tree, for REPRO111's direct-write check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.verify.analysis.layers import LAYER_GROUP

__all__ = ["ProjectIndex", "build_index", "module_fullname"]


def module_fullname(rel: Optional[str]) -> Optional[str]:
    """Dotted module name for a repro-relative path (``mac/maca.py``)."""
    if rel is None or not rel.endswith(".py"):
        return None
    stem = rel[:-3]
    if stem.endswith("/__init__"):
        stem = stem[: -len("/__init__")]
    return "repro." + stem.replace("/", ".") if stem else "repro"


def _layer_group(package: Optional[str]) -> Optional[str]:
    if package is None:
        return None
    return LAYER_GROUP.get(package, package)


@dataclass
class ProjectIndex:
    """Cross-module facts shared by every pass-2 rule."""

    #: private attribute -> layer groups whose classes write it via self.
    private_attr_owners: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    #: (source dotted module, name) pairs re-exported by a package __init__.
    init_reexports: Set[Tuple[str, str]] = field(default_factory=set)
    #: every @dataclass(frozen=True) class name in the tree.
    frozen_classes: FrozenSet[str] = field(default_factory=frozenset)
    #: dotted module names present in the tree (for import resolution).
    modules: FrozenSet[str] = field(default_factory=frozenset)

    def attr_owned_elsewhere(self, attr: str, package: Optional[str]) -> Optional[str]:
        """The sole owning layer group of ``attr`` when it is not ours.

        Returns the owner's name when exactly one layer group defines the
        attribute and the accessing ``package`` is a different group;
        None otherwise (unknown attribute, shared ownership, same layer).
        """
        owners = self.private_attr_owners.get(attr)
        if owners is None or len(owners) != 1:
            return None
        (owner,) = owners
        if _layer_group(package) == owner:
            return None
        return owner


def _resolve_init_import(package_module: str, module: str, level: int) -> str:
    """Resolve an ``__init__`` import's source module to a dotted name.

    ``package_module`` is the dotted name of the package itself
    (``repro.mac``); relative imports resolve against it (level 1 means
    "this package").
    """
    if level <= 0:
        return module
    base_parts = package_module.split(".")
    if level > 1:
        base_parts = base_parts[: -(level - 1)] or base_parts[:1]
    base = ".".join(base_parts)
    return f"{base}.{module}" if module else base


def build_index(summaries: List[Dict[str, Any]]) -> ProjectIndex:
    """Fold per-module summaries into one :class:`ProjectIndex`."""
    owners: Dict[str, Set[str]] = {}
    reexports: Set[Tuple[str, str]] = set()
    frozen: Set[str] = set()
    modules: Set[str] = set()
    for summary in summaries:
        rel = summary.get("rel")
        package = summary.get("package")
        fullname = module_fullname(rel)
        if fullname is not None:
            modules.add(fullname)
        group = _layer_group(package)
        if group is not None:
            for attr in summary.get("private_attr_defs", ()):
                owners.setdefault(attr, set()).add(group)
        frozen.update(summary.get("frozen_classes", ()))
        if summary.get("is_init") and fullname is not None:
            exported = set(summary.get("all", ()))
            if exported:
                for imp in summary.get("imports", ()):
                    if not imp.get("is_from"):
                        continue
                    name = imp["name"]
                    if name not in exported:
                        continue
                    source = _resolve_init_import(
                        fullname, imp.get("module", ""), imp.get("level", 0)
                    )
                    reexports.add((source, imp["orig"]))
    return ProjectIndex(
        private_attr_owners={
            attr: frozenset(pkgs) for attr, pkgs in owners.items()
        },
        init_reexports=reexports,
        frozen_classes=frozenset(frozen),
        modules=frozenset(modules),
    )
