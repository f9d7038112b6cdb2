"""Layer-aware static analysis for the MACAW reproduction tree.

A pluggable two-pass AST framework replacing the PR 1 flat linter:

* **Pass 1** (:mod:`~repro.verify.analysis.facts`) parses each module
  once into plain-data facts; file summaries fold into the whole-tree
  :class:`~repro.verify.analysis.project.ProjectIndex` (import graph,
  private-attribute ownership, ``__init__`` re-exports, frozen types).
* **Pass 2** (:mod:`~repro.verify.analysis.engine`) runs registered rule
  plugins (:mod:`~repro.verify.analysis.rules`) per file against facts
  plus index, then applies ``# repro-lint: allow=`` pragmas and sorts.

Rules REPRO101-108 are per-file determinism and hygiene checks;
REPRO110 and up add cross-module layering, frozen-mutation,
order-sensitive-iteration and callback-discipline checks.  See
``DESIGN.md`` §10 and ``macaw-sim analyze --list-rules``.
"""

from repro.verify.analysis.engine import (
    AnalysisRun,
    FileResult,
    analyze_paths,
    analyze_source,
    collect_files,
)
from repro.verify.analysis.findings import Finding, fingerprint_findings
from repro.verify.analysis.project import ProjectIndex, build_index
from repro.verify.analysis.registry import (
    Rule,
    all_rules,
    get_rules,
    rule,
    rule_codes,
)

__all__ = [
    "AnalysisRun",
    "FileResult",
    "Finding",
    "ProjectIndex",
    "Rule",
    "all_rules",
    "analyze_paths",
    "analyze_source",
    "build_index",
    "collect_files",
    "fingerprint_findings",
    "get_rules",
    "rule",
    "rule_codes",
]
