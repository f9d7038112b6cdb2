"""REPRO114: ad-hoc pickling of simulator state.

Live simulator objects are full of things ``pickle`` silently gets
wrong: callbacks bound into the event queue, RNG substreams whose
identity (not just state) matters, process-global sequence counters,
and cross-references that must survive as *the same object*.  Nothing
in the tree persists live simulator state.

So every import of ``pickle`` (or ``copyreg``, its customization
surface) is a finding.  A module that pickles plain-data records — like
the result cache's ``CellResult`` blobs — says so with an explicit
per-line allow pragma::

    import pickle  # repro-lint: allow=REPRO114 (CellResult blobs, ...)

``TYPE_CHECKING``-only imports are exempt, as everywhere.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.verify.analysis.facts import ModuleFacts
from repro.verify.analysis.findings import Finding
from repro.verify.analysis.project import ProjectIndex
from repro.verify.analysis.registry import rule

#: Modules whose import marks ad-hoc persistence of live objects.
_PERSISTENCE_ROOTS = frozenset({"pickle", "copyreg"})


@rule("REPRO114", name="persistence",
      summary="pickle/copyreg imports need a per-line allow pragma")
def check_persistence(
    facts: ModuleFacts, project: Optional[ProjectIndex]
) -> Iterator[Finding]:
    for binding in facts.imports:
        if binding.type_checking:
            continue
        if binding.root not in _PERSISTENCE_ROOTS:
            continue
        yield Finding(
            facts.path, binding.line, binding.col, "REPRO114",
            f"direct '{binding.root}' import; live simulator state does"
            " not survive pickling — for plain-data records, add"
            " '# repro-lint: allow=REPRO114 (<why>)' on this line",
        )
