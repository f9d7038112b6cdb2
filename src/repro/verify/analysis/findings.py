"""Finding records and stable fingerprints.

A :class:`Finding` is one diagnostic: ``path:line:col: CODE message``.
The dataclass is shared by every rule plugin, the baseline machinery
and the SARIF/JSON emitters, so it stays plain data that serializes
byte-stably.

Fingerprints identify a finding across unrelated edits: they hash the
file path, the rule code, the *text* of the flagged line and the
occurrence index among identical (path, code, text) triples — so adding
a blank line above a baselined finding does not invalidate the baseline,
while changing the flagged code does.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

__all__ = ["Finding", "fingerprint_findings"]


@dataclass(frozen=True)
class Finding:
    """One analysis finding."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }


def _line_text(source_lines: Sequence[str], line: int) -> str:
    if 1 <= line <= len(source_lines):
        return source_lines[line - 1].strip()
    return ""


def fingerprint_findings(
    findings: Sequence[Finding], source_lines: Sequence[str]
) -> List[Tuple[Finding, str]]:
    """Pair each finding with its stable fingerprint.

    ``source_lines`` are the lines of the file the findings came from
    (every finding in one call must share a file).  The fingerprint folds
    in an occurrence index so two identical findings on identical lines
    (e.g. a copy-pasted violation) baseline independently.
    """
    seen: Dict[Tuple[str, str, str], int] = {}
    out: List[Tuple[Finding, str]] = []
    for finding in findings:
        text = _line_text(source_lines, finding.line)
        key = (finding.path, finding.code, text)
        index = seen.get(key, 0)
        seen[key] = index + 1
        blob = f"{finding.path}\n{finding.code}\n{text}\n{index}"
        digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
        out.append((finding, digest))
    return out
