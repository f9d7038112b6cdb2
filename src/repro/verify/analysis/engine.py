"""The two-pass analysis engine.

Pass 1 parses every file once and reduces it to a summary; the
summaries fold into the whole-tree
:class:`~repro.verify.analysis.project.ProjectIndex`.  Pass 2 runs the
selected rule plugins per file against the facts *and* the index, then
applies ``# repro-lint: allow=`` pragmas and sorts.  Both passes run
serially, in input order, and nothing is cached between runs.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.verify.analysis.facts import extract_facts
from repro.verify.analysis.findings import Finding, fingerprint_findings
from repro.verify.analysis.project import ProjectIndex, build_index
from repro.verify.analysis.registry import Rule, get_rules

__all__ = [
    "AnalysisRun",
    "FileResult",
    "analyze_source",
    "analyze_paths",
    "collect_files",
]

_ALLOW_RE = re.compile(r"#\s*repro-lint:\s*allow=([A-Za-z0-9_,\s]+)")


@dataclass
class FileResult:
    """Per-file outcome: kept findings, pragma-suppressed ones, metadata."""

    path: str
    findings: List[Finding] = field(default_factory=list)
    fingerprints: List[str] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    pragma_lines: List[int] = field(default_factory=list)


@dataclass
class AnalysisRun:
    """A whole-tree analysis outcome."""

    files: List[FileResult]
    index: ProjectIndex

    @property
    def findings(self) -> List[Finding]:
        out: List[Finding] = []
        for result in self.files:
            out.extend(result.findings)
        return out

    @property
    def fingerprints(self) -> List[Tuple[Finding, str]]:
        out: List[Tuple[Finding, str]] = []
        for result in self.files:
            out.extend(zip(result.findings, result.fingerprints))
        return out


def _allowed_codes(source_lines: Sequence[str], line: int) -> Set[str]:
    """Rules waived on ``line`` (1-indexed) by a repro-lint pragma."""
    if not 1 <= line <= len(source_lines):
        return set()
    match = _ALLOW_RE.search(source_lines[line - 1])
    if not match:
        return set()
    return {token.strip().upper() for token in match.group(1).split(",")}


def _comment_pragma_lines(source: str) -> List[int]:
    """Lines whose actual COMMENT token is a repro-lint pragma.

    Findings are *suppressed* by a raw-line regex (legacy semantics),
    but only genuine comments are candidates for ``--fix`` pragma
    removal — a docstring that merely mentions the pragma syntax must
    never be rewritten.
    """
    lines: List[int] = []
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if (token.type == tokenize.COMMENT
                    and _ALLOW_RE.search(token.string)):
                lines.append(token.start[0])
    except (tokenize.TokenError, IndentationError):
        pass
    return lines


def analyze_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[Rule]] = None,
    project: Optional[ProjectIndex] = None,
) -> FileResult:
    """Run the selected rules over one module's source text."""
    if rules is None:
        rules = get_rules()
    try:
        facts = extract_facts(source, path)
    except SyntaxError as exc:
        finding = Finding(path, exc.lineno or 0, exc.offset or 0, "REPRO100",
                          f"syntax error: {exc.msg}")
        lines = source.splitlines()
        fps = [fp for _, fp in fingerprint_findings([finding], lines)]
        return FileResult(path=path, findings=[finding], fingerprints=fps)
    raw: List[Finding] = []
    for rule in rules:
        raw.extend(rule.run(facts, project))
    source_lines = source.splitlines()
    kept: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in raw:
        allowed = _allowed_codes(source_lines, finding.line)
        if finding.code in allowed or "ALL" in allowed:
            suppressed.append(finding)
        else:
            kept.append(finding)
    kept.sort(key=lambda f: (f.line, f.col, f.code))
    suppressed.sort(key=lambda f: (f.line, f.col, f.code))
    pragma_lines = _comment_pragma_lines(source)
    return FileResult(
        path=path,
        findings=kept,
        fingerprints=[fp for _, fp in fingerprint_findings(kept, source_lines)],
        suppressed=suppressed,
        pragma_lines=pragma_lines,
    )


def collect_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files and directory trees (``*.py``, sorted, recursive)."""
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    return files


def analyze_paths(
    paths: Sequence[Path],
    rules: Optional[Sequence[Rule]] = None,
) -> AnalysisRun:
    """Analyze files/trees with the full two-pass engine.

    Results come back in input order.  A file that cannot be read or
    parsed still gets a result, carrying one REPRO100 finding, and is
    left out of the project index.
    """
    if rules is None:
        rules = get_rules()
    sources: List[Tuple[str, Optional[str], Optional[OSError]]] = []
    for path in collect_files(paths):
        try:
            sources.append((str(path), path.read_text(encoding="utf-8"), None))
        except OSError as exc:
            sources.append((str(path), None, exc))

    summaries: List[Dict[str, Any]] = []
    for name, source, _ in sources:
        if source is None:
            continue
        try:
            summaries.append(extract_facts(source, name).summary())
        except SyntaxError:
            pass
    project = build_index(summaries)

    files: List[FileResult] = []
    for name, source, error in sources:
        if source is not None:
            files.append(analyze_source(source, name, rules, project))
            continue
        finding = Finding(name, 0, 0, "REPRO100", f"cannot read file: {error}")
        files.append(FileResult(
            path=name, findings=[finding],
            fingerprints=[fp for _, fp in fingerprint_findings([finding], [])],
        ))
    return AnalysisRun(files=files, index=project)
