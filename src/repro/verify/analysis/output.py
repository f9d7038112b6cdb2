"""Finding renderers: legacy text, machine JSON, SARIF 2.1.0.

SARIF is the interchange format CI annotators understand; the emitted
log is deliberately minimal — one run, one driver, one rule descriptor
per registered rule, one result per finding — but schema-valid, so it
can be uploaded as a code-scanning artifact without post-processing.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Any, Dict, List, Sequence, Tuple

from repro.verify.analysis.findings import Finding
from repro.verify.analysis.registry import Rule

__all__ = ["render_text", "render_json", "render_sarif", "summary_line"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
TOOL_NAME = "repro-analysis"


def summary_line(findings: Sequence[Finding]) -> str:
    """The legacy one-line tally: ``N finding(s) (CODE: n, ...)``."""
    tally = Counter(f.code for f in findings)
    per_code = ", ".join(f"{code}: {tally[code]}" for code in sorted(tally))
    return f"{len(findings)} finding(s) ({per_code})"


def render_text(findings: Sequence[Finding]) -> str:
    """``path:line:col: CODE message`` per finding plus the tally line."""
    lines = [f.render() for f in findings]
    if findings:
        lines.append(summary_line(findings))
    else:
        lines.append("0 finding(s)")
    return "\n".join(lines) + "\n"


def render_json(pairs: Sequence[Tuple[Finding, str]]) -> str:
    blob: Dict[str, Any] = {
        "tool": TOOL_NAME,
        "findings": [
            dict(f.to_dict(), fingerprint=fp) for f, fp in pairs
        ],
    }
    return json.dumps(blob, indent=2, sort_keys=True) + "\n"


def _sarif_rules(rules: Sequence[Rule]) -> List[Dict[str, Any]]:
    return [
        {
            "id": r.code,
            "name": r.name,
            "shortDescription": {"text": r.summary},
        }
        for r in rules
    ]


def render_sarif(
    pairs: Sequence[Tuple[Finding, str]],
    rules: Sequence[Rule],
) -> str:
    """A single-run SARIF 2.1.0 log.

    Fingerprints ride in ``partialFingerprints`` so scanners can track
    identity across line moves.
    """
    results: List[Dict[str, Any]] = [
        {
            "ruleId": finding.code,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": finding.path},
                        "region": {
                            "startLine": max(finding.line, 1),
                            "startColumn": max(finding.col + 1, 1),
                        },
                    }
                }
            ],
            "partialFingerprints": {"reproAnalysis/v1": fingerprint},
        }
        for finding, fingerprint in pairs
    ]

    log = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "informationUri":
                            "https://example.invalid/repro-analysis",
                        "rules": _sarif_rules(rules),
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(log, indent=2, sort_keys=True) + "\n"
