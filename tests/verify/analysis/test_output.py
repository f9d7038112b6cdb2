"""Report output: stable finding fingerprints and the SARIF log."""

import json

from repro.verify.analysis import analyze_source, get_rules
from repro.verify.analysis.output import render_sarif

DIRTY = "import time\nt = time.time()\n"


def _pairs(source, path="mod.py"):
    result = analyze_source(source, path, get_rules())
    return list(zip(result.findings, result.fingerprints))


# ---------------------------------------------------- fingerprint stability


def test_fingerprints_stable_under_line_renumbering():
    before = _pairs(DIRTY)
    # Prepend lines: positions shift, content does not.
    shifted = _pairs("# header\n\n" + DIRTY)
    assert [fp for _, fp in before] == [fp for _, fp in shifted]
    assert [f.line for f, _ in before] != [f.line for f, _ in shifted]


def test_fingerprints_disambiguate_identical_lines():
    twice = "t = time.time()\nt = time.time()\n"
    pairs = _pairs("import time\n" + twice)
    fps = [fp for _, fp in pairs]
    assert len(fps) == len(set(fps)), "duplicate lines need distinct prints"


# ------------------------------------------------------------------- SARIF


def test_sarif_log_shape():
    pairs = _pairs(DIRTY)
    log = json.loads(render_sarif(pairs, get_rules()))
    assert log["version"] == "2.1.0"
    assert log["$schema"].endswith("sarif-schema-2.1.0.json")
    (run,) = log["runs"]

    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-analysis"
    rule_ids = {r["id"] for r in driver["rules"]}
    assert {"REPRO101", "REPRO110", "REPRO113"} <= rule_ids
    for rule in driver["rules"]:
        assert rule["shortDescription"]["text"]

    assert len(run["results"]) == len(pairs)
    for result, (finding, fingerprint) in zip(run["results"], pairs):
        assert result["ruleId"] == finding.code
        assert result["ruleId"] in rule_ids
        assert result["message"]["text"] == finding.message
        (loc,) = result["locations"]
        region = loc["physicalLocation"]["region"]
        assert region["startLine"] == finding.line
        assert region["startColumn"] == finding.col + 1
        assert result["partialFingerprints"]["reproAnalysis/v1"] == fingerprint
