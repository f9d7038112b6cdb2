"""The analyze CLI: exit codes, formats, baseline flow, dispatch."""

import json
import subprocess
import sys
from pathlib import Path

from repro.verify.analysis.cli import main

REPO = Path(__file__).resolve().parents[3]
SRC = REPO / "src" / "repro"

DIRTY = "import time\nt = time.time()\n"


def test_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    dirty = tmp_path / "dirty.py"
    dirty.write_text(DIRTY)

    assert main([str(clean), "--no-baseline"]) == 0
    assert main([str(dirty), "--no-baseline"]) == 1
    out = capsys.readouterr().out
    assert "REPRO102" in out and "1 finding(s)" in out
    assert main([]) == 2
    assert main([str(tmp_path / "absent.py")]) == 2
    assert main([str(clean), "--rules", "REPRO999"]) == 2


def test_rule_selection(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text(DIRTY)
    assert main([str(dirty), "--rules", "REPRO101", "--no-baseline"]) == 0
    assert main([str(dirty), "--rules", "REPRO102", "--no-baseline"]) == 1


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("REPRO101", "REPRO108", "REPRO110", "REPRO113"):
        assert code in out


def test_json_format(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text(DIRTY)
    assert main([str(dirty), "--format", "json", "--no-baseline"]) == 1
    blob = json.loads(capsys.readouterr().out)
    assert blob["tool"] == "repro-analysis"
    assert [f["code"] for f in blob["findings"]] == ["REPRO102"]
    assert all(f["fingerprint"] for f in blob["findings"])


def test_sarif_format_to_file(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text(DIRTY)
    out_file = tmp_path / "report.sarif"
    code = main([str(dirty), "--format", "sarif",
                 "--output", str(out_file), "--no-baseline"])
    assert code == 1
    log = json.loads(out_file.read_text())
    assert log["version"] == "2.1.0"
    assert log["runs"][0]["results"]


def test_update_baseline_then_clean_then_stale(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text(DIRTY)
    baseline = tmp_path / "baseline.json"

    # Accept the current debt: subsequent runs are clean.
    assert main([str(dirty), "--baseline", str(baseline),
                 "--update-baseline"]) == 0
    assert main([str(dirty), "--baseline", str(baseline)]) == 0
    err = capsys.readouterr().err
    assert "baselined finding(s) hidden" in err

    # New findings are NOT masked by the baseline.
    dirty.write_text(DIRTY + "import os\n")
    assert main([str(dirty), "--baseline", str(baseline)]) == 1

    # Paying the debt leaves a stale entry, pruned by --update-baseline.
    dirty.write_text("x = 1\n")
    assert main([str(dirty), "--baseline", str(baseline)]) == 0
    assert "stale baseline" in capsys.readouterr().err
    assert main([str(dirty), "--baseline", str(baseline),
                 "--update-baseline"]) == 0
    assert json.loads(baseline.read_text())["findings"] == {}


def test_fix_flag_rewrites_and_reports_clean(tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text("import os\nimport sys\nx = sys.argv\n")
    assert main([str(tmp_path), "--fix", "--no-baseline"]) == 0
    assert target.read_text() == "import sys\nx = sys.argv\n"
    assert "fixed" in capsys.readouterr().out


def test_module_entrypoint_runs_clean_on_tree():
    result = subprocess.run(
        [sys.executable, "-m", "repro.verify.analysis", str(SRC)],
        capture_output=True, text=True, cwd=str(REPO),
        env={"PYTHONPATH": str(SRC.parent), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_macaw_sim_analyze_dispatch():
    from repro.cli import main as macaw_main

    assert macaw_main(["analyze", str(SRC), "--no-baseline"]) == 0
