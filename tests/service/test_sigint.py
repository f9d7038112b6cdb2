"""Real ^C against a live sweep subprocess: drain, journal, exit 130.

The CLI process runs in its own session (process group); SIGINT goes to
the whole group, exactly like a terminal ^C.  Workers ignore it, the
orchestrator drains them, journals, and exits 130 (or 0 when the drain
happened to finish the job).  Either way: a chain-valid journal, no
orphan workers, and a resume that completes byte-identically.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.service.journal import Journal

REPO = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def _sweep_cmd(tmp_path, *extra):
    return [
        sys.executable, "-m", "repro", "sweep", "table9",
        "--seeds", "0,1,2,3,4,5", "--duration", "40", "--warmup", "5",
        "--jobs", "2",
        "--job-dir", str(tmp_path / "jobs"),
        "--cache-dir", str(tmp_path / "cache"),
        *extra,
    ]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.slow
def test_sigint_drains_journals_and_resumes(tmp_path):
    proc = subprocess.Popen(
        _sweep_cmd(tmp_path), cwd=REPO, env=_env(),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        start_new_session=True,
    )
    # Wait for the first completed cell, then ^C the whole group.
    saw_cell = False
    deadline = time.monotonic() + 120
    for line in proc.stdout:
        if "seed" in line and "s" in line and line.strip().startswith("["):
            saw_cell = True
            break
        if time.monotonic() > deadline:
            break
    assert saw_cell, "no cell completed within the deadline"
    os.killpg(os.getpgid(proc.pid), signal.SIGINT)
    proc.stdout.read()
    code = proc.wait(timeout=120)
    # 130 = genuinely interrupted; 0 = the drain finished the last cells.
    assert code in (0, 130)

    job_dirs = [d for d in (tmp_path / "jobs").iterdir() if d.is_dir()]
    assert len(job_dirs) == 1
    journal_path = job_dirs[0] / "journal.jsonl"
    records = Journal(journal_path).load()  # raises on a broken chain
    kinds = [r["kind"] for r in records]
    assert kinds[0] == "job"
    assert kinds[-1] in ("interrupted", "complete")
    cells_before = kinds.count("cell")
    assert cells_before >= 1

    # No orphans: every worker was a child of the dead group.
    alive = subprocess.run(
        ["pgrep", "-g", str(proc.pid)], capture_output=True, text=True
    )
    assert alive.stdout.strip() == ""

    resume = subprocess.run(
        _sweep_cmd(tmp_path), cwd=REPO, env=_env(),
        capture_output=True, text=True, timeout=600,
    )
    assert resume.returncode == 0, resume.stdout + resume.stderr
    assert "complete" in resume.stdout
    final = Journal(journal_path).load()
    assert [r["kind"] for r in final].count("cell") == 6
    assert final[-1]["kind"] == "complete"
