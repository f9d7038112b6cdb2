"""``macaw-sim sweep``: job lifecycle through the CLI front door."""

import re

from repro.cli import main


def _sweep(tmp_path, *argv):
    return main(["sweep", *argv,
                 "--job-dir", str(tmp_path / "jobs"),
                 "--cache-dir", str(tmp_path / "cache")])


def _digest_set(out):
    match = re.search(r"digest set: ([0-9a-f]{64})", out)
    assert match, f"no digest set in output:\n{out}"
    return match.group(1)


def test_sweep_completes_and_reports(fake_experiments, tmp_path, capsys):
    code = _sweep(tmp_path, "svc-fast", "--seeds", "0,1")
    out = capsys.readouterr().out
    assert code == 0
    assert "complete" in out and "2 cells" in out
    assert "2 executed, 0 replayed" in out
    _digest_set(out)


def test_sweep_rerun_replays(fake_experiments, tmp_path, capsys):
    _sweep(tmp_path, "svc-fast", "--seeds", "0,1")
    first = _digest_set(capsys.readouterr().out)
    assert _sweep(tmp_path, "svc-fast", "--seeds", "0,1") == 0
    out = capsys.readouterr().out
    assert "0 executed, 2 replayed" in out
    assert _digest_set(out) == first


def test_sweep_stop_after_then_resume_matches_reference(
    fake_experiments, tmp_path, capsys
):
    reference = main(["sweep", "svc-fast", "--seeds", "0,1,2",
                      "--job-dir", str(tmp_path / "ref-jobs"),
                      "--cache-dir", str(tmp_path / "ref-cache")])
    assert reference == 0
    expected = _digest_set(capsys.readouterr().out)

    code = _sweep(tmp_path, "svc-fast", "--seeds", "0,1,2",
                  "--stop-after", "1")
    out = capsys.readouterr().out
    assert code == 130
    assert "interrupted" in out
    match = re.search(r"--resume ([0-9a-f]{12})", out)
    assert match, out
    job_id = match.group(1)

    code = _sweep(tmp_path, "--resume", job_id[:6])
    out = capsys.readouterr().out
    assert code == 0
    assert "complete" in out
    assert _digest_set(out) == expected


def _usage_error_line(capsys):
    err = capsys.readouterr().err.strip()
    assert err.startswith("macaw-sim: ") and "\n" not in err, err
    return err


def test_sweep_negative_retries_returns_2(fake_experiments, tmp_path, capsys):
    assert _sweep(tmp_path, "svc-fast", "--retries", "-1", "--jobs", "2") == 2
    assert "--retries must be >= 0" in _usage_error_line(capsys)
    assert not (tmp_path / "jobs").exists()  # no job that never ran


def test_sweep_non_finite_backoff_returns_2(fake_experiments, tmp_path, capsys):
    # A NaN retry slot is never due: the retried cell would never run.
    assert _sweep(tmp_path, "svc-fast", "--backoff", "nan") == 2
    assert "--backoff must be a finite number" in _usage_error_line(capsys)
    assert not (tmp_path / "jobs").exists()


def test_sweep_non_finite_epsilon_returns_2(fake_experiments, tmp_path, capsys):
    # A NaN target is never met: every experiment would run to --max-seeds.
    assert _sweep(tmp_path, "svc-fast", "--adaptive", "--epsilon", "nan") == 2
    assert "epsilon must be a finite number" in _usage_error_line(capsys)
    assert not (tmp_path / "jobs").exists()


def test_sweep_list_shows_jobs(fake_experiments, tmp_path, capsys):
    _sweep(tmp_path, "svc-fast", "--seeds", "0,1")
    capsys.readouterr()
    assert _sweep(tmp_path, "--list") == 0
    out = capsys.readouterr().out
    assert "complete" in out and "svc-fast" in out and "seeds=2" in out


def test_sweep_list_empty_dir(tmp_path, capsys):
    assert _sweep(tmp_path, "--list") == 0
    assert "no jobs under" in capsys.readouterr().out


def test_sweep_adaptive_reports_stop(fake_experiments, tmp_path, capsys):
    code = _sweep(tmp_path, "svc-fast", "--adaptive", "--epsilon", "1e6",
                  "--min-seeds", "3", "--max-seeds", "6")
    out = capsys.readouterr().out
    assert code == 0
    assert "stopped after 3 seeds (ci)" in out
    assert "CI half-width" in out


def test_sweep_no_digest_skips_fingerprint(fake_experiments, tmp_path,
                                           capsys):
    code = _sweep(tmp_path, "svc-fast", "--seeds", "0,1", "--no-digest")
    out = capsys.readouterr().out
    assert code == 0
    assert "digest set" not in out
