"""CLI behaviour."""

import pytest

from repro.cli import main


def test_list_prints_every_experiment(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for exp_id in ("table1", "table11", "fig1", "ablation-multicast"):
        assert exp_id in out


def test_unknown_experiment_returns_2(capsys):
    assert main(["table99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_runs_one_experiment_and_reports(capsys):
    code = main(["table9", "--duration", "60", "--warmup", "10"])
    out = capsys.readouterr().out
    assert "Table 9" in out
    assert "MACA" in out and "MACAW" in out
    assert "(paper)" in out
    assert "seed 0" in out
    assert code in (0, 1)  # checks may be noisy at 60 s; both are valid exits


def test_no_paper_flag_hides_reference(capsys):
    main(["table9", "--duration", "60", "--warmup", "10", "--no-paper"])
    assert "(paper)" not in capsys.readouterr().out


def test_seed_flag_respected(capsys):
    main(["table9", "--duration", "60", "--warmup", "10", "--seed", "7"])
    assert "seed 7" in capsys.readouterr().out


def test_verify_trace_reports_clean_run(capsys):
    assert main(["verify-trace", "table9", "--duration", "60", "--warmup", "10"]) == 0
    out = capsys.readouterr().out
    assert "table9" in out and "OK" in out
    assert "trace records" in out


def test_verify_trace_unknown_experiment_returns_2(capsys):
    assert main(["verify-trace", "table99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_verify_trace_leaves_sanitize_mode_off(capsys):
    from repro.core.config import RunProfile, ambient_profile

    before = RunProfile()
    main(["verify-trace", "table9", "--duration", "60", "--warmup", "10"])
    capsys.readouterr()
    # The sanitizer came from verify-trace's own profile: nothing ambient
    # is left behind for later runs to pick up.
    assert ambient_profile() is None
    assert RunProfile() == before


def test_seeds_accepts_explicit_comma_list(capsys):
    code = main([
        "table9", "--duration", "30", "--warmup", "5",
        "--seeds", "3,5", "--digest",
    ])
    out = capsys.readouterr().out
    assert "digest seed 3:" in out and "digest seed 5:" in out
    assert "mean of 2 seeds" in out
    assert code in (0, 1)


def test_seeds_count_still_expands_from_base_seed(capsys):
    main([
        "table9", "--duration", "30", "--warmup", "5",
        "--seed", "4", "--seeds", "2", "--digest",
    ])
    out = capsys.readouterr().out
    assert "digest seed 4:" in out and "digest seed 5:" in out


def test_seeds_duplicates_collapse_in_order_with_warning(capsys):
    code = main([
        "table9", "--duration", "30", "--warmup", "5",
        "--seeds", "5,3,5,3,5", "--digest",
    ])
    captured = capsys.readouterr()
    assert code in (0, 1)
    assert "contains duplicates" in captured.err
    assert "running each seed once (2 unique)" in captured.err
    # First occurrences win and keep their order: 5 before 3.
    assert captured.out.index("digest seed 5:") < captured.out.index(
        "digest seed 3:")
    assert "mean of 2 seeds" in captured.out


def test_seeds_without_duplicates_warns_nothing(capsys):
    main(["table9", "--duration", "30", "--warmup", "5", "--seeds", "3,5"])
    assert "duplicates" not in capsys.readouterr().err


def test_invalid_seeds_value_returns_2(capsys):
    assert main(["table9", "--seeds", "zero"]) == 2
    assert "invalid --seeds value" in capsys.readouterr().err
    assert main(["table9", "--seeds", "0"]) == 2
    # An empty list would run no cell and report success.
    assert main(["table9", "--seeds", ","]) == 2


def _usage_error_line(capsys):
    err = capsys.readouterr().err.strip()
    assert err.startswith("macaw-sim: ") and "\n" not in err, err
    return err


def test_table8_horizon_before_its_measurement_start_returns_2(capsys):
    # Table 8 measures from t=120 s whatever --duration says.
    assert main(["table8", "--duration", "60"]) == 2
    assert "t=120 s" in _usage_error_line(capsys)


def test_warmup_past_duration_returns_2(capsys):
    assert main(["table2", "--duration", "5", "--warmup", "10"]) == 2
    assert "t=10 s" in _usage_error_line(capsys)
    # A negative warm-up would stretch the rate window past the run.
    assert main(["table9", "--duration", "60", "--warmup", "-20"]) == 2
    assert "warmup must be >= 0" in _usage_error_line(capsys)


def test_sweep_horizon_before_measurement_start_returns_2(tmp_path, capsys):
    jobs = tmp_path / "jobs"
    assert main(["sweep", "table2", "--duration", "5",
                 "--job-dir", str(jobs),
                 "--cache-dir", str(tmp_path / "cache")]) == 2
    assert "t=50 s" in _usage_error_line(capsys)
    assert not jobs.exists()  # no journal for a job that can never run


def test_snapshot_default_horizon_before_measurement_start_returns_2(
    tmp_path, capsys
):
    # --at 50 makes the warming run 60 s; Table 8 measures from 120 s.
    store = tmp_path / "snaps"
    assert main(["snapshot", "table8", "--store", str(store)]) == 2
    assert "t=120 s" in _usage_error_line(capsys)
    assert not store.exists()


def test_snapshot_nonpositive_jobs_returns_2(tmp_path, capsys):
    store = tmp_path / "snaps"
    assert main(["snapshot", "table9", "--jobs", "0",
                 "--store", str(store)]) == 2
    assert "--jobs must be >= 1" in _usage_error_line(capsys)
    assert not store.exists()


def test_non_finite_warm_start_time_returns_2(tmp_path, capsys):
    store = tmp_path / "store"
    assert main(["table9", "--duration", "20", "--warmup", "2",
                 "--warm-start", f"{store}@nan"]) == 2
    assert "warm-start time must be a finite number" in _usage_error_line(capsys)
    assert main(["snapshot", "table9", "--at", "nan", "--duration", "30",
                 "--store", str(store)]) == 2
    assert "--at must be a finite number" in _usage_error_line(capsys)
    assert not store.exists()


def test_jobs_flag_produces_identical_output_to_serial(capsys):
    argv = ["table9", "--duration", "30", "--warmup", "5",
            "--seeds", "0,1", "--digest"]
    main(argv + ["--jobs", "1"])
    serial = capsys.readouterr().out
    main(argv + ["--jobs", "2"])
    parallel = capsys.readouterr().out

    def stable(text):  # drop the wall-clock summary line
        return [line for line in text.splitlines() if "wall" not in line]

    assert stable(serial) == stable(parallel)
    assert "jobs=2" in parallel


def test_cache_dir_flag_reuses_results(tmp_path, capsys):
    argv = ["table9", "--duration", "30", "--warmup", "5",
            "--cache-dir", str(tmp_path)]
    main(argv)
    first = capsys.readouterr().out
    assert "cache: 0 hits / 1 misses" in first
    main(argv)
    second = capsys.readouterr().out
    assert "cache: 1 hits / 0 misses" in second
    assert "1 cached" in second


@pytest.mark.parametrize("bad", ["0", "-1", "abc", "nan", "inf"])
def test_malformed_metrics_interval_returns_2(bad, capsys):
    assert main(["table9", "--metrics", "--metrics-interval", bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith("macaw-sim:")
    assert "--metrics-interval" in err


def test_metrics_flag_reports_series_summary(capsys):
    code = main(["table9", "--duration", "8", "--warmup", "1", "--metrics"])
    out = capsys.readouterr().out
    assert code in (0, 1)  # paper checks are noisy at 8 s; metrics are not
    assert "metrics:" in out
    assert "series collected" in out


def test_metrics_out_writes_jsonl_per_cell(tmp_path, capsys):
    out_dir = tmp_path / "runs"
    code = main(["table9", "--duration", "8", "--warmup", "1",
                 "--seeds", "2", "--metrics-out", str(out_dir)])
    assert code in (0, 1)
    files = sorted(p.name for p in out_dir.glob("*.jsonl"))
    assert files == ["table9_seed0.metrics.jsonl", "table9_seed1.metrics.jsonl"]

    from repro.obs.export import load_jsonl

    loaded = load_jsonl(out_dir / files[0])
    assert loaded["meta"]["exp"] == "table9"
    assert loaded["meta"]["seed"] == 0
    names = {s["name"] for s in loaded["series"]}
    assert "chan.busy_frac" in names
    assert "mac.backoff" in names
    assert "metrics:" in capsys.readouterr().out


def test_metrics_out_jsonl_feeds_aggregate(tmp_path, capsys):
    out_dir = tmp_path / "runs"
    main(["table9", "--duration", "8", "--warmup", "1",
          "--seeds", "2", "--metrics-out", str(out_dir)])
    capsys.readouterr()

    from repro.obs.aggregate import main as aggregate_main

    paths = [str(p) for p in sorted(out_dir.glob("*.jsonl"))]
    bands_path = tmp_path / "bands.json"
    assert aggregate_main(paths + ["-o", str(bands_path)]) == 0
    assert bands_path.exists()


def test_metrics_off_by_default(capsys):
    main(["table9", "--duration", "8", "--warmup", "1"])
    assert "metrics:" not in capsys.readouterr().out


# ----------------------------------------------------------------- chaos
def test_chaos_list_names_every_preset(capsys):
    assert main(["chaos", "--list"]) == 0
    out = capsys.readouterr().out
    for name in ("noise-burst", "churn", "churn-light", "flaky-links"):
        assert name in out


def test_chaos_unknown_preset_returns_2(capsys):
    assert main(["chaos", "meteor-strike"]) == 2
    err = capsys.readouterr().err
    assert "meteor-strike" in err and "noise-burst" in err


def test_chaos_without_schedule_returns_2(capsys):
    assert main(["chaos"]) == 2
    assert "needs a preset" in capsys.readouterr().err


def test_chaos_faults_and_preset_are_mutually_exclusive(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text('{"events": []}')
    assert main(["chaos", "noise-burst", "--faults", str(spec)]) == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_chaos_negative_warmup_returns_2(capsys):
    assert main(["chaos", "noise-burst", "--duration", "5",
                 "--warmup", "-1"]) == 2
    assert "warmup must be >= 0" in _usage_error_line(capsys)


def test_chaos_runs_a_degradation_report(capsys):
    assert main(["chaos", "noise-burst", "--duration", "40",
                 "--warmup", "10"]) == 0
    out = capsys.readouterr().out
    for protocol in ("macaw", "maca", "csma"):
        assert protocol in out
    assert "faults injected:" in out and "burst_noise" in out


def test_experiment_accepts_faults_spec_file(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(
        '{"events": [{"kind": "burst_noise", "start": 2.0, "end": 4.0,'
        ' "error_rate": 0.3, "receivers": null}]}'
    )
    code = main(["table9", "--duration", "8", "--warmup", "1",
                 "--faults", str(spec)])
    capsys.readouterr()
    assert code in (0, 1)  # checks may be noisy under faults at 8 s


def test_experiment_rejects_unreadable_faults_spec(capsys, tmp_path):
    assert main(["table9", "--faults", str(tmp_path / "missing.json")]) == 2
    assert "cannot read --faults spec" in capsys.readouterr().err


def test_sweep_without_experiments_returns_2(capsys, tmp_path):
    assert main(["sweep", "--job-dir", str(tmp_path)]) == 2
    assert "needs experiment ids" in capsys.readouterr().err


def test_sweep_unknown_experiment_returns_2(capsys, tmp_path):
    assert main(["sweep", "table99", "--job-dir", str(tmp_path)]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_sweep_seeds_and_adaptive_conflict(capsys, tmp_path):
    code = main(["sweep", "table9", "--seeds", "2", "--adaptive",
                 "--epsilon", "1", "--job-dir", str(tmp_path)])
    assert code == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_sweep_adaptive_requires_epsilon(capsys, tmp_path):
    assert main(["sweep", "table9", "--adaptive",
                 "--job-dir", str(tmp_path)]) == 2
    assert "requires --epsilon" in capsys.readouterr().err


def test_sweep_resume_rejects_spec_flags(capsys, tmp_path):
    code = main(["sweep", "table9", "--resume", "abc",
                 "--job-dir", str(tmp_path)])
    assert code == 2
    assert "takes no spec flags" in capsys.readouterr().err


def test_sweep_resume_unknown_job_returns_2(capsys, tmp_path):
    code = main(["sweep", "--resume", "ffffffffffff",
                 "--job-dir", str(tmp_path)])
    assert code == 2
    assert "no job matching" in capsys.readouterr().err
