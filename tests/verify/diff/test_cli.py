"""``macaw-sim diff`` / ``macaw-sim fuzz`` front doors: exit codes + repro."""

from repro.cli import main
from repro.verify.diff.fuzz import load_repro


def test_diff_unknown_experiment_exits_2(capsys):
    assert main(["diff", "no-such-experiment"]) == 2
    assert "no-such-experiment" in capsys.readouterr().err


def test_diff_unknown_queue_exits_2(capsys):
    assert main(["diff", "table2", "--queues", "bogus"]) == 2
    assert "bogus" in capsys.readouterr().err


def test_diff_horizon_before_measurement_start_exits_2(tmp_path, capsys):
    out = tmp_path / "repro.json"
    assert main(["diff", "table8", "--duration", "60", "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("macaw-sim: ") and "\n" not in err, err
    assert "t=120 s" in err
    assert not out.exists()


def test_diff_duplicate_seeds_run_once(capsys):
    code = main(["diff", "table9", "--seeds", "0,0", "--duration", "20",
                 "--warmup", "5"])
    captured = capsys.readouterr()
    assert code == 0
    assert "diff: 1 cell(s)" in captured.out
    assert "contains duplicates" in captured.err


def test_fuzz_bad_seed_exits_2(capsys):
    assert main(["fuzz", "--seed", "nope"]) == 2
    assert "from-run-id" in capsys.readouterr().err


def test_fuzz_bad_budget_exits_2(capsys):
    assert main(["fuzz", "--budget", "0"]) == 2
    assert "budget" in capsys.readouterr().err


def test_fuzz_clean_budget_smoke(capsys):
    code = main(["fuzz", "--budget", "1", "--seed", "3", "--duration", "4",
                 "--quiet"])
    assert code == 0
    assert "passed the mode matrix clean" in capsys.readouterr().out


def test_fuzz_seed_from_run_id(monkeypatch, capsys):
    monkeypatch.setenv("GITHUB_RUN_ID", "123")
    code = main(["fuzz", "--budget", "1", "--seed", "from-run-id",
                 "--duration", "4", "--quiet"])
    assert code == 0
    assert "seed 123" in capsys.readouterr().out


def test_diff_cli_localizes_and_writes_repro(tmp_path, perturb_queue, capsys):
    out = tmp_path / "repro.json"
    code = main([
        "diff", "table2", "--duration", "6", "--warmup", "1",
        "--queues", f"heap,{perturb_queue}", "--out", str(out),
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert "DIVERGENCE" in captured.err
    assert "first divergent event" in captured.out

    payload = load_repro(str(out))
    assert payload["kind"] == "experiment"
    assert payload["exp_id"] == "table2"
    assert payload["mode_b"]["queue"] == perturb_queue
    assert payload["divergence"]["event_index"] >= 0
    assert payload["divergence"]["record_a"] != payload["divergence"]["record_b"]
