"""Tests for the command-line interface (`python -m repro`)."""

import pytest

from repro.__main__ import main


def test_targets_lists_all(capsys):
    assert main(["targets"]) == 0
    out = capsys.readouterr().out
    for name in ("demo", "susy", "hpl", "imb"):
        assert name in out


def test_run_demo_campaign(capsys):
    rc = main(["run", "--target", "demo", "--iterations", "15",
               "--nprocs", "2", "--nprocs-cap", "4"])
    out = capsys.readouterr().out
    assert "covered branches" in out
    assert rc in (0, 1)


def test_run_seq_demo_finds_bug(capsys):
    # seq_demo is sequential; wrap happens target-side via the mpi arg
    rc = main(["run", "--target", "seq_demo", "--iterations", "12",
               "--nprocs", "1", "--nprocs-cap", "2"])
    out = capsys.readouterr().out
    assert "assertion" in out     # the Fig. 1 bug at x == 100
    assert rc == 1                # bugs found → nonzero exit


def test_compare_variants(capsys):
    rc = main(["compare", "--target", "demo", "--iterations", "8",
               "--nprocs", "2", "--nprocs-cap", "4",
               "--variants", "R,Random"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "R" in out and "Random" in out and "of reachable" in out


def test_run_save_log_and_replay(capsys, tmp_path):
    log = tmp_path / "campaign.jsonl"
    rc = main(["run", "--target", "seq_demo", "--iterations", "12",
               "--nprocs", "1", "--nprocs-cap", "2",
               "--save-log", str(log)])
    assert rc == 1 and log.exists()
    capsys.readouterr()

    rc = main(["replay", "--target", "seq_demo", "--log", str(log),
               "--bug", "0", "--nprocs", "1", "--nprocs-cap", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "reproduced: assertion" in out
    assert "'x': 100" in out


def test_replay_bug_index_out_of_range(capsys, tmp_path):
    import pytest as _pytest

    log = tmp_path / "campaign.jsonl"
    main(["run", "--target", "seq_demo", "--iterations", "12",
          "--nprocs", "1", "--nprocs-cap", "2", "--save-log", str(log)])
    capsys.readouterr()
    with _pytest.raises(SystemExit):
        main(["replay", "--target", "seq_demo", "--log", str(log),
              "--bug", "99"])


def test_replay_empty_log(capsys, tmp_path):
    log = tmp_path / "empty.jsonl"
    log.write_text("")
    rc = main(["replay", "--target", "seq_demo", "--log", str(log)])
    assert rc == 0
    assert "no bugs" in capsys.readouterr().out


def test_unknown_target_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--target", "nope"])


@pytest.mark.parametrize("flag", ["--workers", "--speculation-width",
                                  "--speculation-depth"])
def test_run_rejects_retired_pool_flags(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--target", "demo", "--iterations", "1", flag, "2"])
    assert exc.value.code == 2  # argparse usage error, nothing ran
    assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["--solver-cache"], ["--no-solver-cache"],
                                  ["--solver-cache-path", "c.jsonl"]])
def test_run_rejects_retired_solver_cache_flags(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--target", "demo", "--iterations", "1", *args])
    assert exc.value.code == 2  # argparse usage error, nothing ran
    assert f"unrecognized arguments: {' '.join(args)}" in \
        capsys.readouterr().err


def test_retired_cache_subcommand_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cache", "stats", "--path", "c.jsonl"])
    assert exc.value.code == 2
    assert "invalid choice: 'cache'" in capsys.readouterr().err


def test_unknown_variant_rejected():
    with pytest.raises(SystemExit):
        main(["compare", "--target", "demo", "--variants", "R,bogus"])


def test_run_unrecoverable_error_exits_2(capsys, monkeypatch):
    import repro.__main__ as cli

    def explode(name):
        raise RuntimeError("instrumentation backend fell over")

    monkeypatch.setattr(cli, "load_target", explode)
    rc = main(["run", "--target", "demo", "--iterations", "1"])
    assert rc == 2
    assert "unrecoverable error" in capsys.readouterr().err


def test_fleet_cli_run_status_report(capsys, tmp_path):
    import json

    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({
        "fleet": "cli-smoke",
        "matrix": {"target": ["seq_demo"]},
        "shard": {"iterations": 2},
        "failure": {"max_failures": 2, "backoff": 0.01},
        "workers": 1,
    }))
    root = tmp_path / "fleet"
    assert main(["fleet", "run", str(spec), "--dir", str(root)]) == 0
    out = capsys.readouterr().out
    assert "fleet report: cli-smoke" in out and "done" in out

    # re-running without --force refuses to clobber the sweep
    assert main(["fleet", "run", str(spec), "--dir", str(root)]) == 2
    capsys.readouterr()

    assert main(["fleet", "status", str(root)]) == 0
    assert "fleet status: cli-smoke" in capsys.readouterr().out

    assert main(["fleet", "report", str(root), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["counts"]["done"] == 1


def test_fleet_cli_bad_spec_exits_2(capsys, tmp_path):
    spec = tmp_path / "bad.json"
    spec.write_text("{not json")
    assert main(["fleet", "run", str(spec),
                 "--dir", str(tmp_path / "f")]) == 2
    assert "bad spec" in capsys.readouterr().err


def test_flags_map_to_config():
    import argparse

    from repro.__main__ import build_config

    ns = argparse.Namespace(seed=5, nprocs=2, nprocs_cap=4,
                            test_timeout=3.0, no_reduction=True,
                            one_way=True, no_framework=True)
    cfg = build_config(ns)
    assert cfg.seed == 5 and cfg.reduction is False
    assert cfg.two_way is False and cfg.framework is False
