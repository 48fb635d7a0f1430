"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import _parse_ratio, build_parser, main


def test_parse_ratio_forms():
    assert _parse_ratio("none") is None
    assert _parse_ratio("0") is None
    assert _parse_ratio("10") == 10.0
    assert _parse_ratio("1:20") == 20.0


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "sort" in out and "pythia" in out and "fig3" in out


def test_run_command_small(capsys):
    rc = main(
        ["run", "--workload", "sort", "--scale", "0.01", "--scheduler", "ecmp",
         "--ratio", "none", "--seed", "1"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "JCT" in out and "phase coverage" in out


def test_run_with_timeline(capsys):
    rc = main(
        ["run", "--workload", "toy-sort", "--scale", "1.0", "--timeline"]
    )
    assert rc == 0
    assert "legend" in capsys.readouterr().out


def test_compare_command(capsys):
    rc = main(
        ["compare", "--workload", "sort", "--scale", "0.01", "--ratio", "10",
         "--seeds", "1", "--schedulers", "ecmp", "pythia"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "ecmp" in out and "pythia" in out


def test_figure_fig1a(capsys):
    assert main(["figure", "fig1a"]) == 0
    assert "reduce-0" in capsys.readouterr().out


def test_bad_workload_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--workload", "hive-join"])


@pytest.mark.parametrize("scheduler", ["ecmp", "hedera"])
def test_forecast_mode_rejected_without_pythia(scheduler, capsys):
    """Only the Pythia scheduler consumes a forecaster; any other
    scheduler would silently run without it."""
    with pytest.raises(SystemExit) as exc:
        main(["run", "--workload", "sort", "--scale", "0.01",
              "--scheduler", scheduler, "--forecast-mode", "ar"])
    assert exc.value.code == 2
    assert "--scheduler pythia" in capsys.readouterr().err


def test_forecast_choices_follow_the_registry(monkeypatch):
    from repro.forecast.models import FORECASTERS

    monkeypatch.setitem(FORECASTERS, "naive", FORECASTERS["ewma"])
    parser = build_parser()
    assert parser.parse_args(["run", "--forecast-mode", "naive"]).forecast_mode == "naive"
    args = parser.parse_args(["forecast", "--modes", "naive", "--lead-time-mode", "naive"])
    assert args.modes == ["naive"] and args.lead_time_mode == "naive"
    defaults = parser.parse_args(["forecast"])
    assert defaults.modes == ["ewma", "ar"]
    assert defaults.lead_time_mode == "ar"


def test_run_with_export(tmp_path, capsys):
    out = tmp_path / "run.json"
    rc = main(
        ["run", "--workload", "sort", "--scale", "0.01", "--scheduler", "pythia",
         "--export", str(out)]
    )
    assert rc == 0
    assert out.exists()
    assert "measurements written" in capsys.readouterr().out


def test_sweep_command_cold_then_cached(tmp_path, capsys):
    argv = ["sweep", "--workload", "sort", "--scale", "0.01",
            "--ratios", "none", "10", "--seeds", "1",
            "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "ecmp (s)" in out and "pythia (s)" in out
    assert "8 executed" not in out  # 2 ratios x 2 schedulers x 1 seed = 4
    assert "4 executed" in out
    # the rerun is served from cache and passes the CI hit-rate guard
    assert main(argv + ["--min-cache-hit-rate", "0.9"]) == 0
    out = capsys.readouterr().out
    assert "4 from cache" in out and "0 executed" in out
    assert "hit rate 100%" in out


def test_sweep_hit_rate_guard_fails_cold(tmp_path, capsys):
    rc = main(["sweep", "--workload", "sort", "--scale", "0.01",
               "--ratios", "10", "--seeds", "1",
               "--cache-dir", str(tmp_path), "--min-cache-hit-rate", "0.9"])
    assert rc == 1
    assert "below required" in capsys.readouterr().err


def test_mix_command(capsys):
    rc = main(["mix", "--jobs", "2", "--ratio", "none", "--seed", "3",
               "--schedulers", "ecmp"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mean JCT" in out and "makespan" in out
