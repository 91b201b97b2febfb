"""End-to-end tests of the command-line interface."""

import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import covertgame
from covertgame import cli, detection, lpsolve, simkit, specfun
from covertgame.cli import main
from covertgame.matrixgame import build_payoff, solve_game
from covertgame.model import default_scenario, prune_negative_rate

SMALL_SCENARIO = """\
blocklength_n = 200
sigma_b_sq_mw = 1.0
sigma_w_sq_mw = 1.0
delta = 0.1
beta = 1.6
power_grid = 0.02, 0.1, 0.5, 1.0
threshold_grid = 0:0.25:3.00
"""


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "small.scenario"
    path.write_text(SMALL_SCENARIO, encoding="utf-8")
    return path


def count_gamma_calls(monkeypatch):
    """Route every reg_gamma_q_grid call through a wrapper; returns the list
    that records each call's point shape."""
    calls = []
    real = detection.reg_gamma_q_grid

    def counted(n, x):
        calls.append(x.shape)
        return real(n, x)

    for module in (specfun, detection):
        monkeypatch.setattr(module, "reg_gamma_q_grid", counted)
    return calls


def read_manifest(outdir):
    return json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))


def test_solve_writes_strategies_and_summary(tmp_path, scenario_file, capsys):
    out = tmp_path / "run"
    code = main(["solve", "--scenario", str(scenario_file), "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert printed.startswith("value ")
    assert "row support" in printed

    rows = (out / "row_strategy.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0] == "power_mw,jam_mw,probability"
    assert len(rows) >= 2
    cols = (out / "col_strategy.csv").read_text(encoding="utf-8").splitlines()
    assert cols[0] == "threshold_mw,probability"
    total = sum(float(line.split(",")[-1]) for line in rows[1:])
    assert total == pytest.approx(1.0, abs=1e-9)

    summary = dict(
        line.split(" = ")
        for line in (out / "summary.txt").read_text(encoding="utf-8").splitlines()
    )
    assert {"game_value", "expected_rate", "pfa", "pm", "dep",
            "row_gap", "col_gap", "rows", "cols", "lp_iterations"} <= set(summary)
    assert float(summary["dep"]) == pytest.approx(
        float(summary["pfa"]) + float(summary["pm"]), abs=1e-12)

    manifest = read_manifest(out)
    assert manifest["subcommand"] == "solve"
    assert manifest["scenario"]["source"] == str(scenario_file)
    assert set(manifest["outputs"]) == {
        "row_strategy.csv", "col_strategy.csv", "summary.txt", "scenario.txt"}
    for digest in manifest["outputs"].values():
        assert digest.startswith("sha256:")


def test_solve_reruns_byte_identical(tmp_path, scenario_file, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--scenario", str(scenario_file), "--out", str(out_a)]) == 0
    assert main(["solve", "--scenario", str(scenario_file), "--out", str(out_b)]) == 0
    capsys.readouterr()
    for name in ["row_strategy.csv", "col_strategy.csv", "summary.txt", "scenario.txt"]:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    ma, mb = read_manifest(out_a), read_manifest(out_b)
    ma.pop("created_utc"), mb.pop("created_utc")
    assert ma == mb


def test_solve_preset_without_flags_is_no_jammer(tmp_path, capsys):
    out = tmp_path / "preset"
    assert main(["solve", "--out", str(out)]) == 0
    capsys.readouterr()
    manifest = read_manifest(out)
    assert manifest["scenario"]["source"] == "preset:no-jammer"
    assert "jam_grid = 0.0" in manifest["scenario"]["text"]


def test_set_overrides_appear_in_manifest(tmp_path, scenario_file, capsys):
    out = tmp_path / "run"
    code = main(["solve", "--scenario", str(scenario_file),
                 "--set", "beta=2.0", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    manifest = read_manifest(out)
    assert manifest["scenario"]["overrides"] == {"beta": "2.0"}
    assert "beta = 2.0" in manifest["scenario"]["text"]


def test_bad_override_exits_2(tmp_path, scenario_file, capsys):
    out = tmp_path / "run"
    code = main(["solve", "--scenario", str(scenario_file),
                 "--set", "gamma=1", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "gamma" in err


def test_malformed_scenario_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.scenario"
    path.write_text(SMALL_SCENARIO + "snr = 3\n", encoding="utf-8")
    code = main(["solve", "--scenario", str(path), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("override, key", [
    ("beta=inf", "beta"),
    ("power_grid=0.1,Infinity", "power_grid"),
    ("alpha=nan", "alpha"),
    ("sigma_w_sq_mw=inf", "sigma_w_sq_mw"),
])
def test_non_finite_override_exits_2(tmp_path, capsys, override, key):
    code = main(["solve", "--set", override, "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and "finite" in err
    assert "pruning removed every action" not in err


def test_blocklength_beyond_accuracy_domain_exits_2(tmp_path, capsys):
    code = main(["solve", "--set", "blocklength_n=1000001", "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "blocklength_n must be at most 100000" in err


def test_delta_below_accuracy_domain_exits_2(tmp_path, capsys):
    # A subnormal delta used to solve with a slightly wrong rate.
    code = main(["solve", "--set", "delta=1e-322", "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "delta must lie in [2.2250738585072014e-308, 1)" in err


def test_oversized_grid_exits_2(tmp_path, capsys):
    code = main(["solve", "--set", "threshold_grid=0:0.25:1e308", "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "more than 100000 points" in err


@pytest.mark.parametrize("source", ["set", "file"])
@pytest.mark.parametrize("setting", ["threshold_grid=9e999999:1e999999:9.9e999999",
                                     "power_grid=1e999999999999:1:2"])
def test_grid_past_decimal_exponent_limit_exits_2(tmp_path, capsys, setting, source):
    # Decimal's exponent limit used to end these in an Overflow traceback.
    out = tmp_path / "x"
    if source == "set":
        argv = ["solve", "--set", setting]
    else:
        key, value = setting.split("=")
        path = tmp_path / "big.scenario"
        path.write_text("".join(f"{key} = {value}\n" if line.startswith(key) else f"{line}\n"
                                for line in SMALL_SCENARIO.splitlines()), encoding="utf-8")
        argv = ["solve", "--scenario", str(path)]
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: grid ") or err.startswith("error: empty grid"), err
    assert not out.exists()


def test_too_many_cells_exits_2_before_any_cell_is_built(tmp_path, capsys, monkeypatch):
    # 100,000 powers x 100,000 jam levels x 301 thresholds: pruning alone
    # would need tens of GiB.  The scenario is rejected before it runs.
    monkeypatch.setattr(cli, "prune_negative_rate", None)
    out = tmp_path / "x"
    code = main(["solve", "--set", "power_grid=0.00001:0.00001:1",
                 "--set", "jam_grid=0:0.00001:0.99999", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: the power, jam and threshold grids give 3010000000000 cells, " \
                  "more than 10000000\n"
    assert not out.exists()


def test_lp_error_exits_3_with_one_line(tmp_path, scenario_file, capsys, monkeypatch):
    def unbounded(lp):
        raise lpsolve.UnboundedError("no blocking bound or basic variable")

    monkeypatch.setattr(lpsolve, "solve", unbounded)
    out = tmp_path / "x"
    code = main(["solve", "--scenario", str(scenario_file), "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: UnboundedError")
    assert err.count("\n") == 1
    assert not out.exists()


def test_singular_basis_exits_3_with_one_line(tmp_path, scenario_file, capsys, monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    for name in ("inv", "solve"):
        monkeypatch.setattr(np.linalg, name, singular)
    out = tmp_path / "x"
    code = main(["solve", "--scenario", str(scenario_file), "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: GameSolveError: game LP")
    assert "status numerical-failure: basis matrix singular" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_infinite_rates_exit_3_quietly(tmp_path, capsys):
    # A subnormal receiver noise overflows every SNR, so every rate is
    # infinite: a reported numerical failure, not numpy warnings.
    out = tmp_path / "x"
    code = main(["solve", "--set", "sigma_b_sq_mw=1e-320", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: GameSolveError: payoff matrix has non-finite")
    assert err.count("\n") == 1
    assert not out.exists()


def test_python_dash_m_runs_the_cli(tmp_path, scenario_file):
    out = tmp_path / "run"
    src = str(Path(covertgame.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run(
        [sys.executable, "-m", "covertgame.cli", "solve", "--scenario", str(scenario_file),
         "--out", str(out)], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (out / "manifest.json").is_file()


def test_reused_parser_carries_nothing_between_calls(tmp_path, scenario_file, capsys):
    # main() builds its parser once per process.  A --set of one call, or a
    # call that failed, must not reach the next: each data file equals that
    # of the same command run alone in a fresh interpreter.
    src = str(Path(covertgame.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    scenario = ["--scenario", str(scenario_file)]
    runs = [("solve-beta", ["solve", *scenario, "--set", "beta=2.0"], 0),
            ("bad-set", ["solve", *scenario, "--set", "gamma=1"], 2),
            ("baseline", ["baseline", *scenario], 0),
            ("solve", ["solve", *scenario], 0)]
    for name, argv, code in runs:
        assert main([*argv, "--out", str(tmp_path / "same" / name)]) == code
    capsys.readouterr()
    for name, argv, code in runs:
        if code:
            continue
        fresh = tmp_path / "fresh" / name
        done = subprocess.run([sys.executable, "-m", "covertgame.cli", *argv, "--out", str(fresh)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        same = tmp_path / "same" / name
        ma, mb = read_manifest(same), read_manifest(fresh)
        ma.pop("created_utc"), mb.pop("created_utc")
        assert ma == mb
        for filename in ma["outputs"]:
            assert (same / filename).read_bytes() == (fresh / filename).read_bytes()
    assert "beta = 1.6" in (tmp_path / "same" / "solve" / "scenario.txt").read_text(encoding="utf-8")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("override", ["threshold_grid=0,1e308", "power_grid=1e300"])
def test_extreme_grid_values_solve_quietly(tmp_path, capsys, override):
    # n*t/s overflows to inf (Q = 0) and (1 + snr)^2 overflows (V = 1); both
    # are exact limits, so the solve succeeds without numpy warnings.
    code = main(["solve", "--set", override, "--out", str(tmp_path / "x")])
    assert code == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [
    ["solve"],
    ["sweep"],
    ["sweep", "--betas", "0.5,2.0"],
    ["baseline"],
    ["simulate", "--blocks", "100"],
])
def test_cell_grids_are_evaluated_once_per_scenario(tmp_path, scenario_file, capsys,
                                                    monkeypatch, argv):
    """P_FA and P_M cells come from one table, whatever the number of weights
    or baselines: at most one gamma-grid evaluation for each."""
    calls = count_gamma_calls(monkeypatch)
    code = main([*argv, "--scenario", str(scenario_file), "--out", str(tmp_path / "x")])
    assert code == 0
    capsys.readouterr()
    assert 1 <= len(calls) <= 2, calls


def test_missing_scenario_file_exits_2(tmp_path, capsys):
    code = main(["solve", "--scenario", str(tmp_path / "nope.scenario"),
                 "--out", str(tmp_path / "x")])
    assert code == 2
    capsys.readouterr()


def test_sweep_explicit_betas(tmp_path, scenario_file, capsys):
    out = tmp_path / "sweep"
    code = main(["sweep", "--scenario", str(scenario_file),
                 "--betas", "0.8,1.6,3.2", "--out", str(out)])
    assert code == 0
    assert "swept 3 weights" in capsys.readouterr().out
    lines = (out / "tradeoff.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "beta,expected_rate,pfa,pm,dep,game_value"
    assert len(lines) == 4
    manifest = read_manifest(out)
    assert manifest["betas"] == [0.8, 1.6, 3.2]
    assert manifest["betas_source"] == "explicit"
    deps = [float(line.split(",")[4]) for line in lines[1:]]
    assert deps == sorted(deps)


@pytest.mark.parametrize("betas", ["", ",,", " ", " , "],
                         ids=["empty", "commas", "blank", "blank-parts"])
def test_sweep_empty_betas_uses_default_grid(tmp_path, scenario_file, capsys, betas):
    # Blank parts are dropped; a list with none left runs the default grid.
    out = tmp_path / "sweep"
    code = main(["sweep", "--scenario", str(scenario_file),
                 "--betas", betas, "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    manifest = read_manifest(out)
    assert manifest["betas_source"] == "default"
    assert len(manifest["betas"]) == 25
    lines = (out / "tradeoff.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 26


def test_sweep_rejects_garbage_betas(tmp_path, scenario_file, capsys):
    out = tmp_path / "x"
    code = main(["sweep", "--scenario", str(scenario_file),
                 "--betas", "1.0,fast", "--out", str(out)])
    assert code == 2
    assert "--betas" in capsys.readouterr().err
    assert not out.exists()


def test_baseline_rows(tmp_path, scenario_file, capsys):
    out = tmp_path / "base"
    code = main(["baseline", "--scenario", str(scenario_file), "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    lines = (out / "baseline.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "label,parameter,best_threshold_mw,expected_rate,pfa,pm,dep"
    # 4 grid powers, all surviving: k = 2, 3, 4 uniforms plus 4 constants.
    labels = [line.split(",")[0] for line in lines[1:]]
    assert labels == ["uniform"] * 3 + ["constant"] * 4
    for line in lines[1:]:
        parts = line.split(",")
        assert float(parts[6]) == pytest.approx(
            float(parts[4]) + float(parts[5]), abs=1e-12)


def test_baseline_uniforms_start_at_the_first_surviving_power(tmp_path, capsys):
    def labels(argv, name):
        assert main(["baseline", *argv, "--out", str(tmp_path / name)]) == 0
        lines = (tmp_path / name / "baseline.csv").read_text(encoding="utf-8").splitlines()
        return [tuple(line.split(",")[:2]) for line in lines[1:]]

    # 0.01 mW is pruned and 0.02 mW survives: uniform(2) is 0.02 mW alone.
    rows = labels([], "default")
    assert rows[0] == ("uniform", "2") and rows[98] == ("uniform", "100")
    # At n = 100 the lowest survivor is 0.04 mW, the fourth grid power.
    rows = labels(["--set", "blocklength_n=100"], "n100")
    assert rows[0] == ("uniform", "4") and rows[97] == ("constant", "0.04")
    # No zero-jam action survives: an input error, and nothing written.
    out = tmp_path / "no-zero-jam"
    for argv in (["--set", "jam_grid=0.05,0.1"], ["--set", "power_grid=0.5", "--set", "jam_grid=0.05"]):
        assert main(["baseline", "--jammer", *argv, "--out", str(out)]) == 2
        assert "zero-jam" in capsys.readouterr().err
        assert not out.exists()


def test_simulate_solved_strategies(tmp_path, scenario_file, capsys):
    out = tmp_path / "sim"
    code = main(["simulate", "--scenario", str(scenario_file),
                 "--blocks", "4000", "--seed", "11", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "verdict = PASS (3 stderr)" in printed
    report = (out / "simulate.txt").read_text(encoding="utf-8")
    for key in ["pfa_analytic", "pfa_empirical", "pfa_stderr", "pfa_zscore",
                "pm_analytic", "pm_empirical", "pm_stderr", "pm_zscore"]:
        assert f"{key} = " in report
    manifest = read_manifest(out)
    assert manifest["options"] == {"blocks": 4000, "seed": 11,
                                   "strategies": "solved"}


def test_simulate_roundtrip_from_solve_output(tmp_path, scenario_file, capsys):
    solved = tmp_path / "solved"
    assert main(["solve", "--scenario", str(scenario_file),
                 "--out", str(solved)]) == 0
    out = tmp_path / "sim"
    code = main(["simulate", "--scenario", str(scenario_file),
                 "--row-strategy", str(solved / "row_strategy.csv"),
                 "--col-strategy", str(solved / "col_strategy.csv"),
                 "--blocks", "4000", "--seed", "2", "--out", str(out)])
    assert code == 0
    assert "strategies = files" in capsys.readouterr().out


def test_simulate_reads_both_rates_from_one_gamma_call(tmp_path, scenario_file, capsys,
                                                       monkeypatch):
    """Strategy files get their P_FA and P_M cells from one table: the
    kernel runs once for both rates, not once per rate."""
    solved = tmp_path / "solved"
    assert main(["solve", "--scenario", str(scenario_file), "--out", str(solved)]) == 0
    calls = count_gamma_calls(monkeypatch)
    code = main(["simulate", "--scenario", str(scenario_file),
                 "--row-strategy", str(solved / "row_strategy.csv"),
                 "--col-strategy", str(solved / "col_strategy.csv"),
                 "--blocks", "100", "--out", str(tmp_path / "sim")])
    assert code == 0
    capsys.readouterr()
    assert len(calls) == 1, calls


def test_simulate_strategy_flags_must_pair(tmp_path, scenario_file, capsys):
    code = main(["simulate", "--scenario", str(scenario_file),
                 "--row-strategy", "whatever.csv", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "together" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["rows", "cols"])
def test_malformed_strategy_file_is_named_and_nothing_is_written(tmp_path, scenario_file,
                                                                 capsys, bad):
    lines = {"rows": ["power_mw,jam_mw,probability", "0.02,0,1"],
             "cols": ["threshold_mw,probability", "0.25,1"]}
    lines[bad][1] = lines[bad][1][:-1] + "abc"
    paths = {name: tmp_path / f"{name}.csv" for name in lines}
    for name, (header, row) in lines.items():
        paths[name].write_text(f"{header}\n{row}\n", encoding="utf-8")
    out = tmp_path / "x"
    code = main(["simulate", "--scenario", str(scenario_file),
                 "--row-strategy", str(paths["rows"]), "--col-strategy", str(paths["cols"]),
                 "--blocks", "10", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {paths[bad]}: malformed row {lines[bad][1]!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("", "empty strategy file"),
    ("power,jam,probability\n0.02,0,1\n", "expected header power_mw,jam_mw,probability"),
], ids=["empty", "wrong-header"])
def test_strategy_file_without_its_header_exits_2(tmp_path, scenario_file, capsys, text,
                                                  message):
    rows, cols = tmp_path / "rows.csv", tmp_path / "cols.csv"
    rows.write_text(text, encoding="utf-8")
    cols.write_text("threshold_mw,probability\n0.25,1\n", encoding="utf-8")
    out = tmp_path / "x"
    code = main(["simulate", "--scenario", str(scenario_file), "--row-strategy", str(rows),
                 "--col-strategy", str(cols), "--blocks", "10", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {rows}: {message}\n"
    assert not out.exists()


def test_simulate_fail_verdict_reports_its_misses_and_writes(tmp_path, scenario_file, capsys):
    # One block per hypothesis: each empirical rate is 0 or 1 with a zero
    # standard error, so the check misses and both z-scores are huge.
    out = tmp_path / "sim"
    code = main(["simulate", "--scenario", str(scenario_file),
                 "--blocks", "1", "--seed", "0", "--out", str(out)])
    assert code == 3
    printed = capsys.readouterr().out
    assert "verdict = FAIL (3 stderr)" in printed
    report = dict(line.split(" = ")
                  for line in (out / "simulate.txt").read_text(encoding="utf-8").splitlines())
    assert report["verdict"] == "FAIL (3 stderr)"
    assert float(report["pfa_stderr"]) == float(report["pm_stderr"]) == 0.0
    assert abs(float(report["pfa_zscore"])) > 3 and abs(float(report["pm_zscore"])) > 3
    assert set(read_manifest(out)["outputs"]) == {"simulate.txt", "scenario.txt"}


def test_simulate_rejects_off_grid_strategy(tmp_path, scenario_file, capsys):
    rows = tmp_path / "rows.csv"
    rows.write_text("power_mw,jam_mw,probability\n0.33,0,1\n", encoding="utf-8")
    cols = tmp_path / "cols.csv"
    cols.write_text("threshold_mw,probability\n0.25,1\n", encoding="utf-8")
    code = main(["simulate", "--scenario", str(scenario_file),
                 "--row-strategy", str(rows), "--col-strategy", str(cols),
                 "--blocks", "10", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "not on the scenario grid" in capsys.readouterr().err


@pytest.mark.parametrize("prob", ["nan", "inf", "-inf"])
def test_simulate_rejects_non_finite_probability(tmp_path, scenario_file, capsys, prob):
    # A NaN row probability used to end in an IndexError traceback.
    rows = tmp_path / "rows.csv"
    rows.write_text(f"power_mw,jam_mw,probability\n0.02,0,{prob}\n1.0,0,1\n", encoding="utf-8")
    cols = tmp_path / "cols.csv"
    cols.write_text("threshold_mw,probability\n0.25,1\n", encoding="utf-8")
    code = main(["simulate", "--scenario", str(scenario_file),
                 "--row-strategy", str(rows), "--col-strategy", str(cols),
                 "--blocks", "10", "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "non-finite probability" in err


def test_simulate_zero_blocks_exits_2(tmp_path, scenario_file, capsys):
    code = main(["simulate", "--scenario", str(scenario_file),
                 "--blocks", "0", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "blocks" in capsys.readouterr().err


def test_simulate_too_many_blocks_exits_2_before_any_draw(tmp_path, scenario_file, capsys,
                                                          monkeypatch):
    def no_draws(seed, chunk_index):
        raise AssertionError("drew a chunk")

    monkeypatch.setattr(simkit, "_chunk_rng", no_draws)
    out = tmp_path / "x"
    code = main(["simulate", "--scenario", str(scenario_file),
                 "--blocks", "99999999999999999999", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == ("error: blocks must lie in [1, 10000000000], "
                                       "got 99999999999999999999\n")
    assert not out.exists()


@pytest.mark.parametrize("setting, message", [
    ("jam_grid=-1e-13,0.5", "jam_grid entries must be >= 0.0, got -1e-13"),
    ("threshold_grid=-1e-13,1,2", "threshold_grid entries must be >= 0.0, got -1e-13"),
    ("power_grid=4e-13,0.5",
     "power_grid entries must be > 0.0, got 4e-13 (rounds to 0.0 at 12 decimals)"),
    ("power_grid=0.1,0.1000000000001",
     "power_grid must be strictly increasing with no duplicates, "
     "got 0.1 then 0.1000000000001 (both round to 0.1 at 12 decimals)"),
])
def test_grid_values_are_checked_before_the_snap(tmp_path, capsys, setting, message):
    out = tmp_path / "x"
    assert main(["solve", "--set", setting, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_negative_zero_grid_values_are_stored_as_zero(tmp_path, capsys):
    runs = {}
    for zero in ("0", "-0"):
        out = tmp_path / f"run{zero}"
        assert main(["solve", "--set", f"jam_grid={zero},0.5", "--set", "alpha=1",
                     "--set", f"threshold_grid={zero},0.5,1,1.5,2,2.5,3", "--out", str(out)]) == 0
        runs[zero] = {name: (out / name).read_bytes()
                      for name in ("row_strategy.csv", "col_strategy.csv", "summary.txt",
                                   "scenario.txt")}
    assert runs["-0"] == runs["0"]
    assert b"-0" not in runs["-0"]["scenario.txt"]


def test_argparse_usage_errors(tmp_path, scenario_file, capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve", "--scenario", str(scenario_file)])  # no --out
    assert info.value.code == 2
    with pytest.raises(SystemExit):
        main(["unknown-command"])
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "covertgame" in capsys.readouterr().out


def test_summary_rate_is_read_from_the_table(monkeypatch):
    payoff = build_payoff(prune_negative_rate(default_scenario()))
    solution = solve_game(payoff)
    seen = {}
    monkeypatch.setattr(cli, "_key_values", lambda mapping: seen.update(mapping) or "")
    _, _, _, code = cli._cmd_solve(None, default_scenario())
    assert code == 0
    assert seen["expected_rate"] == payoff.expected_rate(solution.row_strategy)


# Override values: numbers, limits, non-finite and malformed text.  A grid
# triple either stays small (stop at most 10, step at least 0.25), passes
# the point cap of decimal_range, or reaches Decimal's exponent limit.
_NUMBER = st.one_of(
    st.sampled_from(["0", "-0", "1", "-1", "0.5", "1.6", "3", "200", "1e-320", "1e308",
                     "nan", "inf", "-Infinity", "abc", "", "0x10", "1_0"]),
    st.floats(0.0, 10.0).map(repr),
    st.floats().map(repr),
    st.integers(1, 3000).map(str),
)
_GRID = st.one_of(
    st.lists(_NUMBER, min_size=1, max_size=4).map(", ".join),
    st.tuples(st.sampled_from(["0", "0.5", "-1", "abc", "1e308", "9e999999", "1e999999999999"]),
              st.sampled_from(["0.25", "1", "0", "-1", "x", "1e-300", "1e999999"]),
              st.sampled_from(["0", "3", "10", "-2", "nan", "1e6", "1e308"])).map(":".join),
)
_SETTING = st.one_of(
    st.tuples(st.sampled_from(["blocklength_n", "sigma_b_sq_mw", "sigma_w_sq_mw", "delta",
                               "alpha", "beta", "bogus"]), _NUMBER).map("=".join),
    st.tuples(st.sampled_from(["power_grid", "jam_grid", "threshold_grid"]), _GRID).map("=".join),
    st.text(alphabet="ab=_ ", max_size=6),
)


@pytest.fixture(scope="module")
def small_scenario_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("set-property")
    (root / "small.scenario").write_text(SMALL_SCENARIO, encoding="utf-8")
    return root


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None, derandomize=True)
@given(command=st.sampled_from(["solve", "baseline"]),
       settings_=st.lists(_SETTING, min_size=1, max_size=2))
def test_random_overrides_exit_0_2_or_3(small_scenario_dir, command, settings_):
    argv = [command, "--scenario", str(small_scenario_dir / "small.scenario"),
            "--out", str(small_scenario_dir / "out")]
    for item in settings_:
        argv += ["--set", item]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects an option-like value
            code = exc.code
    assert code in (0, 2, 3), argv


@pytest.mark.parametrize("flags", [
    ["--full-grid"],
    ["--scenario", "SCENARIO", "--jammer"],
    ["--scenario", "SCENARIO", "--full-grid"],
    ["--scenario", "SCENARIO", "--jammer", "--full-grid"],
], ids=["full-grid-alone", "scenario-jammer", "scenario-full-grid", "scenario-both"])
@pytest.mark.parametrize("command", ["solve", "sweep", "baseline", "simulate"])
def test_preset_flags_that_choose_nothing_exit_2(tmp_path, scenario_file, capsys, command,
                                                 flags):
    # These used to be ignored: `solve --full-grid` solved the no-jammer preset.
    flags = [str(scenario_file) if f == "SCENARIO" else f for f in flags]
    out = tmp_path / "x"
    assert main([command, *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ("--jammer" in err or "--scenario" in err)
    assert not out.exists()


def test_strategy_grid_check_is_per_component(tmp_path):
    # The joint grid is the product of the power and jam grids: every pair
    # of grid values passes, and one component off its grid fails.
    s = covertgame.desk_scenario(True)
    rows = tmp_path / "rows.csv"
    pairs = [(p, j) for j in s.jam_grid for p in s.power_grid]
    rows.write_text("power_mw,jam_mw,probability\n" + "".join(
        f"{p!r},{j + 1e-10!r},{1 / len(pairs)!r}\n" for p, j in pairs), encoding="utf-8")
    strategy = cli._load_strategy_csv(str(rows), s, cli._ROW_HEADER)
    assert len(strategy.actions) == len(pairs) == 420
    for line in ("0.05,0.33,1", "0.33,0.05,1", "0.05,-1e-8,1"):
        rows.write_text(f"power_mw,jam_mw,probability\n{line}\n", encoding="utf-8")
        with pytest.raises(covertgame.ScenarioError, match="not on the scenario grid"):
            cli._load_strategy_csv(str(rows), s, cli._ROW_HEADER)
    rows.write_text("power_mw,jam_mw,probability\n", encoding="utf-8")
    with pytest.raises(covertgame.ScenarioError, match="at least one action"):
        cli._load_strategy_csv(str(rows), s, cli._ROW_HEADER)


def test_strategy_files_hold_each_grid_action_once(tmp_path):
    # A file names each grid action at most once: values within 1e-9 of the
    # same grid point are one action, so a repeat is an input error, and a
    # file with more rows than the grid has actions is refused unread.
    s = covertgame.desk_scenario(True)
    cols = tmp_path / "cols.csv"
    for body in ("0.25,0.5\n0.25,0.5\n", "0.25,0.5\n0.2500000005,0.5\n"):
        cols.write_text("threshold_mw,probability\n" + body, encoding="utf-8")
        with pytest.raises(covertgame.ScenarioError, match="repeat a grid point"):
            cli._load_strategy_csv(str(cols), s, cli._COL_HEADER)
    rows = tmp_path / "rows.csv"
    rows.write_text("power_mw,jam_mw,probability\n0.05,0.05,0.5\n0.05,0.1,0.5\n",
                    encoding="utf-8")
    assert len(cli._load_strategy_csv(str(rows), s, cli._ROW_HEADER).actions) == 2
    size = len(s.threshold_grid)
    cols.write_text("threshold_mw,probability\n" + "junk\n" * (size + 1), encoding="utf-8")
    with pytest.raises(covertgame.ScenarioError, match=f"{size + 1} actions, more than the"):
        cli._load_strategy_csv(str(cols), s, cli._COL_HEADER)


# Runs CLI argument lists in one child interpreter that limits its own
# address space to 3 GB, so an oversized allocation is a MemoryError there
# instead of memory taken from the host; prints each run's exit code, or
# the exception that escaped main().
_LIMITED_CHILD = """\
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
from covertgame.cli import main
codes = []
for argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
        except Exception as exc:
            codes.append(f"{type(exc).__name__}: {exc}"[:200])
print(json.dumps(codes))
"""


def _exit_codes_under_3_gb(argvs):
    src = str(Path(covertgame.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", _LIMITED_CHILD], input=json.dumps(argvs),
                          env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


def _random_strategy_file(rng, path, header, grids):
    """A strategy file of distinct on-grid actions (some 1e-9 off their
    point), half of the time with a few faults: off-grid or non-numeric
    values, a repeated action, a bad probability or header, too many rows."""
    points = list(itertools.product(*grids))
    actions = rng.sample(points, rng.randint(1, len(points)))
    probs = [repr(1.0 / len(actions))] * len(actions)
    lines = [[repr(v + rng.choice([0.0, 0.0, 5e-10, -5e-10])) for v in a] for a in actions]
    head = ",".join(header)
    for _ in range(rng.choice([0, 0, 0, 1, 2])):
        fault, row = rng.randrange(6), rng.randrange(len(lines))
        if fault == 0:
            lines[row][rng.randrange(len(grids))] = rng.choice(
                ["nan", "inf", "-inf", "1e308", "-1", "abc", "", repr(rng.uniform(0.0, 5.0))])
        elif fault == 1:
            lines.append(list(lines[row]))
            probs.append("0")
        elif fault == 2:
            probs[row] = rng.choice(["nan", "-0.5", "2", "0", "x"])
        elif fault == 3:
            head = rng.choice(["", "a,b", "probability", head + ",x"])
        elif fault == 4:
            lines += [list(lines[row]) for _ in range(len(points))]
            probs += ["0"] * len(points)
        else:
            probs[row] += ",1"
    body = "".join(",".join([*line, prob]) + "\n" for line, prob in zip(lines, probs))
    path.write_text(head + "\n" + body, encoding="utf-8")


def test_random_strategy_files_and_betas_exit_0_2_or_3_under_3_gb(tmp_path, scenario_file):
    # Strategy files and --betas, like --set above, end in exit 0, 2 or 3,
    # never in a traceback: also where a file would once have asked for a
    # huge table.  The last two runs are those: 100,000 distinct on-grid
    # thresholds (a 100000 x 100000 comparison, 74.5 GiB) and 3,000,000
    # rows of one threshold on the preset's 301-point grid (6.7 GiB).
    rng = random.Random(0)
    s = covertgame.load_scenario(scenario_file)
    common = ["--scenario", str(scenario_file)]
    argvs = []
    for i in range(40):
        rows, cols = tmp_path / f"rows{i}.csv", tmp_path / f"cols{i}.csv"
        _random_strategy_file(rng, rows, cli._ROW_HEADER, [s.power_grid, s.jam_grid])
        _random_strategy_file(rng, cols, cli._COL_HEADER, [s.threshold_grid])
        argvs.append(["simulate", *common, "--row-strategy", str(rows), "--col-strategy",
                      str(cols), "--blocks", "100", "--out", str(tmp_path / f"sim{i}")])
    words = ["1", "0.5", "20", "1e-300", "1e300", "1e308", "inf", "nan", "-1", "0", "abc", "",
             " 2 ", "1e999", "0x10"]
    for i in range(20):
        betas = ",".join(rng.choice(words) for _ in range(rng.randint(1, 4)))
        argvs.append(["sweep", *common, "--betas", betas, "--out", str(tmp_path / f"sw{i}")])
    rows = tmp_path / "one_row.csv"
    rows.write_text("power_mw,jam_mw,probability\n0.5,0,1\n", encoding="utf-8")
    wide, repeated = tmp_path / "wide.csv", tmp_path / "repeated.csv"
    wide.write_text("threshold_mw,probability\n" + "".join(
        f"{t / 10_000!r},1e-05\n" for t in range(100_000)), encoding="utf-8")
    repeated.write_text("threshold_mw,probability\n" + "1.0,3.3333333333333335e-07\n" * 3_000_000,
                        encoding="utf-8")
    for cols, grid in ((wide, ["--set", "threshold_grid=0:0.0001:9.9999"]), (repeated, [])):
        argvs.append(["simulate", *grid, "--row-strategy", str(rows), "--col-strategy", str(cols),
                      "--blocks", "1000", "--out", str(tmp_path / cols.stem)])
    codes = _exit_codes_under_3_gb(argvs)
    repeated.unlink()  # 78 MB: not worth keeping among pytest's last temp dirs
    assert [(a, c) for a, c in zip(argvs, codes) if c not in (0, 2, 3)] == []
    assert codes[-1] == 2 and codes[-2] in (0, 3)
    assert {0, 2} <= set(codes[:40]) and {0, 2} <= set(codes[40:60])
