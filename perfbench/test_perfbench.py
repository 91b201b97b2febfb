"""Tests of the benchmark itself, on grids small enough to run in seconds."""

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import covertgame
from perfbench import bench, golden, workloads
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = ["--set", "power_grid=0.2:0.2:1.0", "--set", "threshold_grid=0:0.5:3"]


def tiny_pass(rng):
    """The tradeoff pass's op kinds on 5-power, 7-threshold grids."""
    scenario = replace(covertgame.default_scenario(False),
                       power_grid=(0.2, 0.4, 0.6, 0.8, 1.0),
                       threshold_grid=(0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0))
    return [
        workloads.cli_solve(TINY, "solve"),
        workloads.cli_simulate(TINY, "solve", 2000, rng.randrange(2 ** 63), "simulate"),
        workloads.cli_sweep(TINY, ["0.5", "2"], "sweep"),
        workloads.cli_baseline(TINY, "baseline"),
        workloads.frontier(scenario, [0.2, 0.5, 0.9]),
    ]


def _bindings():
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if name == "covertgame" or name.startswith("covertgame.")
            for attr, value in vars(module).items() if callable(value)}


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_metric_with_its_unit(trace, section, monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", tiny_pass)
    monkeypatch.setattr(bench, "SETUP_RUNS", 1)
    monkeypatch.setattr(bench, "WORK", tmp_path)
    # The golden commands run full-size presets; their own test is below.
    monkeypatch.setattr(bench, "run_correctness_phase", lambda work: [])
    code = bench.main(["--workload", "tiny", "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 5 * (1 + trace)
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert sorted(tmp_path.iterdir()) == ([tmp_path / "trace-tiny.json"] if trace else [])


def test_tracer_restores_every_binding_even_on_error():
    before = _bindings()
    payoff_args = replace(covertgame.default_scenario(False), power_grid=(0.5, 1.0),
                          threshold_grid=(0.0, 1.0, 2.0))
    with pytest.raises(RuntimeError, match="boom"):
        with Tracer() as tracer:
            assert covertgame.detection.pm_grid is not before[("covertgame.detection", "pm_grid")]
            assert covertgame.matrixgame.dep_grid is not before[("covertgame.matrixgame", "dep_grid")]
            covertgame.solve_game(covertgame.build_payoff(covertgame.prune_negative_rate(payoff_args)))
            raise RuntimeError("boom")
    assert _bindings() == before
    layers = {span[0] for span in tracer.spans}
    assert {"specfun", "detection", "rate", "model", "matrixgame", "lpsolve"} <= layers
    # dep_grid's gamma calls nest under it, so detection self time excludes them.
    assert any(span[0] == "specfun" and tracer.spans[span[4]][0] == "detection"
               for span in tracer.spans)


def test_module_with_missing_wrap_point_is_unmeasured(monkeypatch):
    monkeypatch.setattr(covertgame.detection, "__all__",
                        [n for n in covertgame.detection.__all__ if n != "pfa_grid"])
    scenario = replace(covertgame.default_scenario(False), power_grid=(0.5, 1.0),
                       threshold_grid=(0.0, 1.0, 2.0))
    with Tracer() as tracer:
        covertgame.solve_game(covertgame.build_payoff(covertgame.prune_negative_rate(scenario)))
    assert set(tracer.unmeasured) == {"detection"}
    metrics = tracer.layer_metrics(1, 0.0)
    assert not any(name.startswith("detection.") for name in metrics)
    assert metrics["specfun.points"][0] > 0


def test_failed_op_is_counted_and_the_pass_carries_on(tmp_path):
    def failing_pass(rng):
        return [workloads.cli_solve([*TINY, "--set", "beta=-1"], "bad"),
                workloads.cli_solve(TINY, "good")]
    samples = bench.run_passes(failing_pass, "t", 0, 0.0, None, tmp_path / "passes")
    assert (samples["attempted"], samples["failed"]) == (2, 1)
    assert len(samples["ops"]["solve"]) == 1


def test_correctness_phase_catches_a_tampered_byte(tmp_path):
    entry = golden.GOLDEN[0]
    assert golden.run_entry(entry, tmp_path) == []
    out = tmp_path / entry[0]
    target = out / "summary.txt"
    data = bytearray(target.read_bytes())
    data[-2] ^= 1
    target.write_bytes(bytes(data))
    assert any("summary.txt" in p and "manifest" in p for p in golden.check_outputs(out, entry[2]))
    # Re-recording the tampered hash in the manifest still misses the golden prefix.
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    manifest["outputs"]["summary.txt"] = "sha256:" + hashlib.sha256(bytes(data)).hexdigest()
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert any("golden d7f14fbe0c2c" in p for p in golden.check_outputs(out, entry[2]))


@pytest.mark.xfail(strict=True, raises=covertgame.matrixgame.GameSolveError,
                   reason="lpsolve loses accuracy on this desk jammer game (row_gap ~6e-7)")
def test_desk_jammer_game_at_beta_0_7626_verifies():
    """The defect that keeps a jammer workload out of this benchmark.

    About 1 in 200 desk jammer games with beta in [0.1, 20] fails
    verification or returns negative mass, so a 25-weight jammer sweep fails
    in roughly one pass in seven.  When this starts passing, add the jammer
    workload described in README.md and drop this test.
    """
    payoff = covertgame.build_payoff(covertgame.prune_negative_rate(covertgame.desk_scenario(True)))
    covertgame.solve_game(payoff.with_beta(0.7626))
