"""Workloads: seeded inputs, the operations one pass runs, and per-op checks.

Every pass draws fresh inputs from its own random stream, so no two passes
of a run (or of runs with different seeds) repeat an input and a cache keyed
on whole inputs cannot hit.  Grid sizes never change between passes, which
keeps the cost of one pass comparable with the next.

Operations reach the package only through ``covertgame.cli.main(argv)`` and
the public functions ``build_payoff``, ``prune_negative_rate``,
``max_guaranteed_dep`` and ``frontier_rate``, each looked up at call time so
the tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import covertgame
import covertgame.cli

__all__ = [
    "Op",
    "OpFailed",
    "Timing",
    "WORKLOADS",
    "cli_solve",
    "cli_sweep",
    "cli_baseline",
    "cli_simulate",
    "frontier",
    "warm_up",
]

# Largest verification gap a solve may report in summary.txt.
GAP_TOL = 1e-8
# Monte Carlo |z| beyond this fails the op.  The CLI's own 3-sigma verdict
# misses about 0.5 % of correct runs (two z-scores per run); at 6 sigma a
# correct program misses about once in 2.5e8 runs.
Z_BOUND = 6.0
# Slack allowed when checking that frontier rates do not rise with dep.
FRONTIER_TOL = 1e-9


class OpFailed(Exception):
    """An operation returned, but its output failed a benchmark check."""


@dataclass(frozen=True)
class Timing:
    """Wall seconds and CPU seconds (user + system, this process) of one call.

    On a shared VM the wall time also holds the time the host ran other
    guests on this CPU (steal), and the CPU time does not.
    """

    wall_s: float
    cpu_s: float

    @classmethod
    def start(cls) -> "Timing":
        return cls(time.perf_counter(), time.process_time())

    def since(self) -> "Timing":
        """The time elapsed since this reading of both clocks."""
        now = Timing.start()
        return Timing(now.wall_s - self.wall_s, now.cpu_s - self.cpu_s)


@dataclass
class Op:
    """One timed operation of a pass.

    ``run(work)`` calls the program, times only that call and checks the
    output afterwards; it returns the call's Timing and may fill ``observed``.
    """

    kind: str
    run: Callable[["Op", Path], Timing]
    observed: dict = field(default_factory=dict)

    def __call__(self, work: Path) -> Timing:
        return self.run(self, work)


def _cli(argv: list[str], out: Path) -> tuple[Timing, int]:
    """Run one CLI command in-process; returns (its Timing, exit code)."""
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = Timing.start()
        code = covertgame.cli.main([*argv, "--out", str(out)])
        return t0.since(), code


def _key_values(path: Path) -> dict[str, str]:
    pairs = (line.split(" = ", 1) for line in path.read_text(encoding="utf-8").splitlines())
    return {k: v for k, v in pairs}


def _expect_exit(code: int, allowed=(0,)):
    if code not in allowed:
        raise OpFailed(f"exit code {code}")


def cli_solve(argv: list[str], name: str) -> Op:
    """``solve``; fails when summary.txt reports a gap above GAP_TOL."""
    def run(op: Op, work: Path) -> Timing:
        timing, code = _cli(["solve", *argv], work / name)
        _expect_exit(code)
        summary = _key_values(work / name / "summary.txt")
        gap = max(float(summary["row_gap"]), float(summary["col_gap"]))
        if not gap <= GAP_TOL:
            raise OpFailed(f"verification gap {gap:.3e} above {GAP_TOL:g}")
        return timing
    return Op("solve", run)


def cli_sweep(argv: list[str], betas: list[str], name: str) -> Op:
    """``sweep --betas``; fails unless one curve row comes back per weight."""
    def run(op: Op, work: Path) -> Timing:
        timing, code = _cli(["sweep", *argv, "--betas", ",".join(betas)], work / name)
        _expect_exit(code)
        rows = (work / name / "tradeoff.csv").read_text(encoding="utf-8").splitlines()[1:]
        if len(rows) != len(betas):
            raise OpFailed(f"{len(rows)} curve rows for {len(betas)} weights")
        return timing
    return Op("sweep", run)


def cli_baseline(argv: list[str], name: str) -> Op:
    """``baseline``; fails on a non-zero exit or an empty table."""
    def run(op: Op, work: Path) -> Timing:
        timing, code = _cli(["baseline", *argv], work / name)
        _expect_exit(code)
        rows = (work / name / "baseline.csv").read_text(encoding="utf-8").splitlines()[1:]
        if not rows:
            raise OpFailed("no baseline rows")
        return timing
    return Op("baseline", run)


def cli_simulate(argv: list[str], strategies: str, blocks: int, seed: int, name: str) -> Op:
    """``simulate`` fed the strategy files of the solve written to ``strategies``.

    Exit code 3 is the CLI's 3-sigma verdict and is not a failure here; the
    op fails only when a z-score leaves +-Z_BOUND.
    """
    def run(op: Op, work: Path) -> Timing:
        src = work / strategies
        timing, code = _cli(
            ["simulate", *argv, "--blocks", str(blocks), "--seed", str(seed),
             "--row-strategy", str(src / "row_strategy.csv"),
             "--col-strategy", str(src / "col_strategy.csv")],
            work / name,
        )
        _expect_exit(code, allowed=(0, 3))
        report = _key_values(work / name / "simulate.txt")
        z = max(abs(float(report["pfa_zscore"])), abs(float(report["pm_zscore"])))
        op.observed["max_abs_z"] = z
        if not z <= Z_BOUND:
            raise OpFailed(f"Monte Carlo |z| = {z:.2f} beyond {Z_BOUND:g}")
        return timing
    return Op("simulate", run)


def frontier(scenario, fractions: list[float]) -> Op:
    """Payoff, largest guaranteeable dep, then the frontier at each level.

    Levels are the given fractions (ascending) of ``max_guaranteed_dep``; the
    op fails if the best rate rises as the required dep rises.
    """
    def run(op: Op, work: Path) -> Timing:
        t0 = Timing.start()
        payoff = covertgame.build_payoff(covertgame.prune_negative_rate(scenario))
        top = covertgame.max_guaranteed_dep(payoff)
        rates = [covertgame.frontier_rate(payoff, f * top) for f in fractions]
        timing = t0.since()
        for lo, hi in zip(rates, rates[1:]):
            if hi > lo + FRONTIER_TOL:
                raise OpFailed(f"frontier rate rises from {lo!r} to {hi!r}")
        return timing
    return Op("frontier", run)


def _sigma(rng) -> str:
    """A fresh detector noise power in mW, as the decimal text the CLI parses.

    Each op draws its own, so no op's cell table equals another's and a
    cache shared between ops in this one process cannot hit.
    """
    return f"{rng.uniform(0.9, 1.1):.6f}"


def _noise(rng) -> list[str]:
    return ["--set", f"sigma_w_sq_mw={_sigma(rng)}"]


def _log_uniform(rng, low: float, high: float) -> float:
    return math.exp(rng.uniform(math.log(low), math.log(high)))


def _beta(rng) -> list[str]:
    return ["--set", f"beta={_log_uniform(rng, 1.0, 2.5):.6g}"]


def tradeoff_pass(rng) -> list[Op]:
    """No-jammer reference grids (99 x 301 after pruning), n = 200.

    Eight solves per pass, so each run holds enough short solve ops for a
    steady median.
    """
    solve_args = [[*_noise(rng), *_beta(rng)] for _ in range(8)]
    betas = [f"{b:.6g}" for b in sorted(_log_uniform(rng, 0.1, 20.0) for _ in range(25))]
    scenario = replace(covertgame.default_scenario(False), sigma_w_sq_mw=float(_sigma(rng)))
    return [
        *(cli_solve(args, f"solve{i}") for i, args in enumerate(solve_args)),
        cli_simulate(solve_args[0], "solve0", 1_000_000, rng.randrange(2 ** 63), "simulate"),
        cli_sweep(_noise(rng), betas, "sweep"),
        cli_baseline(_noise(rng), "baseline"),
        frontier(scenario, sorted(rng.uniform(0.05, 0.99) for _ in range(8))),
    ]


def long_block_pass(rng) -> list[Op]:
    """No-jammer reference grids at n = 2000: special functions dominate.

    Four solves per pass, so a pass outlasts half of ``run_seconds`` and
    each run is one pass.
    """
    return [cli_solve(["--set", "blocklength_n=2000", *_noise(rng), *_beta(rng)], f"solve{i}")
            for i in range(4)]


WORKLOADS: dict[str, Callable] = {
    "tradeoff": tradeoff_pass,
    "long-block": long_block_pass,
}


def warm_up():
    """Preset construction plus one first call through every layer.

    This is the work ``setup_s`` times in a fresh interpreter; the timed
    passes start after it.
    """
    presets = [covertgame.default_scenario(False), covertgame.desk_scenario(True),
               covertgame.default_scenario(True)]
    tiny = replace(presets[0], power_grid=(0.5, 1.0), threshold_grid=(0.0, 1.0, 2.0))
    covertgame.solve_game(covertgame.build_payoff(covertgame.prune_negative_rate(tiny)))
    covertgame.cli.build_parser()
    return presets
