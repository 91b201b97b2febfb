"""Tradeoff studies: beta sweeps, fixed-strategy baselines, curve comparison.

A sweep re-solves the game across covertness weights and records one
(rate, P_FA, P_M) point per weight; the beta-independent payoff parts are
built once per scenario so a sweep costs little more than its LP solves.
Baselines fix the transmitter strategy (uniform over k levels, or constant)
and let the detector pick the single best threshold by exhaustive scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .detection import MixedStrategy
from .lpsolve import LinearProgram, solve
from .matrixgame import GameSolveError, PayoffMatrix, build_payoff, solve_game
from .model import Scenario, decimal_range, default_scenario, prune_negative_rate
from .rate import expected_rate

__all__ = [
    "TradeoffPoint",
    "BaselineResult",
    "DominanceEntry",
    "DominanceReport",
    "default_beta_grid",
    "desk_scenario",
    "beta_sweep",
    "uniform_baseline",
    "constant_baseline",
    "frontier_rate",
    "max_guaranteed_dep",
    "dominance_check",
]


def default_beta_grid(count: int = 25, low: float = 0.1, high: float = 20.0) -> tuple[float, ...]:
    """Log-spaced covertness weights covering rate-greedy through covert."""
    return tuple(float(b) for b in np.geomspace(low, high, count))


def desk_scenario(with_jammer: bool = True) -> Scenario:
    """Coarse 0.05 mW power/jam grids for quick jammer studies.

    Thresholds keep their fine 0.01 step; everything else matches the
    reference configuration.
    """
    return replace(
        default_scenario(with_jammer),
        power_grid=decimal_range("0.05", "0.05", "1.00"),
        jam_grid=decimal_range("0", "0.05", "1.00") if with_jammer else (0.0,),
    )


@dataclass(frozen=True)
class TradeoffPoint:
    """One solved game on the rate / detection-error tradeoff curve."""

    beta: float
    expected_rate: float
    pfa: float
    pm: float
    dep: float
    game_value: float
    row_strategy: MixedStrategy
    col_strategy: MixedStrategy


@dataclass(frozen=True)
class BaselineResult:
    """A fixed transmitter strategy against the detector's best threshold."""

    label: str
    parameter: float
    row_strategy: MixedStrategy
    best_threshold: float
    expected_rate: float
    pfa: float
    pm: float

    @property
    def dep(self) -> float:
        return self.pfa + self.pm


def _point_from_solution(payoff: PayoffMatrix, solution) -> TradeoffPoint:
    pfa_val, pm_val = payoff.error_rates(solution.row_strategy, solution.col_strategy)
    return TradeoffPoint(
        beta=payoff.beta,
        expected_rate=expected_rate(payoff.scenario, solution.row_strategy),
        pfa=pfa_val,
        pm=pm_val,
        dep=pfa_val + pm_val,
        game_value=solution.value,
        row_strategy=solution.row_strategy,
        col_strategy=solution.col_strategy,
    )


def beta_sweep(s: Scenario, betas=None) -> list[TradeoffPoint]:
    """Solve the game across covertness weights; one TradeoffPoint each.

    Pruning and the gamma-function work happen once; each weight only
    reassembles payoff entries and runs the LP.
    """
    betas = default_beta_grid() if betas is None else tuple(float(b) for b in betas)
    if not betas or any(b <= 0.0 for b in betas):
        raise ValueError("betas must be a nonempty sequence of positive weights")
    payoff = build_payoff(prune_negative_rate(s))
    points = []
    for beta in betas:
        payoff_b = payoff.with_beta(beta)
        points.append(_point_from_solution(payoff_b, solve_game(payoff_b)))
    return points


def _zero_jam_rows(payoff: PayoffMatrix) -> list[tuple[int, float]]:
    rows = [(r, p) for r, (p, j) in enumerate(payoff.actions) if j == 0.0]
    if not rows:
        raise ValueError("baselines need surviving zero-jam actions")
    return rows


def _best_threshold_result(payoff: PayoffMatrix, label: str, parameter: float,
                           rows: list[int]) -> BaselineResult:
    """The detector's best single threshold against a uniform mix of table rows."""
    strategy = MixedStrategy.uniform(payoff.actions[r] for r in rows)
    pfa_cells, pm_cells = payoff.pfa_terms[rows], payoff.pm_terms[rows]
    x = strategy.prob_array()
    dep_by_thr = x @ (pfa_cells + pm_cells)
    m = int(np.argmin(dep_by_thr))
    return BaselineResult(
        label=label,
        parameter=parameter,
        row_strategy=strategy,
        best_threshold=payoff.thresholds[m],
        expected_rate=expected_rate(payoff.scenario, strategy),
        pfa=float(x @ pfa_cells[:, m]),
        pm=float(x @ pm_cells[:, m]),
    )


def uniform_baseline(payoff: PayoffMatrix, k: int) -> BaselineResult:
    """Uniform randomization over the first k grid powers, pruned levels out.

    Growing k from 2 toward the full grid traces a curve from the quiet,
    hard-to-detect end down to the rate-favoring end.  With the reference
    grids, k=2 degenerates to the single power 0.02 mW because 0.01 mW is
    pruned.  Jamming stays off and the detector answers with its single
    best threshold.  Cells are read from the payoff's table.
    """
    grid = payoff.scenario.power_grid
    if not 2 <= k <= len(grid):
        raise ValueError(f"uniform baseline needs 2 <= k <= {len(grid)}, got {k}")
    cutoff = grid[k - 1]
    rows = [r for r, p in _zero_jam_rows(payoff) if p <= cutoff + 1e-12]
    if not rows:
        raise ValueError(f"all of the first {k} power levels are pruned")
    return _best_threshold_result(payoff, "uniform", float(k), rows)


def constant_baseline(payoff: PayoffMatrix, power: float) -> BaselineResult:
    """A single fixed transmit power against the best single threshold."""
    matches = [(r, p) for r, p in _zero_jam_rows(payoff)
               if math.isclose(p, power, rel_tol=0.0, abs_tol=1e-9)]
    if not matches:
        raise ValueError(
            f"power {power} mW is not a surviving grid level (negative rate or off grid)"
        )
    row, level = matches[0]
    return _best_threshold_result(payoff, "constant", level, [row])


@dataclass(frozen=True)
class DominanceEntry:
    label: str
    parameter: float
    baseline_dep: float
    baseline_rate: float
    game_rate: float

    @property
    def advantage(self) -> float:
        return self.game_rate - self.baseline_rate


@dataclass(frozen=True)
class DominanceReport:
    entries: tuple[DominanceEntry, ...]

    def in_range(self, min_dep: float = 0.0,
                 max_dep: float = math.inf) -> tuple[DominanceEntry, ...]:
        picked = tuple(e for e in self.entries
                       if min_dep <= e.baseline_dep <= max_dep)
        if not picked:
            raise ValueError(
                f"no baseline points with dep in [{min_dep}, {max_dep}]")
        return picked

    def min_advantage(self, max_dep: float = math.inf) -> float:
        return min(e.advantage for e in self.in_range(max_dep=max_dep))


def frontier_rate(payoff: PayoffMatrix, dep_level: float) -> float:
    """Best expected rate with detection error guaranteed at least dep_level.

    Solves, over transmitter mixtures x, the program

        max  sum_i x_i rate_i
        s.t. sum_i x_i dep[i, j] >= dep_level   for every threshold j

    so the guarantee holds no matter which threshold the detector picks.
    This is the exact rate / covertness frontier: sampling it at a swept
    weight's equilibrium dep reproduces that equilibrium's rate.  Raises
    InfeasibleError when dep_level exceeds the largest guaranteeable value
    (see max_guaranteed_dep).
    """
    k, m = payoff.dep_terms.shape
    lhs = np.empty((m + 1, k))
    lhs[:m] = payoff.dep_terms.T
    lhs[m] = 1.0
    lp = LinearProgram(
        sense="max",
        objective=payoff.rate_terms,
        lhs=lhs,
        rhs=[float(dep_level)] * m + [1.0],
        kinds=[">="] * m + ["="],
        bounds=[(0.0, 1.0)] * k,
    )
    sol = solve(lp)
    if sol.status != "optimal":
        raise GameSolveError(f"frontier solve ended with status {sol.status}", lp, sol)
    return float(sol.objective)


def max_guaranteed_dep(payoff: PayoffMatrix) -> float:
    """Largest detection error the transmitter can force from a best detector.

    This is the value of the game played on the dep entries alone and the
    right-hand end of the frontier's feasible range.
    """
    return solve_game(payoff.dep_terms).value


def dominance_check(game_points: list[TradeoffPoint],
                    uniform_results: list[BaselineResult],
                    constant_results: list[BaselineResult],
                    payoff: PayoffMatrix | None = None,
                    tol: float = 1e-9) -> DominanceReport:
    """Compare both baseline families against the game curve at matched dep.

    Matching pairs each baseline with the game rate at its own dep value:
    by linear interpolation between the nearest sweep points (clamped at
    the swept ends), or, when the payoff is supplied, by the exact frontier
    program, which a coarse sweep cannot understate.  Raises AssertionError
    if any matched game rate falls more than tol below its baseline;
    returns the full comparison table.
    """
    if not game_points:
        raise ValueError("empty game curve")
    baselines = list(uniform_results) + list(constant_results)
    if not baselines:
        raise ValueError("no baseline points to compare")
    if payoff is None:
        order = np.argsort([p.dep for p in game_points])
        deps = np.asarray([game_points[i].dep for i in order])
        rates = np.asarray([game_points[i].expected_rate for i in order])
        match = lambda d: float(np.interp(d, deps, rates))
    else:
        match = lambda d: frontier_rate(payoff, d)
    entries = []
    for b in baselines:
        entries.append(DominanceEntry(
            label=b.label,
            parameter=b.parameter,
            baseline_dep=b.dep,
            baseline_rate=b.expected_rate,
            game_rate=match(b.dep),
        ))
    report = DominanceReport(entries=tuple(entries))
    worst = min(report.entries, key=lambda e: e.advantage)
    if worst.advantage < -tol:
        raise AssertionError(
            f"{worst.label}({worst.parameter:g}) earns "
            f"{-worst.advantage:.6f} bits/use above the game curve "
            f"at dep {worst.baseline_dep:.4f}"
        )
    return report
