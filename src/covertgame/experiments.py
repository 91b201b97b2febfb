"""Tradeoff studies: beta sweeps, fixed-strategy baselines, curve comparison.

A sweep re-solves the game across covertness weights and records one
(rate, P_FA, P_M) point per weight; the beta-independent payoff parts are
built once per scenario so a sweep costs little more than its LP solves.
Baselines fix the transmitter strategy (uniform over k levels, or constant)
and let the detector pick the single best threshold by exhaustive scan.
The exact rate/covertness frontier that they are checked against is also
traced by re-solving the game, at weights picked by a chord search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .detection import MixedStrategy
from .lpsolve import InfeasibleError
from .matrixgame import EquilibriumSolution, PayoffMatrix, build_payoff, solve_game
from .model import Scenario, decimal_range, default_scenario, prune_negative_rate

__all__ = [
    "TradeoffPoint",
    "BaselineResult",
    "DominanceEntry",
    "default_beta_grid",
    "desk_scenario",
    "beta_sweep",
    "uniform_baseline",
    "constant_baseline",
    "frontier_rate",
    "max_guaranteed_dep",
    "dominance_check",
]

# A frontier solve that clears its bracket's chord by no more than this ends
# the search: the chord is then the frontier.
_CHORD_TOL = 1e-12

# Roundoff of a unit-scaled dep guarantee: one this close to the level meets
# it, and a level this far past the largest guaranteeable one is still met.
_ROUNDOFF = 1e-14

# Largest shortfall of the game's rate below a baseline's that still counts
# as dominance.
_DOMINANCE_TOL = 1e-9


def default_beta_grid() -> tuple[float, ...]:
    """25 log-spaced covertness weights from 0.1 (rate-greedy) to 20 (covert)."""
    return tuple(float(b) for b in np.geomspace(0.1, 20.0, 25))


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

    @classmethod
    def from_solution(cls, payoff: PayoffMatrix, solution: EquilibriumSolution) -> "TradeoffPoint":
        """The point of a game solved on ``payoff``, its rates read from the cell table."""
        pfa_val, pm_val = payoff.error_rates(solution.row_strategy, solution.col_strategy)
        return cls(
            beta=payoff.beta,
            expected_rate=payoff.expected_rate(solution.row_strategy),
            pfa=pfa_val,
            pm=pm_val,
            dep=pfa_val + pm_val,
            game_value=solution.value,
            row_strategy=solution.row_strategy,
            col_strategy=solution.col_strategy,
        )


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


def beta_sweep(s: Scenario, betas=None) -> list[TradeoffPoint]:
    """Solve the game across covertness weights; one TradeoffPoint each.

    Pruning and the gamma-function work happen once; each weight only
    reassembles payoff entries and runs the LP.
    """
    betas = default_beta_grid() if betas is None else tuple(float(b) for b in betas)
    if not betas or any(b <= 0.0 for b in betas):
        raise ValueError("betas must be a nonempty sequence of positive weights")
    payoff = build_payoff(prune_negative_rate(s))
    return [TradeoffPoint.from_solution(p, solve_game(p)) for p in map(payoff.with_beta, betas)]


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
    m = int(np.argmin(x @ payoff.dep_terms[rows]))
    return BaselineResult(
        label=label,
        parameter=parameter,
        row_strategy=strategy,
        best_threshold=payoff.scenario.threshold_grid[m],
        expected_rate=payoff.expected_rate(strategy, rows),
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


def frontier_rate(payoff: PayoffMatrix, dep_level: float) -> float:
    """Best expected rate with detection error guaranteed at least dep_level.

    That is max { x.rate : min_j (x.h)_j >= 0 } over mixtures x, where
    h_j = (dep_j - dep_level) / s_j is each threshold's dep column shifted
    by the level and scaled by its largest magnitude s_j, so that dep
    values far below the game LP's tolerance still count.  A dichotomic
    chord search (Aneja & Nair 1979) brackets t = 0 on the concave curve of
    rate against t = min_j (x.h)_j between the loudest action and the
    equilibrium on h, solving the game rate + beta * h at each chord slope
    until no solve rises above the chord.  Raises InfeasibleError when
    dep_level exceeds the largest guaranteeable value by more than roundoff.
    """
    level = float(dep_level)
    rates, h = payoff.rate_terms, payoff.dep_terms - level
    span = np.abs(h).max(axis=0)
    h /= np.where(span > 0, span, 1.0)
    quiet = solve_game(h)
    if quiet.value < -_ROUNDOFF:
        raise InfeasibleError(f"dep level {level!r} exceeds the largest guaranteeable value")
    loud, x = int(np.argmax(rates)), quiet.row_strategy.prob_array()
    t_a, r_a = float(h[loud].min()), float(rates[loud])
    t_b, r_b = float((x @ h).min()), float(x @ rates)  # guarantee and rate of x
    t = min(0.0, t_b)  # below 0 only by roundoff, as the value passed above
    if t_a >= t - _ROUNDOFF:
        return r_a
    while r_a > r_b:  # a flat bracket is already the frontier
        beta = (r_a - r_b) / (t_b - t_a)
        # Scaled by 1 / (1 + beta) so that entries stay O(1) when beta is large.
        game = (rates[:, None] + beta * h) / (1.0 + beta)
        x = solve_game(game).row_strategy.prob_array()
        t_x, r_x = float((x @ h).min()), float(x @ rates)
        if (r_x - r_a) + beta * (t_x - t_a) <= _CHORD_TOL:
            break
        if t_x >= t - _ROUNDOFF:
            t, t_b, r_b = min(t, t_x), t_x, r_x
        else:
            t_a, r_a = t_x, r_x
    return r_a + (r_b - r_a) * (t - t_a) / (t_b - t_a)


def max_guaranteed_dep(payoff: PayoffMatrix) -> float:
    """Largest detection error the transmitter can force from a best detector.

    The right-hand end of the frontier's feasible range: what the row
    strategy of the game played on the dep entries alone forces from any
    threshold.  That guarantee is proved by the strategy itself, where the
    game's LP value can overstate it when detection errors are tiny.
    """
    x = solve_game(payoff.dep_terms).row_strategy.prob_array()
    return float((x @ payoff.dep_terms).min())


def dominance_check(payoff: PayoffMatrix,
                    baselines: list[BaselineResult]) -> tuple[DominanceEntry, ...]:
    """Compare baselines against the game's frontier at matched dep.

    Each baseline is paired with ``frontier_rate`` at its own dep value, the
    best rate any transmitter mixture can guarantee there.  Raises
    AssertionError if any baseline earns more than _DOMINANCE_TOL above that
    rate; otherwise returns one DominanceEntry per baseline, in order.
    """
    if not baselines:
        raise ValueError("no baseline points to compare")
    entries = tuple(DominanceEntry(label=b.label, parameter=b.parameter, baseline_dep=b.dep,
                                   baseline_rate=b.expected_rate,
                                   game_rate=frontier_rate(payoff, b.dep))
                    for b in baselines)
    worst = min(entries, key=lambda e: e.advantage)
    if worst.advantage < -_DOMINANCE_TOL:
        raise AssertionError(
            f"{worst.label}({worst.parameter:g}) earns "
            f"{-worst.advantage:.6f} bits/use above the game curve "
            f"at dep {worst.baseline_dep:.4f}"
        )
    return entries
