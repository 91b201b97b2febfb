"""Tradeoff studies: beta sweeps, fixed-strategy baselines, the exact frontier.

A sweep re-solves the game across covertness weights and records one
(rate, P_FA, P_M) point per weight; the beta-independent payoff parts are
built once per scenario so a sweep costs little more than its LP solves.
Baselines fix the transmitter strategy (uniform over k levels, or constant)
and let the detector pick the single best threshold by exhaustive scan.
The exact rate/covertness frontier that they are checked against is also
traced by re-solving the game, at weights picked by a chord search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detection import MixedStrategy
from .lpsolve import InfeasibleError
from .matrixgame import EquilibriumSolution, PayoffMatrix, build_payoff, solve_game
from .model import Scenario, prune_negative_rate

__all__ = [
    "TradeoffPoint",
    "BaselineResult",
    "default_beta_grid",
    "beta_sweep",
    "uniform_baseline",
    "constant_baseline",
    "frontier_rate",
    "max_guaranteed_dep",
]

# A frontier solve that clears its bracket's chord by no more than this ends
# the search: the chord is then the frontier.
_CHORD_TOL = 1e-12

# Roundoff of a unit-scaled dep guarantee: one this close to the level meets
# it, and a level this far past the largest guaranteeable one is still met.
_ROUNDOFF = 1e-14


def default_beta_grid() -> tuple[float, ...]:
    """25 log-spaced covertness weights from 0.1 (rate-greedy) to 20 (covert)."""
    return tuple(float(b) for b in np.geomspace(0.1, 20.0, 25))


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
    levels = set(grid[:k])  # the payoff's powers are these very floats
    rows = [r for r, p in _zero_jam_rows(payoff) if p in levels]
    if not rows:
        raise ValueError(f"all of the first {k} power levels are pruned")
    return _best_threshold_result(payoff, "uniform", float(k), rows)


def constant_baseline(payoff: PayoffMatrix, power: float) -> BaselineResult:
    """A single fixed transmit power against the best single threshold.

    Takes the surviving grid power nearest to ``power``, which must lie
    within 1e-9 mW of it.
    """
    row, level = min(_zero_jam_rows(payoff), key=lambda rp: abs(rp[1] - power))
    if not abs(level - power) <= 1e-9:
        raise ValueError(
            f"power {power} mW is not a surviving grid level (negative rate or off grid)"
        )
    return _best_threshold_result(payoff, "constant", level, [row])


def frontier_rate(payoff: PayoffMatrix, dep_level: float) -> float:
    """Best expected rate with detection error guaranteed at least dep_level.

    That is max { x.rate : min_j (x.h)_j >= 0 } over mixtures x, where
    h_j = (dep_j - dep_level) / s_j is each threshold's dep column shifted
    by the level and scaled by its largest magnitude s_j, so that dep
    values far below the game LP's tolerance still count.  A dichotomic
    chord search (Aneja & Nair 1979) brackets t = 0 on the concave curve of
    rate against t = min_j (x.h)_j between the loudest action and the dep
    game's row strategy x*, solving the game rate + beta * h at each chord
    slope until no solve rises above the chord.

    x* is solved once per payoff (``max_guaranteed_dep`` reads the same one)
    and meets every level up to its own guarantee.  A level that x* misses by
    more than roundoff on h solves the game on h itself instead: its
    equilibrium is the right end, and its value decides feasibility.  Raises
    InfeasibleError when dep_level exceeds the largest guaranteeable value
    by more than roundoff.
    """
    level = float(dep_level)
    rates, h = payoff.rate_terms, payoff.dep_terms - level
    span = np.abs(h).max(axis=0)
    h /= np.where(span > 0, span, 1.0)
    x = payoff._dep_row_strategy
    t_b = float((x @ h).min())  # the guarantee of x
    if t_b < -_ROUNDOFF:
        quiet = solve_game(h)
        if quiet.value < -_ROUNDOFF:
            raise InfeasibleError(f"dep level {level!r} exceeds the largest guaranteeable value")
        x = quiet.row_strategy.prob_array()
        t_b = float((x @ h).min())
    loud, r_b = int(np.argmax(rates)), float(x @ rates)
    t_a, r_a = float(h[loud].min()), float(rates[loud])
    t = min(0.0, t_b)  # below 0 only by roundoff, as x or the value passed above
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
    game's LP value can overstate it when detection errors are tiny.  The
    strategy is solved once per payoff and also brackets every
    ``frontier_rate`` level up to this value.
    """
    return float((payoff._dep_row_strategy @ payoff.dep_terms).min())

