"""Zero-sum matrix game between transmitter(+jammer) and detector.

The row player mixes over surviving (power, jam) actions and receives

    A[r, m] = rate(P_r, J_r) + beta * dep(P_r, J_r, t_m)

against detector threshold t_m; the detector pays that amount.  The value
and a pair of equilibrium mixed strategies come from a single linear
program.  Of the two textbook LP formulations (row player maximizes a
guaranteed payoff U, column player minimizes one) the solver is pointed at
whichever has fewer constraint rows, and the opponent's strategy is read
off the dual multipliers of the covering constraints, so one solve yields
both sides.  ``solve_game`` accepts the pair only when neither player can
gain more than VERIFY_TOL by deviating to a pure strategy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import lpsolve
# dep_grid stays bound here although unused: perfbench's tracer test checks
# that the tracer rewraps this binding.
from .detection import MixedStrategy, dep_grid, error_grids  # noqa: F401
from .model import PrunedScenario, Scenario

__all__ = [
    "PayoffMatrix",
    "EquilibriumSolution",
    "GameSolveError",
    "build_payoff",
    "solve_game",
    "verify_equilibrium",
]

# Largest verification gap of an accepted equilibrium.
VERIFY_TOL = 1e-8


class GameSolveError(RuntimeError):
    """A game has no verified equilibrium: a non-finite payoff, a non-optimal
    LP status, malformed mixtures, or a verification gap above VERIFY_TOL."""


@dataclass(frozen=True)
class PayoffMatrix:
    """Payoff entries of one scenario plus its beta-independent parts.

    ``entries = rate_terms[:, None] + beta * dep_terms`` with
    ``dep_terms = pfa_terms + pm_terms``.  The P_FA / P_M split is the
    scenario's one cell table: beta sweeps, baselines and reports read it
    instead of re-evaluating incomplete-gamma grids.  Rows follow
    ``actions``, columns the scenario's threshold grid.
    """

    scenario: Scenario
    actions: tuple[tuple[float, float], ...]
    entries: np.ndarray
    rate_terms: np.ndarray
    pfa_terms: np.ndarray
    pm_terms: np.ndarray
    dep_terms: np.ndarray

    def __post_init__(self):
        for name in ("entries", "rate_terms", "pfa_terms", "pm_terms", "dep_terms"):
            getattr(self, name).flags.writeable = False

    @property
    def beta(self) -> float:
        return self.scenario.beta

    def with_beta(self, beta: float) -> "PayoffMatrix":
        """Reassemble the payoff for a different covertness weight."""
        return replace(self, scenario=replace(self.scenario, beta=beta),
                       entries=self.rate_terms[:, None] + beta * self.dep_terms)

    def error_rates(self, row: MixedStrategy, col: MixedStrategy) -> tuple[float, float]:
        """(P_FA, P_M) of mixed strategies over all of this table's rows and columns."""
        x, y = row.prob_array(), col.prob_array()
        return float(x @ self.pfa_terms @ y), float(x @ self.pm_terms @ y)

    def expected_rate(self, row: MixedStrategy, rows=None) -> float:
        """Expected rate of a mixed strategy over all of this table's rows, or
        over the listed ``rows`` in order.

        The probability-weighted sum of the rows' ``rate_terms``, added with
        ``math.fsum``: the one expected-rate path of the package.
        """
        rates = self.rate_terms if rows is None else self.rate_terms[rows]
        if len(rates) != len(row.probs):
            raise ValueError(f"{len(row.probs)} probabilities for {len(rates)} table rows")
        return float(math.fsum(prob * rate for prob, rate in zip(row.probs, rates.tolist())))

    @cached_property
    def _dep_row_strategy(self) -> np.ndarray:
        """Row mixture of the game played on ``dep_terms`` alone, solved once
        per table: the largest detection error a transmitter can guarantee
        (``experiments.max_guaranteed_dep``, ``experiments.frontier_rate``)."""
        x = solve_game(self.dep_terms).row_strategy.prob_array()
        x.flags.writeable = False
        return x


def build_payoff(pruned: PrunedScenario) -> PayoffMatrix:
    """Assemble the payoff matrix for a pruned scenario.

    Every P_FA and P_M cell is evaluated at most once here, all in one
    incomplete-gamma call (P_M cells provably 1.0 are set, not evaluated:
    ``detection.error_grids``), and the rates are the ones pruning computed;
    rows follow the pruned action order (power fastest within each jam
    level), columns follow the threshold grid.
    """
    s = pruned.scenario
    rates = pruned.rates
    pfa, pm = error_grids(s, pruned.actions)
    dep = pfa + pm
    return PayoffMatrix(
        scenario=s,
        actions=pruned.actions,
        entries=rates[:, None] + s.beta * dep,
        rate_terms=rates,
        pfa_terms=pfa,
        pm_terms=pm,
        dep_terms=dep,
    )


@dataclass(frozen=True)
class EquilibriumSolution:
    row_strategy: MixedStrategy
    col_strategy: MixedStrategy
    value: float
    row_gap: float
    col_gap: float
    iterations: int = 0


def _clean_probs(raw: np.ndarray, label: str) -> np.ndarray:
    if float(raw.min(initial=0.0)) < -1e-7:
        raise GameSolveError(f"{label} strategy has negative mass {raw.min():.3e}")
    probs = np.clip(raw, 0.0, None)
    total = float(probs.sum())
    if not math.isfinite(total) or abs(total - 1.0) > 1e-7:
        raise GameSolveError(f"{label} strategy mass {total!r} is not 1")
    return probs / total


def _game_lp(entries: np.ndarray, orientation: str) -> lpsolve.LinearProgram:
    """Build the value LP for one side.

    ``row`` orientation: maximize U subject to (pi^T A)_m >= U for every
    column m.  ``col`` orientation: minimize U subject to (A pi)_r <= U for
    every row r.  Either way the last variable is U and the probability
    simplex closes the constraint list.
    """
    if orientation == "row":
        body, kind, sense = entries.T, ">=", "max"
    else:
        body, kind, sense = entries, "<=", "min"
    covering, k = body.shape
    lhs = np.zeros((covering + 1, k + 1))
    lhs[:covering, :k] = body
    lhs[:covering, k] = -1.0
    lhs[covering, :k] = 1.0
    kinds = (kind,) * covering + ("=",)
    rhs = np.zeros(covering + 1)
    rhs[-1] = 1.0
    objective = np.zeros(k + 1)
    objective[-1] = 1.0
    bounds = tuple([(0.0, 1.0)] * k + [(None, None)])
    return lpsolve.LinearProgram(
        sense=sense, objective=objective, lhs=lhs, rhs=rhs, kinds=kinds, bounds=bounds
    )


def solve_game(entries) -> EquilibriumSolution:
    """Nash-equilibrium value and mixed strategies of a zero-sum matrix game.

    Args:
        entries: payoff matrix (row player maximizes), a PayoffMatrix, whose
            strategies take its action and threshold labels, or a 2-d array,
            whose strategies take plain indices.

    Returns:
        EquilibriumSolution with both strategies, the game value, and the
        verification gaps (each must clear VERIFY_TOL, else this raises).
    """
    row_actions = col_actions = None
    if isinstance(entries, PayoffMatrix):
        row_actions, col_actions = entries.actions, entries.scenario.threshold_grid
        entries = entries.entries
    A = np.asarray(entries, dtype=float)
    if A.ndim != 2 or 0 in A.shape:
        raise ValueError(f"payoff matrix must be 2-d and nonempty, got shape {A.shape}")
    if not np.isfinite(A).all():  # e.g. an infinite rate where the SNR overflows
        raise GameSolveError("payoff matrix has non-finite entries")
    rows, cols = A.shape

    # Point the simplex at the orientation with fewer constraint rows; the
    # opponent's mixture is the negated duals of the covering constraints.
    orientation = "col" if rows <= cols else "row"
    sol = lpsolve.solve(_game_lp(A, orientation))
    if sol.status != lpsolve.OPTIMAL:
        raise GameSolveError(f"game LP ({orientation} orientation) ended with status "
                             f"{sol.status}: {sol.message}")
    primal, dual, value = sol.x[:-1], -sol.duals[:-1], float(sol.x[-1])
    row_raw, col_raw = (dual, primal) if orientation == "col" else (primal, dual)
    x, y = _clean_probs(row_raw, "row"), _clean_probs(col_raw, "col")
    row_gap, col_gap = _gaps(A, x, y, value)
    # The two gaps cannot both go negative by more than roundoff (the row
    # guarantee never exceeds the column exposure), so requiring each to stay
    # below VERIFY_TOL catches both bad strategies and a misreported value.
    if not (row_gap <= VERIFY_TOL and col_gap <= VERIFY_TOL):
        raise GameSolveError(f"equilibrium verification failed: row_gap={row_gap:.3e} "
                             f"col_gap={col_gap:.3e}")
    return EquilibriumSolution(
        row_strategy=MixedStrategy(row_actions or range(rows), x.tolist()),
        col_strategy=MixedStrategy(col_actions or range(cols), y.tolist()),
        value=value, row_gap=row_gap, col_gap=col_gap, iterations=sol.iterations)


def _gaps(A: np.ndarray, x: np.ndarray, y: np.ndarray, value: float) -> tuple[float, float]:
    """(value - min_m (x^T A)_m, max_r (A y)_r - value)."""
    return value - float((x @ A).min()), float((A @ y).max()) - value


def verify_equilibrium(entries, solution: EquilibriumSolution) -> tuple[float, float]:
    """Measure how far a claimed solution is from a true equilibrium.

    Returns (row_gap, col_gap).  row_gap is the shortfall of the row
    strategy's guaranteed payoff below the claimed value (value - min over
    pure columns); col_gap is the excess of the column strategy's exposure
    above the value (max over pure rows - value).  Both are nonnegative up
    to roundoff at a true equilibrium whose value is exact; ``solve_game``
    accepts a solution only when both are at most VERIFY_TOL.
    """
    if isinstance(entries, PayoffMatrix):
        entries = entries.entries
    return _gaps(np.asarray(entries, dtype=float), solution.row_strategy.prob_array(),
                 solution.col_strategy.prob_array(), solution.value)

