"""Equilibrium randomization for covert communication at finite blocklength.

A transmitter picks codeword powers (optionally helped by a friendly
jammer), an adversarial energy detector picks alarm thresholds, and both mix
over finite grids.  This package builds the zero-sum payoff (achievable rate
plus a weighted detection-error term), solves for Nash-equilibrium mixed
strategies by linear programming, validates the analytic error model by
Monte Carlo, and traces rate versus covertness tradeoff curves.
"""

__version__ = "0.1.0"

from .detection import MixedStrategy, error_rates
from .experiments import (
    BaselineResult,
    TradeoffPoint,
    beta_sweep,
    constant_baseline,
    default_beta_grid,
    frontier_rate,
    max_guaranteed_dep,
    uniform_baseline,
)
from .matrixgame import (
    EquilibriumSolution,
    PayoffMatrix,
    build_payoff,
    solve_game,
    verify_equilibrium,
)
from .model import (
    PrunedScenario,
    Scenario,
    ScenarioError,
    default_scenario,
    desk_scenario,
    joint_actions,
    load_scenario,
    parse_scenario_text,
    prune_negative_rate,
)
from .rate import normal_approx_rate
from .simkit import EmpiricalDetection, estimate_detection

__all__ = [
    "__version__",
    "MixedStrategy", "error_rates",
    "BaselineResult", "TradeoffPoint", "beta_sweep", "constant_baseline",
    "default_beta_grid", "frontier_rate", "max_guaranteed_dep", "uniform_baseline",
    "EquilibriumSolution", "PayoffMatrix", "build_payoff", "solve_game",
    "verify_equilibrium",
    "PrunedScenario", "Scenario", "ScenarioError", "default_scenario", "desk_scenario",
    "joint_actions", "load_scenario", "parse_scenario_text", "prune_negative_rate",
    "normal_approx_rate",
    "EmpiricalDetection", "estimate_detection",
]
