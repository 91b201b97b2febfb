"""Acceptance suite: ten numbered criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines
inline; under captured output they are written to the real stdout anyway.

The qualitative-ordering checks (criteria 8 and 9) express their
detection-error bands on the scale this library reports, where a blind
detector scores exactly P_FA + P_M = 1: the comparison band is
dep in [0.5, 0.95], the dominance band is dep <= 0.75, and "maximally
covert" means the top 5% of the guaranteeable dep range.  Each verdict
line restates the band it used.
"""

import dataclasses
import sys
import time

import numpy as np
import pytest

from covertgame.detection import dep_grid, pfa, pm
from covertgame.experiments import (
    beta_sweep,
    constant_baseline,
    frontier_rate,
    max_guaranteed_dep,
    uniform_baseline,
)
from covertgame.lpsolve import OPTIMAL, solve
from covertgame.matrixgame import (
    EquilibriumSolution,
    build_payoff,
    solve_game,
    verify_equilibrium,
)
from covertgame.model import default_scenario, desk_scenario, prune_negative_rate
from covertgame.rate import action_snr, normal_approx_rate
from covertgame.simkit import estimate_detection
from covertgame.specfun import gaussian_q_inv, reg_gamma_q_grid

from oracles import (
    exact_lp_value,
    fictitious_play_bounds,
    gamma_q_reference,
    grid_value_bounds,
)
from test_lpsolve import random_lp


def _verdict(num: int, ok: bool, detail: str) -> None:
    stream = sys.__stdout__ if sys.__stdout__ is not None else sys.stdout
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}",
          file=stream, flush=True)


class _Solved:
    def __init__(self, scenario):
        self.scenario = scenario
        start = time.perf_counter()
        self.payoff = build_payoff(prune_negative_rate(scenario))
        self.solution = solve_game(self.payoff)
        self.seconds = time.perf_counter() - start


@pytest.fixture(scope="module")
def no_jam():
    return _Solved(default_scenario(with_jammer=False))


@pytest.fixture(scope="module")
def jam_desk():
    return _Solved(desk_scenario(with_jammer=True))


@pytest.fixture(scope="module")
def desk_sweeps():
    start = time.perf_counter()
    quiet = beta_sweep(desk_scenario(with_jammer=False))
    jammed = beta_sweep(desk_scenario(with_jammer=True))
    return quiet, jammed, time.perf_counter() - start


def test_criterion_01_equilibrium_support(no_jam):
    sol = no_jam.solution
    row_mass = sum(p for (power, _), p in
                   zip(sol.row_strategy.actions, sol.row_strategy.probs)
                   if power in (0.02, 1.0))
    col_mass = sum(p for t, p in
                   zip(sol.col_strategy.actions, sol.col_strategy.probs)
                   if t in (1.02, 1.03))
    ok = (row_mass >= 0.99 and col_mass >= 0.99
          and sol.row_gap <= 1e-8 and sol.col_gap <= 1e-8
          and no_jam.seconds <= 60.0)
    _verdict(1, ok, (
        f"transmit mass on {{0.02, 1.00}} mW = {row_mass:.6f}, detector mass "
        f"on {{1.02, 1.03}} mW = {col_mass:.6f}, gaps "
        f"({sol.row_gap:.2e}, {sol.col_gap:.2e}), {no_jam.seconds:.1f}s"))
    assert row_mass >= 0.99
    assert col_mass >= 0.99
    assert sol.row_gap <= 1e-8 and sol.col_gap <= 1e-8
    assert no_jam.seconds <= 60.0


def test_criterion_02_pruning(no_jam):
    s = no_jam.scenario
    rate_001 = normal_approx_rate(action_snr(s, 0.01, 0.0), s.blocklength_n, s.delta)
    surviving = {p for p, _ in no_jam.payoff.actions}
    ok = rate_001 < 0.0 and 0.01 not in surviving and 0.02 in surviving
    _verdict(2, ok, (
        f"rate(0.01 mW) = {rate_001:.6f} < 0, grid keeps "
        f"{len(surviving)} of {len(s.power_grid)} powers starting at "
        f"{min(surviving)} mW"))
    assert ok


def test_criterion_03_best_response_sets_match(no_jam):
    s = no_jam.scenario
    payoff = no_jam.payoff
    x_eq = no_jam.solution.row_strategy.prob_array()
    rng = np.random.default_rng(0)
    candidates = [x_eq]
    for _ in range(20):
        x = x_eq + rng.exponential(scale=0.05, size=x_eq.size)
        candidates.append(x / x.sum())
    cells = dep_grid(s, payoff.actions)
    checked = 0
    for x in candidates:
        expected_dep = x @ cells
        dep_set = set(np.flatnonzero(expected_dep <= expected_dep.min() + 1e-12))
        # Willie minimizes the transmitter's total payoff, i.e. maximizes
        # its negation.  That payoff differs from detection error only by a
        # row-constant rate offset and the positive factor beta, so both
        # best-response sets must agree.
        expected_total = x @ payoff.entries
        total_set = set(np.flatnonzero(
            expected_total <= expected_total.min() + 1e-12))
        assert dep_set == total_set
        checked += 1
    _verdict(3, True, (
        f"detection-error and negated-total-payoff best-response sets "
        f"identical at the equilibrium and {checked - 1} perturbations "
        f"(tie tolerance 1e-12)"))


def test_criterion_04_permutation_invariance(no_jam):
    A = no_jam.payoff.entries
    rows, cols = A.shape
    rng = np.random.default_rng(1)
    solutions = []
    for _ in range(2):
        rp, cp = rng.permutation(rows), rng.permutation(cols)
        sol = solve_game(A[np.ix_(rp, cp)])
        x = np.empty(rows)
        x[rp] = sol.row_strategy.prob_array()
        y = np.empty(cols)
        y[cp] = sol.col_strategy.prob_array()
        solutions.append((sol.value, x, y))
    (v1, x1, y1), (v2, x2, y2) = solutions
    value_diff = abs(v1 - v2)
    gaps = []
    for value, x, y in [(v1, x1, y2), (v2, x2, y1)]:
        crossed = EquilibriumSolution(
            row_strategy=dataclasses.replace(
                no_jam.solution.row_strategy, probs=tuple(x)),
            col_strategy=dataclasses.replace(
                no_jam.solution.col_strategy, probs=tuple(y)),
            value=value, row_gap=0.0, col_gap=0.0)
        row_gap, col_gap = verify_equilibrium(A, crossed)
        gaps.extend([row_gap, col_gap])
        assert row_gap <= 1e-8 and col_gap <= 1e-8
    ok = value_diff <= 1e-8
    _verdict(4, ok, (
        f"permuted solves differ by {value_diff:.2e}; cross-paired "
        f"strategies verify with worst gap {max(gaps):.2e}"))
    assert ok


@pytest.mark.slow
def test_criterion_05_lp_oracle_equivalence():
    rng = np.random.default_rng(0)
    matrices = []
    for _ in range(200):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        matrices.append(rng.uniform(-5.0, 5.0, size=(m, n)))
    values = [solve_game(A).value for A in matrices]

    worst_grid = 0.0
    for A, v in zip(matrices, values):
        lo, hi = grid_value_bounds(A, denom=200)
        assert lo - 1e-9 <= v <= hi + 1e-9
        worst_grid = max(worst_grid, abs(v - 0.5 * (lo + hi)))
    assert worst_grid <= 1e-2

    fp_lo, fp_hi = fictitious_play_bounds(matrices, rounds=100_000)
    worst_fp = 0.0
    for v, lo, hi in zip(values, fp_lo, fp_hi):
        assert lo - 1e-9 <= v <= hi + 1e-9
        worst_fp = max(worst_fp, abs(v - 0.5 * (lo + hi)))
    assert worst_fp <= 1e-3

    rng = np.random.default_rng(0)
    worst_lp = 0.0
    for _ in range(50):
        problem = random_lp(rng)
        want = exact_lp_value(
            problem.sense, problem.objective.tolist(), problem.lhs.tolist(),
            problem.rhs.tolist(), list(problem.kinds), list(problem.bounds))
        sol = solve(problem)
        assert sol.status == OPTIMAL
        worst_lp = max(worst_lp, abs(sol.objective - float(want)))
    assert worst_lp <= 1e-9

    _verdict(5, True, (
        f"200 games: grid-search gap {worst_grid:.2e} (<= 1e-2), fictitious "
        f"play gap {worst_fp:.2e} (<= 1e-3); 50 LPs vs exact-rational "
        f"simplex {worst_lp:.2e} (<= 1e-9)"))


def test_criterion_06_special_functions():
    worst = 0.0
    for n in (1, 10, 200, 1000):
        for ratio in (0.25, 0.5, 1.0, 1.02, 2.0, 5.0):
            x = ratio * n
            got = float(reg_gamma_q_grid(n, np.array([x]))[0])
            worst = max(worst, abs(got - float(gamma_q_reference(n, x))))
    inv_err = abs(gaussian_q_inv(0.1) - 1.2815515655)
    ok = worst <= 1e-10 and inv_err <= 1e-8
    _verdict(6, ok, (
        f"reg_gamma_q_grid vs continued-fraction oracle {worst:.2e} (<= 1e-10); "
        f"inv_q(0.1) error {inv_err:.2e} (<= 1e-8)"))
    assert worst <= 1e-10
    assert inv_err <= 1e-8


def test_criterion_07_monte_carlo(no_jam, jam_desk):
    start = time.perf_counter()
    worst_z = 0.0
    for solved in (no_jam, jam_desk):
        s = solved.scenario
        joint = solved.solution.row_strategy
        thr = solved.solution.col_strategy
        first = estimate_detection(s, joint, thr, blocks=100_000, seed=0)
        again = estimate_detection(s, joint, thr, blocks=100_000, seed=0)
        assert (first.pfa_hat, first.pm_hat) == (again.pfa_hat, again.pm_hat)
        analytic_pfa = pfa(s, joint, thr)
        analytic_pm = pm(s, joint, thr)
        assert first.consistent_with(analytic_pfa, analytic_pm)
        worst_z = max(
            worst_z,
            abs(first.pfa_hat - analytic_pfa) / first.pfa_stderr,
            abs(first.pm_hat - analytic_pm) / first.pm_stderr)
    elapsed = time.perf_counter() - start
    ok = elapsed <= 30.0
    _verdict(7, ok, (
        f"both equilibria, 1e5 blocks, deterministic reruns; worst "
        f"|z| = {worst_z:.2f} (< 3), {elapsed:.1f}s (<= 30s)"))
    assert ok


@pytest.mark.slow
def test_criterion_08_jammer_advantage(desk_sweeps):
    quiet, jammed, sweep_seconds = desk_sweeps
    start = time.perf_counter()
    order = np.argsort([p.dep for p in quiet])
    deps = np.asarray([quiet[i].dep for i in order])
    rates = np.asarray([quiet[i].expected_rate for i in order])
    lo_band, hi_band = 0.5, 0.95
    improvements = []
    for point in jammed:
        if lo_band <= point.dep <= hi_band:
            matched = float(np.interp(point.dep, deps, rates))
            improvements.append(point.expected_rate - matched)
    elapsed = sweep_seconds + time.perf_counter() - start
    ok = (len(improvements) > 0
          and min(improvements) >= 0.0
          and max(improvements) > 0.01
          and elapsed <= 600.0)
    _verdict(8, ok, (
        f"band dep in [{lo_band}, {hi_band}] (blind detector = 1): "
        f"{len(improvements)} comparison points, jammer advantage "
        f"min {min(improvements):.4f} / max {max(improvements):.4f} "
        f"bits/use (strict > 0.01 required somewhere), {elapsed:.1f}s"))
    assert improvements
    assert min(improvements) >= 0.0
    assert max(improvements) > 0.01
    assert elapsed <= 600.0


@pytest.mark.slow
def test_criterion_09_baseline_dominance(no_jam):
    s = no_jam.scenario
    payoff = no_jam.payoff
    uniforms = [uniform_baseline(payoff, k) for k in range(2, len(s.power_grid) + 1)]
    survivors = sorted({p for p, _ in payoff.actions})
    constants = [constant_baseline(payoff, p) for p in survivors]
    # Each baseline's advantage: the game frontier's rate at the baseline's
    # own dep, less the baseline's rate.
    entries = [(b, frontier_rate(payoff, b.dep) - b.expected_rate)
               for b in uniforms + constants]

    band = [adv for b, adv in entries if b.dep <= 0.75]
    min_adv = min(band)
    strict = sum(1 for adv in band if adv > 1e-6)
    # The full-power constant baseline coincides with the curve's
    # rate-greedy endpoint, so exact ties are tolerated at 1e-9.
    low_ok = min_adv >= -1e-9 and strict >= len(band) - 1
    # Outside the band too, no baseline earns more than 1e-9 above the frontier.
    all_ok = min(adv for _, adv in entries) >= -1e-9

    dmax = max_guaranteed_dep(payoff)
    top = [(b, adv) for b, adv in entries if b.dep >= 0.95 * dmax]
    top_spread = max(abs(adv) for _, adv in top)
    top_ok = (top_spread <= 0.05
              and {b.label for b, _ in top} == {"uniform", "constant"})

    ok = low_ok and top_ok and all_ok
    _verdict(9, ok, (
        f"{len(band)} baselines with dep <= 0.75 (blind detector = 1): game "
        f"advantage min {min_adv:.2e}, {strict} strictly positive; top band "
        f"dep >= {0.95 * dmax:.3f}: {len(top)} points agree within "
        f"{top_spread:.3f} (<= 0.05)"))
    assert all_ok
    assert low_ok
    assert top_ok


def test_criterion_10_degenerate_unification(no_jam):
    degenerate = dataclasses.replace(
        default_scenario(with_jammer=True),
        alpha=0.0, jam_grid=(0.0,), beta=no_jam.scenario.beta)
    payoff = build_payoff(prune_negative_rate(degenerate))
    entry_diff = float(np.max(np.abs(payoff.entries - no_jam.payoff.entries)))
    value = solve_game(payoff).value
    value_diff = abs(value - no_jam.solution.value)
    ok = entry_diff <= 1e-12 and value_diff <= 1e-9
    _verdict(10, ok, (
        f"alpha = 0, jam grid {{0}}: payoff entries differ by "
        f"{entry_diff:.2e} (<= 1e-12), values by {value_diff:.2e} (<= 1e-9)"))
    assert entry_diff <= 1e-12
    assert value_diff <= 1e-9
