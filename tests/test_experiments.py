"""Tests for tradeoff sweeps, baselines, and the exact frontier."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from covertgame import experiments, matrixgame
from covertgame.detection import dep_grid, pfa, pm
from covertgame.experiments import (
    beta_sweep,
    constant_baseline,
    default_beta_grid,
    frontier_rate,
    max_guaranteed_dep,
    uniform_baseline,
)
from covertgame.lpsolve import InfeasibleError
from covertgame.matrixgame import build_payoff, solve_game
from covertgame.model import default_scenario, desk_scenario, prune_negative_rate
from covertgame.rate import action_snr, normal_approx_rate

from oracles import exact_lp_value


def scalar_expected_rate(s, strategy):
    """A strategy's expected rate summed from one scalar rate per action."""
    return math.fsum(prob * normal_approx_rate(action_snr(s, p, j), s.blocklength_n, s.delta)
                     for (p, j), prob in zip(strategy.actions, strategy.probs))


@pytest.fixture(scope="module")
def no_jam_payoff():
    return build_payoff(prune_negative_rate(default_scenario()))


@pytest.fixture(scope="module")
def coarse_sweep():
    # A handful of weights spanning the interesting dep range; coarse power
    # grid keeps each LP small.
    return beta_sweep(desk_scenario(with_jammer=False),
                      betas=(0.5, 0.9, 1.2, 1.6, 2.5))


def test_default_beta_grid():
    grid = default_beta_grid()
    assert len(grid) == 25
    assert grid[0] == pytest.approx(0.1)
    assert grid[-1] == pytest.approx(20.0)
    ratios = [b / a for a, b in zip(grid, grid[1:])]
    assert max(ratios) - min(ratios) < 1e-12


def test_desk_scenario_grids():
    s = desk_scenario()
    assert len(s.power_grid) == 20
    assert s.power_grid[0] == 0.05
    assert len(s.jam_grid) == 21
    assert s.jam_grid[1] == 0.05
    assert len(s.threshold_grid) == 301
    quiet = desk_scenario(with_jammer=False)
    assert quiet.jam_grid == (0.0,)
    assert quiet.beta == 1.6


def test_sweep_points_satisfy_invariants(coarse_sweep):
    for point in coarse_sweep:
        assert abs(point.dep - (point.pfa + point.pm)) <= 1e-12
        assert 0.0 < point.dep < 2.0
        s = dataclasses.replace(desk_scenario(with_jammer=False), beta=point.beta)
        # Round trip: recompute every reported number from the strategies.
        assert scalar_expected_rate(s, point.row_strategy) == pytest.approx(
            point.expected_rate, abs=1e-10)
        assert pfa(s, point.row_strategy, point.col_strategy) == pytest.approx(
            point.pfa, abs=1e-10)
        assert pm(s, point.row_strategy, point.col_strategy) == pytest.approx(
            point.pm, abs=1e-10)
        assert point.expected_rate + point.beta * point.dep == pytest.approx(
            point.game_value, abs=1e-9)


def test_table_read_expected_rates_equal_scalar_rates(no_jam_payoff):
    # Sweep points and baselines read their rates from the payoff's table;
    # the sums must match the scalar rate path bit for bit.
    s = no_jam_payoff.scenario
    for point in beta_sweep(s):
        assert point.expected_rate == scalar_expected_rate(s, point.row_strategy)
    baselines = [uniform_baseline(no_jam_payoff, k) for k in range(2, len(s.power_grid) + 1)]
    baselines += [constant_baseline(no_jam_payoff, p) for p, _ in no_jam_payoff.actions]
    for b in baselines:
        assert b.expected_rate == scalar_expected_rate(s, b.row_strategy)


def test_sweep_dep_rises_rate_falls(coarse_sweep):
    deps = [p.dep for p in coarse_sweep]
    rates = [p.expected_rate for p in coarse_sweep]
    assert all(b >= a - 1e-12 for a, b in zip(deps, deps[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))


def test_sweep_singleton_matches_direct_solve():
    s = desk_scenario(with_jammer=False)
    point = beta_sweep(s, betas=(s.beta,))[0]
    direct = solve_game(build_payoff(prune_negative_rate(s)))
    assert point.game_value == direct.value
    assert point.row_strategy.probs == direct.row_strategy.probs


def test_sweep_rejects_bad_weights():
    s = desk_scenario(with_jammer=False)
    with pytest.raises(ValueError, match="positive"):
        beta_sweep(s, betas=(1.0, 0.0))
    with pytest.raises(ValueError, match="nonempty"):
        beta_sweep(s, betas=())


def test_uniform_baseline_k2_degenerates(no_jam_payoff):
    result = uniform_baseline(no_jam_payoff, 2)
    # 0.01 mW is pruned, so "first two grid powers" leaves only 0.02 mW.
    assert result.row_strategy.actions == ((0.02, 0.0),)
    assert result.parameter == 2.0
    assert result.label == "uniform"


def test_uniform_baseline_full_grid(no_jam_payoff):
    result = uniform_baseline(no_jam_payoff, 100)
    assert len(result.row_strategy.actions) == 99
    assert result.row_strategy.probs[0] == pytest.approx(1.0 / 99.0)
    powers = [p for p, j in result.row_strategy.actions]
    assert powers[0] == 0.02 and powers[-1] == 1.0
    assert all(j == 0.0 for _, j in result.row_strategy.actions)


def test_uniform_baseline_bounds(no_jam_payoff):
    with pytest.raises(ValueError, match="2 <= k <= 100"):
        uniform_baseline(no_jam_payoff, 1)
    with pytest.raises(ValueError, match="2 <= k <= 100"):
        uniform_baseline(no_jam_payoff, 101)


def test_constant_baseline(no_jam_payoff):
    result = constant_baseline(no_jam_payoff, 0.02)
    assert result.label == "constant"
    assert result.parameter == 0.02
    assert result.row_strategy.actions == ((0.02, 0.0),)
    with pytest.raises(ValueError, match="not a surviving grid level"):
        constant_baseline(no_jam_payoff, 0.015)
    with pytest.raises(ValueError, match="not a surviving grid level"):
        constant_baseline(no_jam_payoff, 0.01)


def test_uniform_baseline_takes_exactly_the_first_k_grid_powers():
    # The third power lies 1e-12 above the second: it is not among the first two.
    s = dataclasses.replace(default_scenario(), power_grid=(0.1, 0.5, 0.500000000001))
    payoff = build_payoff(prune_negative_rate(s))
    assert uniform_baseline(payoff, 2).row_strategy.actions == ((0.1, 0.0), (0.5, 0.0))
    assert len(uniform_baseline(payoff, 3).row_strategy.actions) == 3


def test_uniform_baseline_needs_a_surviving_power_among_the_first_k():
    # 0.001 and 0.005 mW give negative rates at delta = 0.1, as 0.01 mW does.
    s = dataclasses.replace(default_scenario(), power_grid=(0.001, 0.005, 0.5))
    payoff = build_payoff(prune_negative_rate(s))
    with pytest.raises(ValueError, match="all of the first 2 power levels are pruned"):
        uniform_baseline(payoff, 2)
    assert uniform_baseline(payoff, 3).row_strategy.actions == ((0.5, 0.0),)


def test_baselines_need_a_zero_jam_row():
    s = dataclasses.replace(default_scenario(True), power_grid=(0.5, 1.0), jam_grid=(0.5,),
                            threshold_grid=(0.0, 1.0, 2.0))
    payoff = build_payoff(prune_negative_rate(s))
    for baseline, parameter in ((uniform_baseline, 2), (constant_baseline, 0.5)):
        with pytest.raises(ValueError, match="baselines need surviving zero-jam actions"):
            baseline(payoff, parameter)


def test_constant_baseline_takes_the_nearest_grid_power():
    s = dataclasses.replace(default_scenario(), power_grid=(0.5, 0.5000000001))
    payoff = build_payoff(prune_negative_rate(s))
    for power in s.power_grid:
        result = constant_baseline(payoff, power)
        assert result.parameter == power
        assert result.row_strategy.actions == ((power, 0.0),)
    assert constant_baseline(payoff, 0.50000000009).parameter == 0.5000000001
    with pytest.raises(ValueError, match="not a surviving grid level"):
        constant_baseline(payoff, 0.500000002)


@pytest.mark.slow
def test_best_threshold_is_argmin(no_jam_payoff):
    s = default_scenario()
    result = uniform_baseline(no_jam_payoff, 50)
    x = result.row_strategy.prob_array()
    actions = result.row_strategy.actions
    cells = dep_grid(s, actions)
    dep_by_thr = [sum(p * cells[i, m] for i, p in enumerate(x))
                  for m in range(len(s.threshold_grid))]
    best = s.threshold_grid[int(np.argmin(dep_by_thr))]
    assert result.best_threshold == best
    assert result.dep == pytest.approx(min(dep_by_thr), abs=1e-12)


def test_frontier_endpoints(no_jam_payoff):
    # Requiring nothing lets the loudest power run free.
    top = frontier_rate(no_jam_payoff, 0.0)
    assert top == pytest.approx(float(no_jam_payoff.rate_terms.max()), abs=1e-9)
    # At the maximum guaranteeable dep only the quietest power remains.
    dmax = max_guaranteed_dep(no_jam_payoff)
    assert dmax == pytest.approx(0.8886861050846053, abs=1e-9)
    edge = frontier_rate(no_jam_payoff, dmax - 1e-12)
    assert edge == pytest.approx(0.0028067629698915533, abs=1e-6)
    with pytest.raises(InfeasibleError):
        frontier_rate(no_jam_payoff, dmax + 1e-6)


def record_games(monkeypatch) -> list:
    """Every payoff array handed to solve_game from now on, in call order."""
    games, solve = [], matrixgame.solve_game

    def recording(entries):
        games.append(np.array(entries))
        return solve(entries)

    monkeypatch.setattr(matrixgame, "solve_game", recording)
    monkeypatch.setattr(experiments, "solve_game", recording)
    return games


def quiet_game(payoff, level):
    """The game frontier_rate solves to decide feasibility at ``level``: each
    threshold's dep column shifted by the level and scaled to unit size."""
    h = payoff.dep_terms - level
    span = np.abs(h).max(axis=0)
    return h / np.where(span > 0, span, 1.0)


def test_frontier_levels_are_bracketed_by_the_dep_game(monkeypatch):
    # The benchmark's frontier op: one dep game for max_guaranteed_dep and
    # all eight levels, then chord solves only.
    payoff = build_payoff(prune_negative_rate(default_scenario()))
    games = record_games(monkeypatch)
    top = max_guaranteed_dep(payoff)
    assert len(games) == 1 and np.array_equal(games[0], payoff.dep_terms)
    levels = [f * top for f in (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95, 0.99)]
    rates = [frontier_rate(payoff, level) for level in levels]
    assert all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))
    assert max_guaranteed_dep(payoff) == top
    assert sum(np.array_equal(g, payoff.dep_terms) for g in games) == 1
    for level in levels:
        h = quiet_game(payoff, level)
        assert not any(np.array_equal(g, h) for g in games), level


def test_frontier_past_the_dep_game_solves_the_quiet_game(monkeypatch):
    # A level the dep game's strategy misses is decided by the game on h,
    # whose value still raises InfeasibleError past the maximum.
    payoff = build_payoff(prune_negative_rate(default_scenario()))
    top = max_guaranteed_dep(payoff)
    games = record_games(monkeypatch)
    with pytest.raises(InfeasibleError):
        frontier_rate(payoff, top + 1e-6)
    assert len(games) == 1 and np.array_equal(games[0], quiet_game(payoff, top + 1e-6))


def test_frontier_brackets_from_a_feasible_quiet_game(monkeypatch):
    # With the loudest action standing in for the dep game's strategy, every
    # level above its guarantee is met by the quiet game's equilibrium, which
    # then brackets the chord search from the right.
    s = dataclasses.replace(default_scenario(), power_grid=(0.02, 0.1, 0.3, 0.6, 1.0),
                            threshold_grid=(0.5, 0.8, 1.0, 1.1, 1.2, 1.5, 2.0))
    payoff = build_payoff(prune_negative_rate(s))
    top = max_guaranteed_dep(payoff)
    loud = int(np.argmax(payoff.rate_terms))
    payoff.__dict__["_dep_row_strategy"] = np.eye(len(payoff.actions))[loud]
    k, m = payoff.dep_terms.shape
    games = record_games(monkeypatch)
    for level in (0.3 * top, 0.7 * top, 0.95 * top):
        assert payoff.dep_terms[loud].min() < level
        games.clear()
        exact = exact_lp_value("max", payoff.rate_terms, [*payoff.dep_terms.T, np.ones(k)],
                               [level] * m + [1.0], [">="] * m + ["="], [(0.0, 1.0)] * k)
        assert frontier_rate(payoff, level) == pytest.approx(float(exact), abs=1e-9)
        assert np.array_equal(games[0], quiet_game(payoff, level))


def test_frontier_is_monotone(no_jam_payoff):
    levels = np.linspace(0.0, 0.88, 12)
    rates = [frontier_rate(no_jam_payoff, float(d)) for d in levels]
    assert all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))


def test_max_guaranteed_dep_equals_quietest_worst_case(no_jam_payoff):
    # The single quietest surviving power already forces the detector to its
    # best threshold; mixing cannot beat that here.
    s = default_scenario()
    worst = float(dep_grid(s, [(0.02, 0.0)]).min())
    assert max_guaranteed_dep(no_jam_payoff) == pytest.approx(worst, abs=1e-9)


def test_equilibrium_sits_on_frontier(no_jam_payoff):
    sol = solve_game(no_jam_payoff)
    s = default_scenario()
    point_rate = scalar_expected_rate(s, sol.row_strategy)
    point_dep = float(
        sol.row_strategy.prob_array() @ no_jam_payoff.dep_terms
        @ sol.col_strategy.prob_array())
    assert frontier_rate(no_jam_payoff, point_dep) == pytest.approx(
        point_rate, abs=1e-9)


@settings(max_examples=25, deadline=None, derandomize=True)
# Near-perfect detection (dep down to 1e-36) and steep frontier ends, where
# an earlier search interpolated toward an unachievable end or missed a
# vertex hidden below the game LP's tolerance.
@example([99, 85], [288, 276, 139, 57, 292, 253, 280], 0.25, 0.25)
@example([65, 86], [0, 154, 95, 47, 49, 85, 143], 0.25, 0.25)
@example([49, 99, 82, 69, 48, 65], [147, 41, 103, 66, 215, 0, 80], 0.25, 0.33524189526837184)
@example([81, 85, 75], [240, 49, 229, 110, 65, 89, 289], 0.3166111203531383, 0.645813749662807)
@example([93, 83, 39, 86, 34, 95], [299, 62, 176, 40, 185, 27, 211], 0.25, 0.012818826934265285)
@example([86, 53], [236, 0, 85, 296, 45, 51, 274], 0.25, 0.6965321668758065)
# At the largest guaranteeable dep: a chord solve failed verification, a
# mixture met the level only up to roundoff, and one fell 1.7e-13 short.
@example([16, 46, 94, 98, 11], [102, 83, 56, 282, 279, 117, 299], 1.4899790829276043, 1.0)
@example([19, 23, 14, 85], [289, 25, 83, 179, 194, 177, 86], 0.3277673844739826, 1.0)
@example([19, 39, 42, 80, 23], [97, 300, 223, 77, 200, 0, 11], 0.25, 1.0)
# Two levels that a floating-point frontier LP got wrong by 0.045 and 0.019.
@example([54, 49], [187, 188, 217, 207, 122, 136, 100], 3.1738374119072335, 1.0)
@example([59, 82, 4, 46, 7], [52, 49, 51, 215, 17, 231, 0], 0.25, 0.3858003753161342)
# Detection errors near 1e-13, where the dep game's LP value overstated the
# largest guaranteeable dep 400-fold and every level near it was infeasible.
@example([68, 70, 81], [40, 44, 54, 109, 250, 288, 296], 0.25, 0.0169)
@example([68, 70, 81], [40, 44, 54, 109, 250, 288, 296], 0.25, 1.0)
@given(powers=st.lists(st.integers(1, 100), min_size=2, max_size=6, unique=True),
       thresholds=st.lists(st.integers(0, 300), min_size=7, max_size=7, unique=True),
       sigma_w_sq=st.floats(0.25, 4.0),
       fraction=st.floats(0.0, 1.0))
def test_frontier_matches_exact_lp(powers, thresholds, sigma_w_sq, fraction):
    # The frontier against its LP solved in exact rationals:
    # max x.rate s.t. x.dep[:, j] >= level for every threshold j, x on the simplex.
    s = dataclasses.replace(
        default_scenario(), sigma_w_sq_mw=sigma_w_sq,
        power_grid=tuple(sorted(p / 100 for p in powers)),
        threshold_grid=tuple(sorted(t / 100 for t in thresholds)))
    payoff = build_payoff(prune_negative_rate(s))
    level = fraction * max_guaranteed_dep(payoff)
    k, m = payoff.dep_terms.shape
    exact = exact_lp_value("max", payoff.rate_terms, [*payoff.dep_terms.T, np.ones(k)],
                           [level] * m + [1.0], [">="] * m + ["="], [(0.0, 1.0)] * k)
    assert frontier_rate(payoff, level) == pytest.approx(float(exact), abs=1e-9)


def test_dominance_check_at_the_largest_guaranteeable_dep(no_jam_payoff):
    # The quietest constant baseline's dep is the maximum itself, computed
    # apart from the game LP; one ulp past it is still that point.
    quiet = constant_baseline(no_jam_payoff, 0.02)
    top = max_guaranteed_dep(no_jam_payoff)
    assert quiet.dep == top
    assert frontier_rate(no_jam_payoff, quiet.dep) == pytest.approx(quiet.expected_rate, abs=1e-9)
    past = float(np.nextafter(top, 1.0))
    assert frontier_rate(no_jam_payoff, past) == pytest.approx(quiet.expected_rate, abs=1e-9)


def test_dominance_check_exact(no_jam_payoff):
    uniforms = [uniform_baseline(no_jam_payoff, k) for k in (2, 10, 50, 100)]
    constants = [constant_baseline(no_jam_payoff, p) for p in (0.02, 0.1, 0.5, 1.0)]
    baselines = uniforms + constants
    assert {b.label for b in baselines} == {"uniform", "constant"}
    for b in baselines:
        assert frontier_rate(no_jam_payoff, b.dep) - b.expected_rate >= -1e-9, b


def test_jammer_pipeline_degenerates_without_jamming():
    """alpha = 0 with the one-point jam grid {0} must reproduce the plain
    sweep exactly, entry for entry."""
    quiet = desk_scenario(with_jammer=False)
    degenerate = dataclasses.replace(
        desk_scenario(with_jammer=True), alpha=0.0, jam_grid=(0.0,),
        beta=quiet.beta)
    betas = (0.8, 1.6)
    direct = beta_sweep(quiet, betas=betas)
    via_jammer = beta_sweep(degenerate, betas=betas)
    for a, b in zip(direct, via_jammer):
        assert a.game_value == b.game_value
        assert a.expected_rate == b.expected_rate
        assert a.row_strategy.probs == b.row_strategy.probs
        assert a.col_strategy.probs == b.col_strategy.probs
