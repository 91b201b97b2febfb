"""Tests for zero-sum game solving and the payoff-matrix pipeline."""

import dataclasses

import numpy as np
import pytest

from covertgame import detection, lpsolve, specfun
from covertgame.detection import MixedStrategy, dep_grid, pfa_grid, pm_grid
from covertgame.matrixgame import (
    VERIFY_TOL,
    EquilibriumSolution,
    GameSolveError,
    PayoffMatrix,
    build_payoff,
    solve_game,
    verify_equilibrium,
)
from covertgame.model import default_scenario, desk_scenario, prune_negative_rate
from covertgame.rate import action_snr, normal_approx_rate

from corpus import desk_games
from oracles import fictitious_play_bounds, grid_value_bounds


def test_matching_pennies():
    sol = solve_game([[1.0, -1.0], [-1.0, 1.0]])
    assert sol.value == pytest.approx(0.0, abs=1e-10)
    assert sol.row_strategy.probs == pytest.approx([0.5, 0.5], abs=1e-10)
    assert sol.col_strategy.probs == pytest.approx([0.5, 0.5], abs=1e-10)


def test_rock_paper_scissors():
    A = [[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]]
    sol = solve_game(A)
    assert sol.value == pytest.approx(0.0, abs=1e-10)
    third = [1.0 / 3.0] * 3
    assert sol.row_strategy.probs == pytest.approx(third, abs=1e-10)
    assert sol.col_strategy.probs == pytest.approx(third, abs=1e-10)


def test_known_mixed_game():
    # Value 2/3; the row player mixes (1/3, 2/3).
    sol = solve_game([[2.0, 0.0], [0.0, 1.0]])
    assert sol.value == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert sol.row_strategy.probs == pytest.approx([1 / 3, 2 / 3], abs=1e-10)


def test_saddle_point_game():
    # Row 2 dominates row 1; column 2 is the detector's answer.  Pure saddle.
    sol = solve_game([[3.0, 1.0], [4.0, 2.0]])
    assert sol.value == pytest.approx(2.0, abs=1e-10)
    assert sol.row_strategy.probs == pytest.approx([0.0, 1.0], abs=1e-10)
    assert sol.col_strategy.probs == pytest.approx([0.0, 1.0], abs=1e-10)


def test_orientations_agree():
    rng = np.random.default_rng(2)
    for _ in range(20):
        # Non-square, so one of A and -A^T (players swapped) has more rows
        # than columns, and solve_game builds its LP from the other: both
        # solves run the same LP, so they must agree bit for bit.
        shape = rng.choice(np.arange(2, 7), size=2, replace=False)
        A = rng.uniform(-3.0, 3.0, size=tuple(int(d) for d in shape))
        direct, swapped = solve_game(A), solve_game(-A.T)
        assert (direct.row_strategy.prob_array().tobytes()
                == swapped.col_strategy.prob_array().tobytes())
        assert (direct.col_strategy.prob_array().tobytes()
                == swapped.row_strategy.prob_array().tobytes())
        assert np.float64(direct.value).tobytes() == np.float64(-swapped.value).tobytes()
        assert direct.iterations == swapped.iterations


def test_affine_covariance():
    A = np.random.default_rng(9).uniform(-2, 2, size=(4, 5))
    base = solve_game(A)
    scaled = solve_game(2.5 * A + 7.0)
    assert scaled.value == pytest.approx(2.5 * base.value + 7.0, abs=1e-7)
    assert scaled.row_strategy.probs == pytest.approx(base.row_strategy.probs, abs=1e-6)


def test_permutation_invariance():
    rng = np.random.default_rng(4)
    A = rng.uniform(-5, 5, size=(6, 8))
    perm_r = rng.permutation(6)
    perm_c = rng.permutation(8)
    sol = solve_game(A)
    shuffled = solve_game(A[np.ix_(perm_r, perm_c)])
    assert shuffled.value == pytest.approx(sol.value, abs=1e-8)
    back_row = np.empty(6)
    back_row[perm_r] = shuffled.row_strategy.prob_array()
    crossed = EquilibriumSolution(
        row_strategy=MixedStrategy(tuple(range(6)), tuple(back_row)),
        col_strategy=sol.col_strategy,
        value=sol.value,
        row_gap=0.0, col_gap=0.0)
    row_gap, col_gap = verify_equilibrium(A, crossed)
    assert row_gap <= VERIFY_TOL and col_gap <= VERIFY_TOL


def test_value_sandwiched_by_oracles():
    """Small random games against two game-free value estimators."""
    rng = np.random.default_rng(8)
    matrices = [
        rng.uniform(-5.0, 5.0, size=(int(rng.integers(1, 5)), int(rng.integers(1, 5))))
        for _ in range(25)
    ]
    values = [solve_game(A).value for A in matrices]
    fp_lo, fp_hi = fictitious_play_bounds(matrices, rounds=20000)
    for A, v, f_lo, f_hi in zip(matrices, values, fp_lo, fp_hi):
        lo, hi = grid_value_bounds(A, denom=100)
        assert lo - 1e-9 <= v <= hi + 1e-9
        assert f_lo - 1e-9 <= v <= f_hi + 1e-9


def test_degenerate_shapes():
    one = solve_game([[4.0]])
    assert one.value == pytest.approx(4.0)
    row = solve_game([[1.0, 3.0, 2.0]])
    assert row.value == pytest.approx(1.0)
    col = solve_game([[1.0], [3.0], [2.0]])
    assert col.value == pytest.approx(3.0)
    with pytest.raises(ValueError, match="2-d and nonempty"):
        solve_game(np.zeros((0, 3)))


def test_verify_equilibrium_flags_bad_strategies():
    A = np.array([[1.0, -1.0], [-1.0, 1.0]])
    good = solve_game(A)
    row_gap, col_gap = verify_equilibrium(A, good)
    assert row_gap <= VERIFY_TOL and col_gap <= VERIFY_TOL
    assert (row_gap, col_gap) == (good.row_gap, good.col_gap)
    lopsided = EquilibriumSolution(
        row_strategy=MixedStrategy((0, 1), (0.9, 0.1)),
        col_strategy=good.col_strategy,
        value=good.value,
        row_gap=0.0, col_gap=0.0)
    row_gap, col_gap = verify_equilibrium(A, lopsided)
    assert not (row_gap <= VERIFY_TOL and col_gap <= VERIFY_TOL)
    assert row_gap == pytest.approx(0.8, abs=1e-12)


@pytest.mark.parametrize("doctor, gap", [
    (lambda x: np.array([0.9, 0.1, x[-1]]), "col_gap=8.000e-01"),  # a bad column mixture
    (lambda x: np.array([*x[:-1], x[-1] + 0.5]), "row_gap=5.000e-01"),  # an overstated value
], ids=["strategy", "value"])
def test_solve_game_rejects_an_unverified_lp_answer(monkeypatch, doctor, gap):
    # Matching pennies is square, so its game LP is built from A itself: x is
    # the column mixture, then the value.  solve_game must judge the LP's
    # answer itself.
    real = lpsolve.solve

    def doctored(lp):
        sol = real(lp)
        return dataclasses.replace(sol, x=doctor(sol.x))

    monkeypatch.setattr(lpsolve, "solve", doctored)
    with pytest.raises(GameSolveError, match=f"verification failed: .*{gap}"):
        solve_game([[1.0, -1.0], [-1.0, 1.0]])


@pytest.mark.parametrize("doctor, message", [
    (lambda x: np.array([1.5, -0.5, x[-1]]), "col strategy has negative mass -5.000e-01"),
    (lambda x: np.array([0.6, 0.6, x[-1]]), "col strategy mass 1.2 is not 1"),
], ids=["negative", "mass"])
def test_solve_game_rejects_an_lp_answer_that_is_no_mixture(monkeypatch, doctor, message):
    # As above, x holds matching pennies' column mixture and then the value.
    real = lpsolve.solve

    def doctored(lp):
        sol = real(lp)
        return dataclasses.replace(sol, x=doctor(sol.x))

    monkeypatch.setattr(lpsolve, "solve", doctored)
    with pytest.raises(GameSolveError, match=message):
        solve_game([[1.0, -1.0], [-1.0, 1.0]])


def test_solve_game_names_a_singular_basis_stop(monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    with pytest.raises(GameSolveError, match="game LP \\(col orientation\\) ended with status "
                                             "numerical-failure: basis matrix singular"):
        solve_game([[0.9, 0.2, 0.5], [0.1, 0.8, 0.4]])


def test_verify_equilibrium_reads_a_payoff_matrix():
    payoff = build_payoff(prune_negative_rate(desk_scenario(False)))
    solution = solve_game(payoff)
    gaps = verify_equilibrium(payoff, solution)
    assert gaps == verify_equilibrium(payoff.entries, solution) == (solution.row_gap,
                                                                      solution.col_gap)


def test_expected_rate_needs_one_probability_per_row():
    payoff = build_payoff(prune_negative_rate(desk_scenario(False)))
    two = MixedStrategy(payoff.actions[:2], (0.5, 0.5))
    with pytest.raises(ValueError, match=f"2 probabilities for {len(payoff.actions)} table rows"):
        payoff.expected_rate(two)
    rates = payoff.rate_terms
    assert payoff.expected_rate(two, [0, 1]) == 0.5 * rates[0] + 0.5 * rates[1]


def test_build_payoff_entries():
    s = default_scenario()
    pruned = prune_negative_rate(s)
    payoff = build_payoff(pruned)
    assert payoff.entries.shape == (99, 301)
    assert payoff.beta == s.beta
    dep = dep_grid(s, pruned.actions)
    rates = np.array([normal_approx_rate(action_snr(s, p, j), s.blocklength_n, s.delta)
                      for p, j in pruned.actions])
    assert np.array_equal(payoff.dep_terms, dep)
    assert np.max(np.abs(payoff.entries - (rates[:, None] + s.beta * dep))) == 0.0
    assert payoff.actions == pruned.actions
    assert payoff.scenario.threshold_grid == s.threshold_grid


@pytest.mark.parametrize("with_jammer", [False, True])
def test_build_payoff_makes_one_gamma_call(monkeypatch, with_jammer):
    # P_FA and P_M cells share one kernel call and keep the bits the two
    # grids have when each is evaluated on its own.
    s = desk_scenario(True) if with_jammer else default_scenario(False)
    pruned = prune_negative_rate(s)
    calls = []
    real = specfun.reg_gamma_q_grid

    def counted(n, x):
        calls.append(x.shape)
        return real(n, x)

    for module in (specfun, detection):
        monkeypatch.setattr(module, "reg_gamma_q_grid", counted)
    payoff = build_payoff(pruned)
    assert len(calls) == 1, calls
    monkeypatch.undo()
    for got, want in ((payoff.pfa_terms, pfa_grid(s, pruned.actions)),
                      (payoff.pm_terms, pm_grid(s, pruned.actions))):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_with_beta_matches_fresh_build():
    s = default_scenario()
    payoff = build_payoff(prune_negative_rate(s))
    rebuilt = payoff.with_beta(2.0)
    direct = build_payoff(prune_negative_rate(dataclasses.replace(s, beta=2.0)))
    assert np.array_equal(rebuilt.entries, direct.entries)
    assert rebuilt.beta == 2.0
    with pytest.raises(ValueError, match="beta"):
        payoff.with_beta(0.0)


def test_payoff_arrays_are_read_only():
    payoff = build_payoff(prune_negative_rate(default_scenario()))
    with pytest.raises(ValueError):
        payoff.entries[0, 0] = 99.0


def test_frozen_no_jammer_equilibrium():
    """Regression pin for the reference configuration's equilibrium."""
    payoff = build_payoff(prune_negative_rate(default_scenario()))
    sol = solve_game(payoff)
    assert sol.value == pytest.approx(1.4303881507861593, abs=1e-9)
    assert sol.row_gap <= 1e-8 and sol.col_gap <= 1e-8
    row = dict(zip(sol.row_strategy.actions, sol.row_strategy.probs))
    col = dict(zip(sol.col_strategy.actions, sol.col_strategy.probs))
    assert row[(0.02, 0.0)] == pytest.approx(0.9427489276817904, abs=1e-7)
    assert row[(1.0, 0.0)] == pytest.approx(0.05725107231820957, abs=1e-7)
    assert col[1.02] == pytest.approx(0.21453838609795986, abs=1e-7)
    assert col[1.03] == pytest.approx(0.7854616139020402, abs=1e-7)
    kept = {a for a, p in row.items() if p > 1e-9}
    assert kept == {(0.02, 0.0), (1.0, 0.0)}


def test_threshold_best_response_matches_dep_minimum():
    # The detector's equilibrium support consists of best responses: the
    # thresholds within 1e-12 of the least expected detection error.
    payoff = build_payoff(prune_negative_rate(default_scenario()))
    sol = solve_game(payoff)
    expected = sol.row_strategy.prob_array() @ payoff.dep_terms
    best = set(np.flatnonzero(expected <= expected.min() + 1e-12).tolist())
    assert set(sol.col_strategy.support()) <= best


@pytest.mark.xfail(strict=True, raises=GameSolveError,
                   reason="most desk jammer games at n = 2000 end without a verified equilibrium")
def test_first_150_corpus_games_verify_at_n_2000():
    """The seeded corpus's solver gate at a long block.

    At n = 2000, 94 of the first 150 games fail verification, game 0 among
    them, so this stops within about a second.  It passes once the game LP
    keeps its accuracy at long blocks.
    """
    for s in desk_games(150, 0, 2000):
        solve_game(build_payoff(prune_negative_rate(s)))
