"""Tests for the bounded-variable two-phase simplex solver."""

from fractions import Fraction

import numpy as np
import pytest

from covertgame import lpsolve
from covertgame.experiments import default_beta_grid
from covertgame.lpsolve import (
    ITERATION_CAP,
    NUMERICAL_FAILURE,
    OPTIMAL,
    InfeasibleError,
    LinearProgram,
    UnboundedError,
    _Simplex,
    solve,
)
from covertgame.matrixgame import _game_lp, build_payoff
from covertgame.model import default_scenario, desk_scenario, prune_negative_rate

from oracles import (
    ExactInfeasible,
    ExactUnbounded,
    ReferenceInfeasible,
    ReferenceUnbounded,
    exact_lp_value,
    simplex_reference,
)


def lp(sense, objective, lhs, rhs, kinds, bounds):
    return LinearProgram(
        sense=sense,
        objective=np.asarray(objective, dtype=float),
        lhs=np.asarray(lhs, dtype=float),
        rhs=np.asarray(rhs, dtype=float),
        kinds=tuple(kinds),
        bounds=tuple(bounds),
    )


def test_textbook_problem_with_duals():
    # min x + y subject to x + 2y >= 4 and 3x + y >= 6, x, y >= 0.
    # Optimum x = (1.6, 1.2), value 2.8, dual prices (0.4, 0.2).
    problem = lp("min", [1.0, 1.0], [[1.0, 2.0], [3.0, 1.0]], [4.0, 6.0],
                 [">=", ">="], [(0.0, None), (0.0, None)])
    sol = solve(problem)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(2.8, abs=1e-10)
    assert sol.x == pytest.approx([1.6, 1.2], abs=1e-10)
    assert sol.duals == pytest.approx([0.4, 0.2], abs=1e-10)


def test_maximization_with_upper_bounds():
    # max 2x + 3y with x + y <= 4, x <= 2, y <= 3 (as variable bounds).
    problem = lp("max", [2.0, 3.0], [[1.0, 1.0]], [4.0],
                 ["<="], [(0.0, 2.0), (0.0, 3.0)])
    sol = solve(problem)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(11.0, abs=1e-10)
    assert sol.x == pytest.approx([1.0, 3.0], abs=1e-10)


def test_free_variable_and_equality():
    # min |x| style: x free, x = 5 forces the shifted representation to work.
    problem = lp("min", [1.0], [[1.0]], [5.0], ["="], [(None, None)])
    sol = solve(problem)
    assert sol.status == OPTIMAL
    assert sol.x[0] == pytest.approx(5.0, abs=1e-10)


def test_negative_lower_bounds():
    problem = lp("min", [1.0, 1.0], [[1.0, 1.0]], [-3.0],
                 [">="], [(-4.0, 4.0), (-4.0, 4.0)])
    sol = solve(problem)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(-3.0, abs=1e-10)


@pytest.mark.parametrize("sense, objective, lhs, rhs, kinds, bounds, x", [
    # max 2x + y, x + y <= 5, x - y >= -2: x starts at its upper bound 3.
    ("max", [2.0, 1.0], [[1.0, 1.0], [1.0, -1.0]], [5.0, -2.0], ["<=", ">="],
     [(None, 3.0), (None, 4.0)], [3.0, 2.0]),
    # min x, x + y >= -3, 0 <= y <= 2: x must leave its upper bound 1.
    ("min", [1.0, 0.0], [[1.0, 1.0]], [-3.0], [">="],
     [(None, 1.0), (0.0, 2.0)], [-5.0, 2.0]),
])
def test_upper_only_bounds(sense, objective, lhs, rhs, kinds, bounds, x):
    sol = solve(lp(sense, objective, lhs, rhs, kinds, bounds))
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(
        float(exact_lp_value(sense, objective, lhs, rhs, kinds, bounds)), abs=1e-10)
    assert sol.x == pytest.approx(x, abs=1e-10)


def test_infeasible_raises():
    problem = lp("min", [1.0], [[1.0], [1.0]], [2.0, 1.0],
                 [">=", "<="], [(0.0, None)])
    with pytest.raises(InfeasibleError):
        solve(problem)
    boxed = lp("min", [1.0], [[1.0]], [9.0], [">="], [(0.0, 5.0)])
    with pytest.raises(InfeasibleError):
        solve(boxed)


def test_unbounded_raises():
    problem = lp("max", [1.0, 0.0], [[0.0, 1.0]], [1.0],
                 ["<="], [(0.0, None), (0.0, None)])
    with pytest.raises(UnboundedError):
        solve(problem)


def test_validation_errors():
    with pytest.raises(ValueError, match="sense"):
        lp("maximize", [1.0], [[1.0]], [1.0], ["<="], [(0.0, None)])
    with pytest.raises(ValueError, match="shapes"):
        lp("min", [1.0, 2.0], [[1.0]], [1.0], ["<="], [(0.0, None)])
    with pytest.raises(ValueError, match="kinds"):
        lp("min", [1.0], [[1.0]], [1.0], ["<"], [(0.0, None)])
    with pytest.raises(ValueError, match="bound pair"):
        lp("min", [1.0], [[1.0]], [1.0], ["<="], [])
    with pytest.raises(ValueError, match="empty bound interval"):
        lp("min", [1.0], [[1.0]], [1.0], ["<="], [(2.0, 1.0)])


def solve_capped(problem, cap):
    """``solve`` with lpsolve's one cap rule, 50 (m + n) iterations, lowered
    so that ``problem`` stops after ``cap`` iterations, as
    ``simplex_reference(problem, cap)`` does; ``None`` keeps the rule."""
    with pytest.MonkeyPatch.context() as patch:
        if cap is not None:
            patch.setattr(lpsolve, "_ITERATIONS_PER_DIM", Fraction(cap, sum(problem.lhs.shape)))
        return solve(problem)


def test_iteration_cap_status():
    problem = lp("min", [1.0, 1.0], [[1.0, 2.0], [3.0, 1.0]], [4.0, 6.0],
                 [">=", ">="], [(0.0, None), (0.0, None)])
    sol = solve_capped(problem, 1)
    assert sol.status == ITERATION_CAP
    assert "iteration" in sol.message


def test_scaling_robustness():
    # Same geometry as the textbook problem but with wildly scaled rows/cols.
    problem = lp("min", [1e-6, 1e6],
                 [[1e-6, 2e6], [3e-6, 1e6]], [4.0, 6.0],
                 [">=", ">="], [(0.0, None), (0.0, None)])
    sol = solve(problem)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(2.8, abs=1e-8)


def test_determinism():
    rng = np.random.default_rng(5)
    problem = lp("max", rng.uniform(-1, 1, 12), rng.uniform(-1, 1, (8, 12)),
                 rng.uniform(1, 2, 8), ["<="] * 8, [(0.0, 1.0)] * 12)
    first = solve(problem)
    second = solve(problem)
    assert first.status == second.status == OPTIMAL
    assert first.objective == second.objective
    assert np.array_equal(first.x, second.x)
    assert first.iterations == second.iterations


def random_lp(rng):
    """A bounded-feasible-by-construction LP with eighths-valued data."""
    m = int(rng.integers(1, 21))
    n = int(rng.integers(1, 21))
    lhs = rng.integers(-32, 33, size=(m, n)) / 8.0
    x0 = rng.integers(-16, 17, size=n) / 8.0
    kinds = [str(k) for k in rng.choice(["<=", ">=", "="], size=m, p=[0.45, 0.45, 0.1])]
    margin = rng.integers(0, 17, size=m) / 8.0
    b = lhs @ x0
    rhs = [
        float(b[i] + margin[i]) if kinds[i] == "<=" else
        float(b[i] - margin[i]) if kinds[i] == ">=" else float(b[i])
        for i in range(m)
    ]
    bounds = [
        (x0[j] - float(rng.integers(0, 33)) / 8.0,
         x0[j] + float(rng.integers(0, 33)) / 8.0)
        for j in range(n)
    ]
    objective = rng.integers(-32, 33, size=n) / 8.0
    sense = "min" if rng.random() < 0.5 else "max"
    return lp(sense, objective, lhs, rhs, kinds, bounds)


def test_agrees_with_exact_rational_simplex():
    """50 random bounded LPs against a Fraction-arithmetic reference solver."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        problem = random_lp(rng)
        try:
            want = exact_lp_value(
                problem.sense, problem.objective.tolist(), problem.lhs.tolist(),
                problem.rhs.tolist(), list(problem.kinds), list(problem.bounds))
        except (ExactInfeasible, ExactUnbounded):  # pragma: no cover
            pytest.fail("corpus is feasible and bounded by construction")
        sol = solve(problem)
        assert sol.status == OPTIMAL
        worst = max(worst, abs(sol.objective - float(want)))
    assert worst <= 1e-9


@pytest.mark.parametrize("objective, lhs, rhs, bounds, match", [
    ([1.0, 1.0], [[np.nan, 1.0]], [1.0], [(0.0, None)] * 2, "lhs"),
    ([1.0, 1.0], [[1.0, np.inf]], [1.0], [(0.0, None)] * 2, "lhs"),
    ([1.0, 1.0], [[1.0, 1.0]], [np.inf], [(0.0, None)] * 2, "rhs"),
    ([1.0, 1.0], [[1.0, 1.0]], [np.nan], [(0.0, None)] * 2, "rhs"),
    ([np.inf, 1.0], [[1.0, 1.0]], [1.0], [(0.0, None)] * 2, "objective"),
    ([np.nan, 1.0], [[1.0, 1.0]], [1.0], [(0.0, None)] * 2, "objective"),
    ([1.0, 1.0], [[1.0, 1.0]], [1.0], [(np.nan, None), (0.0, None)], "NaN"),
    ([1.0, 1.0], [[1.0, 1.0]], [1.0], [(0.0, np.nan), (0.0, None)], "NaN"),
    ([1.0, 1.0], [[1.0, 1.0]], [1.0], [(np.inf, None), (0.0, None)], "lower bound"),
    ([1.0, 1.0], [[1.0, 1.0]], [1.0], [(None, -np.inf), (0.0, None)], "upper bound"),
], ids=["nan-lhs", "inf-lhs", "inf-rhs", "nan-rhs", "inf-objective", "nan-objective",
        "nan-lower-bound", "nan-upper-bound", "inf-lower-bound", "minus-inf-upper-bound"])
def test_non_finite_data_is_rejected(objective, lhs, rhs, bounds, match):
    with pytest.raises(ValueError, match=match):
        lp("min", objective, lhs, rhs, [">="], bounds)


def test_infinite_bounds_on_the_open_side_mean_none():
    explicit = solve(lp("min", [-1.0, 1.0], [[1.0, 1.0]], [1.0], ["="],
                        [(-np.inf, 3.0), (0.0, np.inf)]))
    implicit = solve(lp("min", [-1.0, 1.0], [[1.0, 1.0]], [1.0], ["="],
                        [(None, 3.0), (0.0, None)]))
    assert explicit.status == implicit.status == OPTIMAL
    assert np.array_equal(explicit.x, implicit.x)
    assert explicit.x == pytest.approx([1.0, 0.0], abs=1e-12)


@pytest.fixture(scope="module")
def reference_payoff():
    return build_payoff(prune_negative_rate(default_scenario()))


@pytest.fixture(scope="module")
def desk_payoff():
    return build_payoff(prune_negative_rate(desk_scenario(True)))


def degenerate_lp():
    """Beale's cycling example: three of its four iterations are degenerate."""
    return lp("min", [-0.75, 20.0, -0.5, 6.0],
              [[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]],
              [0.0, 0.0, 1.0], ["<="] * 3, [(0.0, None)] * 4)


def bland_lp():
    """25 variables with a 2**-44 range flip in turn, each step degenerate.

    Their count passes 10 * rows after 21 flips, so Bland's rule picks the
    rest of the flips and the pivots that follow.
    """
    k = 25
    lhs = np.zeros((2, k + 3))
    lhs[0, :k] = 1.0
    lhs[0, k:] = [1.0, 1.0, 1.0]
    lhs[1, k:] = [1.0, -1.0, 2.0]
    objective = np.concatenate([-100.0 - np.arange(k), [-1.0, -2.0, -1.5]])
    return lp("min", objective, lhs, [1.0, 0.5], ["<=", "<="],
              [(0.0, 2.0 ** -44)] * k + [(0.0, None)] * 3)


def test_counters_on_the_reference_game(reference_payoff):
    sol = solve(_game_lp(reference_payoff.entries))
    assert sol.status == OPTIMAL
    assert (sol.iterations, sol.phase1_iterations, sol.degenerate_pivots) == (17, 3, 3)
    assert not sol.bland
    assert sol.refactorizations == 1


def test_counters_on_the_desk_jammer_game(desk_payoff, monkeypatch):
    inversions = []
    inv = np.linalg.inv

    def counting_inv(a):
        inversions.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    sol = solve(_game_lp(-desk_payoff.entries.T))
    assert sol.status == OPTIMAL
    assert (sol.iterations, sol.phase1_iterations, sol.degenerate_pivots) == (637, 2, 2)
    assert not sol.bland
    # Four refreshes at multiples of 128 iterations and the final one; the
    # start basis is a diagonal that needs no inversion.
    assert sol.refactorizations == len(inversions) == 5


def test_row_player_lp_is_the_col_lp_of_the_swapped_game(desk_payoff):
    """The ">="/"max" path on a real game LP.

    The desk payoff's row-player LP, max U subject to (pi^T A)_m >= U for
    every column m with pi on the probability simplex, walks the same
    pivots as the game LP of -A^T: the same mixture, U and the simplex
    row's dual negated, the same covering duals (a zero among them may
    differ in sign, which ``solve_game``'s clip to [0, inf) erases).
    """
    A = desk_payoff.entries
    rows, cols = A.shape
    lhs = np.zeros((cols + 1, rows + 1))
    lhs[:cols, :rows] = A.T
    lhs[:cols, rows] = -1.0
    lhs[cols, :rows] = 1.0
    rhs = np.zeros(cols + 1)
    rhs[-1] = 1.0
    objective = np.zeros(rows + 1)
    objective[-1] = 1.0
    row = solve(lp("max", objective, lhs, rhs, [">="] * cols + ["="],
                   [(0.0, 1.0)] * rows + [(None, None)]))
    col = solve(_game_lp(-A.T))
    assert row.status == col.status == OPTIMAL
    assert np.array_equal(bits(row.x[:-1]), bits(col.x[:-1]))
    assert bits(row.x[-1]) == bits(-col.x[-1])
    assert np.array_equal(row.duals[:-1], col.duals[:-1])
    assert bits(row.duals[-1]) == bits(-col.duals[-1])
    assert bits(row.objective) == bits(-col.objective)
    counters = ("iterations", "phase1_iterations", "degenerate_pivots", "refactorizations")
    assert [getattr(row, c) for c in counters] == [getattr(col, c) for c in counters]
    assert row.iterations == 637


def test_pricing_skips_a_nan_reduced_cost(monkeypatch):
    # min -x - 2y + 5z subject to x + y + z <= 4 and x + 3y <= 6: optimum
    # (3, 1, 0).  z's cost turns NaN after setup, so its reduced cost is NaN
    # at every pricing; argmax stops at that NaN, and the guard must drop z
    # and pick y, then x, as the finite cost does.
    problem = lp("min", [-1.0, -2.0, 5.0], [[1.0, 1.0, 1.0], [1.0, 3.0, 0.0]], [4.0, 6.0],
                 ["<=", "<="], [(0.0, None)] * 3)
    want = solve(problem)
    setup = _Simplex.setup
    nan_prices = []

    def setup_with_nan_cost(sx):
        setup(sx)
        sx.cost[2] = np.nan

    isnan = np.isnan

    def counting_isnan(a, *args, **kwargs):
        nan_prices.append(a.shape)
        return isnan(a, *args, **kwargs)

    monkeypatch.setattr(_Simplex, "setup", setup_with_nan_cost)
    monkeypatch.setattr(np, "isnan", counting_isnan)
    got = solve(problem)
    monkeypatch.undo()
    assert got.status == want.status == OPTIMAL
    assert got.x == pytest.approx([3.0, 1.0, 0.0], abs=1e-12)
    assert np.array_equal(bits(got.x), bits(want.x))
    assert bits(got.objective) == bits(want.objective)
    assert np.array_equal(bits(got.duals), bits(want.duals))
    assert got.iterations == want.iterations == 2
    # The guard ran at each of the three pricings, on the 5-column score.
    assert nan_prices == [(5,)] * 3


def test_counters_on_degenerate_lps():
    beale = solve(degenerate_lp())
    assert beale.status == OPTIMAL
    assert beale.objective == pytest.approx(-1.25, abs=1e-12)
    assert (beale.iterations, beale.phase1_iterations, beale.degenerate_pivots) == (4, 0, 3)
    assert not beale.bland
    flips = solve(bland_lp())
    assert flips.status == OPTIMAL
    assert flips.x[-3:] == pytest.approx([0.0, 1.0, 0.0], abs=1e-11)
    assert (flips.iterations, flips.degenerate_pivots) == (29, 25)
    assert flips.bland
    assert flips.refactorizations == 1


def mixed_lp(rng):
    """A small LP with every kind of bound and row, often degenerate.

    About a third are infeasible or unbounded; the rest are solved or hit
    the iteration cap that the caller sets.
    """
    m = int(rng.integers(1, 13))
    n = int(rng.integers(1, 13))
    lhs = rng.integers(-16, 17, size=(m, n)) / 8.0
    lhs[rng.random((m, n)) < 0.3] = 0.0
    x0 = rng.integers(-16, 17, size=n) / 8.0
    kinds = [str(k) for k in rng.choice(["<=", ">=", "="], size=m, p=[0.4, 0.4, 0.2])]
    margin = rng.integers(0, 9, size=m) / 8.0 * (rng.random(m) < 0.5)
    b = lhs @ x0
    if rng.random() < 0.1:
        b = b + rng.integers(-16, 17, size=m) / 8.0
    rhs = [float(b[i] + margin[i]) if kinds[i] == "<=" else
           float(b[i] - margin[i]) if kinds[i] == ">=" else float(b[i])
           for i in range(m)]
    bounds = []
    for j in range(n):
        lo = float(x0[j] - rng.integers(0, 17) / 8.0)
        hi = float(x0[j] + rng.integers(0, 17) / 8.0)
        fixed = float(x0[j])
        bounds.append([(lo, hi), (lo, None), (None, hi), (None, None), (fixed, fixed)]
                      [int(rng.integers(0, 5))])
    objective = rng.integers(-16, 17, size=n) / 8.0
    return lp("min" if rng.random() < 0.5 else "max", objective, lhs, rhs, kinds, bounds)


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def assert_matches_reference(problem, max_iterations=None, status=None):
    """The solver's outcome equals the reference simplex's, bit for bit.

    ``status``, when given, is the solver's own status for a basis that the
    reference calls optimal but that ends past its bounds, which the
    reference does not check.
    """
    try:
        want = simplex_reference(problem, max_iterations)
    except ReferenceInfeasible:
        with pytest.raises(InfeasibleError):
            solve_capped(problem, max_iterations)
        return "infeasible"
    except ReferenceUnbounded:
        with pytest.raises(UnboundedError):
            solve_capped(problem, max_iterations)
        return "unbounded"
    got = solve_capped(problem, max_iterations)
    if status is None:
        assert (got.status, got.message) == (want.status, want.message)
    else:
        assert (want.status, got.status) == (OPTIMAL, status)
        assert "past its bounds (scaled)" in got.message
    assert got.iterations == want.iterations
    assert np.array_equal(bits(got.x), bits(want.x))
    assert np.array_equal(bits(got.duals), bits(want.duals))
    assert bits(got.objective) == bits(want.objective)
    return got.status


def test_start_inverse_and_values_have_lapack_bits(reference_payoff):
    """The +-1 diagonal start basis is inverted without LAPACK, to its bits."""
    rng = np.random.default_rng(11)
    problems = [mixed_lp(rng) for _ in range(100)]
    problems += [_game_lp(reference_payoff.entries), _game_lp(-reference_payoff.entries.T)]
    signs = set()
    for problem in problems:
        sx = _Simplex(problem)
        sx.setup()
        inverse = np.linalg.inv(sx.cols[:, sx.basis])
        assert np.array_equal(bits(sx.binv), bits(inverse))
        values = inverse @ sx._nonbasic_residual()
        assert np.array_equal(bits(sx.xval[sx.basis]), bits(values))
        signs.update(np.diag(inverse).tolist())
    assert signs == {-1.0, 1.0}


def test_matches_reference_simplex_on_game_lps(reference_payoff, desk_payoff):
    for entries in (reference_payoff.entries, -reference_payoff.entries.T):
        assert_matches_reference(_game_lp(entries))
    for beta in default_beta_grid():
        assert_matches_reference(_game_lp(reference_payoff.with_beta(beta).entries))
    assert_matches_reference(_game_lp(-desk_payoff.entries.T))
    # beta = 0.7626, whose game LP (of the swapped game) ends 3e-7 past a
    # bound: the same bits as the reference, which calls them optimal, but
    # reported as a numerical failure.
    assert assert_matches_reference(_game_lp(-desk_payoff.with_beta(0.7626).entries.T),
                                    status=NUMERICAL_FAILURE) == NUMERICAL_FAILURE
    # Stopped after the refresh at iteration 256, x holds the updated values.
    assert assert_matches_reference(_game_lp(-desk_payoff.entries.T), 300) == ITERATION_CAP


def test_matches_reference_simplex_on_random_lps():
    rng = np.random.default_rng(2024)
    outcomes = {}
    for i in range(300):
        outcome = assert_matches_reference(mixed_lp(rng), 3 if i % 10 == 9 else None)
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    assert set(outcomes) == {OPTIMAL, ITERATION_CAP, "infeasible", "unbounded"}
    for problem in (degenerate_lp(), bland_lp()):
        assert assert_matches_reference(problem) == OPTIMAL


# A 2 x 3 game, whose game LP solve_game builds as is (it has fewer rows than columns).
SMALL_GAME = np.array([[0.9, 0.2, 0.5], [0.1, 0.8, 0.4]])


def break_linalg(monkeypatch, *names):
    """Make each named np.linalg routine raise LinAlgError."""
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    for name in names:
        monkeypatch.setattr(np.linalg, name, singular)


def test_singular_basis_stops_with_finite_duals(monkeypatch):
    problem = _game_lp(SMALL_GAME)
    healthy = solve(problem)
    assert healthy.status == OPTIMAL
    m = len(problem.rhs)
    break_linalg(monkeypatch, "inv")
    stopped = solve(problem)
    assert stopped.status == NUMERICAL_FAILURE
    assert stopped.message == "basis matrix singular: Singular matrix"
    assert np.array_equal(stopped.duals, healthy.duals)
    # With the dual solve failing too, the duals come from the basis
    # inverse the pivots kept.
    break_linalg(monkeypatch, "solve")
    fallback = solve(problem)
    assert fallback.status == NUMERICAL_FAILURE
    assert fallback.message == stopped.message
    assert fallback.duals.shape == (m,) and np.isfinite(fallback.duals).all()
    assert fallback.duals == pytest.approx(healthy.duals, abs=1e-12)
