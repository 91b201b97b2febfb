"""Tests for the bounded-variable two-phase simplex solver."""

import numpy as np
import pytest

from covertgame.lpsolve import (
    ITERATION_CAP,
    OPTIMAL,
    InfeasibleError,
    LinearProgram,
    UnboundedError,
    solve,
)

from oracles import ExactInfeasible, ExactUnbounded, exact_lp_value


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


def test_iteration_cap_status():
    problem = lp("min", [1.0, 1.0], [[1.0, 2.0], [3.0, 1.0]], [4.0, 6.0],
                 [">=", ">="], [(0.0, None), (0.0, None)])
    sol = solve(problem, max_iterations=1)
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
