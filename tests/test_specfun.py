"""Tests for the incomplete-gamma and Gaussian-tail primitives."""

import math

import numpy as np
import pytest

from covertgame.specfun import (
    gaussian_q,
    gaussian_q_inv,
    reg_gamma_q,
    reg_gamma_q_grid,
)

from oracles import gamma_q_reference, gaussian_quantile_reference

# Shapes and x/n ratios that bracket everything the detection model asks for.
SHAPES = [1, 2, 10, 200, 1000]
RATIOS = [0.25, 0.5, 1.0, 1.02, 2.0, 5.0]


def test_known_closed_forms():
    # Q(1, x) = e^-x and Q(2, 1) = 2/e are textbook points.
    assert reg_gamma_q(1, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert reg_gamma_q(2, 1.0) == pytest.approx(2.0 * math.exp(-1.0), abs=1e-15)
    assert reg_gamma_q(1, 0.0) == 1.0
    assert reg_gamma_q(5, 0.0) == 1.0


def test_frozen_detection_cell():
    # The no-jammer false-alarm cell at threshold 1.02: Q(200, 200*1.02).
    assert reg_gamma_q(200, 204.0) == pytest.approx(0.3803686104663225, abs=1e-13)


def test_scalar_matches_continued_fraction_oracle():
    worst = 0.0
    for n in SHAPES:
        for r in RATIOS:
            x = r * n
            got = reg_gamma_q(n, x)
            want = gamma_q_reference(n, x)
            worst = max(worst, abs(got - want))
    assert worst <= 1e-12


def test_grid_matches_scalar_path():
    for n in SHAPES:
        x = np.array([r * n for r in RATIOS])
        grid = reg_gamma_q_grid(n, x)
        scalars = np.array([reg_gamma_q(n, float(v)) for v in x])
        assert np.max(np.abs(grid - scalars)) <= 5e-15


def test_poisson_recurrence():
    """Q(n+1, x) - Q(n, x) must equal the Poisson mass x^n e^-x / n!."""
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 400))
        x = float(rng.uniform(0.0, 3.0 * n))
        step = reg_gamma_q(n + 1, x) - reg_gamma_q(n, x)
        mass = math.exp(n * math.log(x) - x - math.lgamma(n + 1.0)) if x > 0 else 0.0
        assert abs(step - mass) <= 1e-13


def test_monotone_in_x():
    x = np.linspace(0.0, 800.0, 1601)
    q = reg_gamma_q_grid(200, x)
    assert np.all(np.diff(q) <= 1e-15)
    assert q[0] == 1.0
    assert q[-1] < 1e-12


def test_grid_shape_preserved():
    x = np.array([[0.5, 1.0], [2.0, 0.0]])
    out = reg_gamma_q_grid(3, x)
    assert out.shape == (2, 2)
    assert out[1, 1] == 1.0
    empty = reg_gamma_q_grid(3, np.array([]))
    assert empty.shape == (0,)


def test_shape_validation():
    with pytest.raises(ValueError, match="positive integer"):
        reg_gamma_q(0, 1.0)
    with pytest.raises(ValueError, match="positive integer"):
        reg_gamma_q(2.5, 1.0)
    with pytest.raises(ValueError, match="positive integer"):
        reg_gamma_q(True, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        reg_gamma_q(3, -0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        reg_gamma_q_grid(3, np.array([0.5, -0.5]))


@pytest.mark.filterwarnings("error")
def test_grid_and_scalar_agree_at_infinity():
    # Q(n, inf) = 0: the tail of a finite Poisson sum at infinite mean.
    for n in (1, 2, 200):
        assert reg_gamma_q(n, math.inf) == 0.0
        assert reg_gamma_q_grid(n, np.array([0.0, 1.0, math.inf]))[[0, 2]].tolist() == [1.0, 0.0]
    with pytest.raises(ValueError, match="nonnegative"):
        reg_gamma_q_grid(3, np.array([0.5, math.nan]))


def test_gaussian_q_inv_frozen_points():
    assert gaussian_q_inv(0.1) == pytest.approx(1.2815515655446004, abs=1e-9)
    assert gaussian_q_inv(0.05) == pytest.approx(1.6448536269514638, abs=1e-9)
    assert gaussian_q_inv(0.5) == 0.0


def test_gaussian_q_inv_matches_bisection():
    for p in [1e-6, 1e-3, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0 - 1e-6]:
        assert abs(gaussian_q_inv(p) - gaussian_quantile_reference(p)) <= 1e-9


def test_gaussian_roundtrip():
    for x in [-5.0, -1.3, 0.0, 0.7, 2.0, 6.0]:
        assert gaussian_q_inv(gaussian_q(x)) == pytest.approx(x, abs=1e-10)


def test_gaussian_q_inv_domain():
    for bad in [0.0, 1.0, -0.2, 1.5]:
        with pytest.raises(ValueError):
            gaussian_q_inv(bad)
