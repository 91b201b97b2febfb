"""Tests for the incomplete-gamma and Gaussian-tail primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covertgame.model import default_scenario
from covertgame.specfun import (
    MAX_SHAPE,
    _poisson_tables,
    _windows,
    gaussian_q,
    gaussian_q_inv,
    reg_gamma_q,
    reg_gamma_q_grid,
)

from oracles import (
    gamma_q_full_sum,
    gamma_q_reference,
    gamma_q_windowed_reference,
    gaussian_quantile_reference,
)

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


def test_grid_and_scalar_agree_at_tiny_x():
    # (x - k)/k rounds to -1 below x ~ 1e-16: that term is 0, not an error.
    for n in (2, 200):
        for x in (1e-17, 1e-300, 5e-324):
            assert reg_gamma_q(n, x) == 1.0
            assert reg_gamma_q_grid(n, np.array([x]))[0] == 1.0


def _scenario_points(s, n):
    """x = n t / scale for every threshold and distinct H0/H1 scale of s."""
    scales = np.unique([s.sigma_w_sq_mw + j for j in s.jam_grid]
                       + [p + s.sigma_w_sq_mw + j for j in s.jam_grid for p in s.power_grid])
    return (n * np.asarray(s.threshold_grid)[None, :] / scales[:, None]).ravel()


@pytest.mark.parametrize("n", [200, 2000])
def test_grid_cells_depend_on_their_point_alone(n):
    # A cell must not change with the other points of the call: alone, next
    # to a far point (which widens the chunk's rows) or in the full grid.
    x = _scenario_points(default_scenario(), n)
    full = reg_gamma_q_grid(n, x)
    picked = np.arange(0, x.size, 29)
    single = [reg_gamma_q_grid(n, x[i:i + 1])[0] for i in picked]
    paired = [reg_gamma_q_grid(n, x[[i, -1 - i]])[0] for i in picked]
    assert np.array_equal(single, full[picked])
    assert np.array_equal(paired, full[picked])


def test_grid_matches_full_sum_oracle():
    # Summing every Poisson term instead of each point's window.
    for with_jammer in (False, True):
        x = _scenario_points(default_scenario(with_jammer), 200)
        assert np.array_equal(reg_gamma_q_grid(200, x), gamma_q_full_sum(x, *_poisson_tables(200)))
    for n, stride in ((2000, 5), (10_000, 15)):
        x = _scenario_points(default_scenario(), n)[::stride]
        full = gamma_q_full_sum(x, *_poisson_tables(n))
        assert np.all(np.abs(reg_gamma_q_grid(n, x) - full) <= 1e-15 * full)


@pytest.mark.parametrize("n", [2, 15, 200, 2000, 10_000, MAX_SHAPE])
def test_grid_matches_windowed_reference_bit_for_bit(n):
    # The same floating-point operations as the reference kernel: no cell
    # may move by even one ulp, which the relative full-sum bound above
    # could not see.  Large shapes sample every 16th scenario point.
    stride = 1 if n <= 2000 else 16
    rng = np.random.default_rng(n)
    x = np.concatenate([
        _scenario_points(default_scenario(False), n)[::stride],
        _scenario_points(default_scenario(True), n)[::stride],
        rng.uniform(0.0, 3.0 * n, 2000),
        [1e-17, 0.5, n - 1, n, 5 * n, 20 * n],
    ])
    xs = np.unique(x[x > 0.0])
    want = gamma_q_windowed_reference(xs, *_poisson_tables(n), *_windows(n, xs))
    assert np.array_equal(reg_gamma_q_grid(n, xs).view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("n", [1000, 10_000, MAX_SHAPE])
def test_grid_matches_mpmath_at_large_n(n):
    r = math.sqrt(n)
    x = np.array([0.01, 0.5, 0.999, n - 1.5, n - 1.0, n - 1.0 + 1e-9, n - 0.5, n,
                  n - 9 * r, n + 9 * r, n + 9 * r + 27, n + 20 * r, n + 30 * r,
                  1.5 * n, 2 * n, 5 * n])
    got = reg_gamma_q_grid(n, x)
    want = np.array([float(gamma_q_reference(n, v)) for v in x])
    err = np.abs(got - want)
    assert np.max(err) <= 1e-10
    tail = want > 1e-300
    assert np.max(err[tail] / want[tail]) <= 1e-12


# Where a point's term window meets the ends of the sum: its top reaches
# k = n-1, its bottom leaves k = 1 (x - 9 sqrt(x) = 1), and past x = n-1
# the geometric decay of the terms below k = n-1 sets the bottom.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(2, 3000), edge=st.sampled_from(["top", "bottom", "shape", "tail"]),
       offset=st.floats(-3.0, 3.0))
def test_grid_window_edges_match_scalar_sum(n, edge, offset):
    if edge == "top":
        root = max(0.0, -9 + math.sqrt(max(0.0, 81 + 4 * (n - 28)))) / 2
        x = root * root + offset
    elif edge == "bottom":
        x = ((9 + math.sqrt(85)) / 2) ** 2 + offset
    elif edge == "shape":
        x = n - 1 + offset
    else:
        x = (n - 1) * math.exp(abs(offset))
    x = max(x, 0.0)
    got = float(reg_gamma_q_grid(n, np.array([x]))[0])
    want = reg_gamma_q(n, x)
    assert abs(got - want) <= 5e-15
    if want > 1e-300:
        assert abs(got - want) <= 1e-12 * want


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
