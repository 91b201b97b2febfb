"""Tests for the incomplete-gamma and Gaussian-tail primitives."""

import math
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covertgame import specfun
from covertgame.matrixgame import build_payoff
from covertgame.model import default_scenario, desk_scenario, prune_negative_rate
from covertgame.specfun import (
    _TEMME_BAND,
    _TEMME_C,
    _WINDOW_SUM_MAX_SHAPE,
    MAX_SHAPE,
    MIN_TAIL_PROB,
    _long_block_q,
    _poisson_tables,
    _q_negligible,
    _q_rounds_to_one,
    _rows,
    _tail_cut,
    _temme_q,
    _window_sums,
    _windows,
    gaussian_q_inv,
    reg_gamma_q_grid,
)

from oracles import (
    gamma_q_full_sum,
    gamma_q_reference,
    gamma_q_windowed_reference,
    gaussian_quantile_reference,
    poisson_windows,
    tail_cut_ends,
    temme_coefficients,
)


def _q_at(n, x):
    """Q(n, x) at one point: a one-point call of the grid."""
    return float(reg_gamma_q_grid(n, np.array([float(x)]))[0])


# Shapes and x/n ratios that bracket everything the detection model asks for.
SHAPES = [1, 2, 10, 200, 1000]
RATIOS = [0.25, 0.5, 1.0, 1.02, 2.0, 5.0]


def test_known_closed_forms():
    # Q(1, x) = e^-x and Q(2, 1) = 2/e are textbook points.
    assert _q_at(1, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert _q_at(2, 1.0) == pytest.approx(2.0 * math.exp(-1.0), abs=1e-15)
    assert _q_at(1, 0.0) == 1.0
    assert _q_at(5, 0.0) == 1.0


@pytest.mark.filterwarnings("error")
def test_shape_one_is_exp_minus_x_bit_for_bit():
    # n = 1 takes the window sums with every window empty: no row adds a
    # term, so each sum stays 0.0 and e^-x is added to it once.
    x = np.concatenate([np.linspace(0.0, 800.0, 3201), [1e-300, 1e-10, 745.1, 745.2]])
    assert np.array_equal(reg_gamma_q_grid(1, x).view(np.int64), np.exp(-x).view(np.int64))
    # Calls that leave either kernel no point to sum.
    for n in (1, 5, _WINDOW_SUM_MAX_SHAPE + 1, MAX_SHAPE):
        assert reg_gamma_q_grid(n, np.array([])).shape == (0,)
        assert reg_gamma_q_grid(n, np.array([0.0, math.inf])).tolist() == [1.0, 0.0]


def test_frozen_detection_cell():
    # The no-jammer false-alarm cell at threshold 1.02: Q(200, 200*1.02).
    assert _q_at(200, 204.0) == pytest.approx(0.3803686104663225, abs=1e-13)


def test_scalar_matches_continued_fraction_oracle():
    worst = 0.0
    for n in SHAPES:
        for r in RATIOS:
            x = r * n
            got = _q_at(n, x)
            want = gamma_q_reference(n, x)
            worst = max(worst, abs(got - want))
    assert worst <= 1e-12


def test_grid_matches_scalar_path():
    # The grid and one-point calls of it, against the full Poisson sum; a
    # one-point call equals the full grid's cell bit for bit.
    for n in SHAPES:
        x = np.array([r * n for r in RATIOS])
        full = gamma_q_full_sum(x, *_poisson_tables(n))
        scalars = np.array([_q_at(n, float(v)) for v in x])
        assert np.max(np.abs(reg_gamma_q_grid(n, x) - full)) <= 5e-15
        assert np.max(np.abs(scalars - full)) <= 5e-15
        assert np.array_equal(scalars, reg_gamma_q_grid(n, x))


def test_poisson_recurrence():
    """Q(n+1, x) - Q(n, x) must equal the Poisson mass x^n e^-x / n!."""
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 400))
        x = float(rng.uniform(0.0, 3.0 * n))
        step = _q_at(n + 1, x) - _q_at(n, x)
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
        _q_at(0, 1.0)
    with pytest.raises(ValueError, match="positive integer"):
        _q_at(2.5, 1.0)
    with pytest.raises(ValueError, match="positive integer"):
        _q_at(True, 1.0)
    # The accuracy domain ends at MAX_SHAPE.
    assert reg_gamma_q_grid(MAX_SHAPE, np.array([1.0]))[0] == 1.0
    for n in (MAX_SHAPE + 1, np.int64(MAX_SHAPE + 1), 2 * MAX_SHAPE):
        with pytest.raises(ValueError, match=f"at most MAX_SHAPE = {MAX_SHAPE}"):
            reg_gamma_q_grid(n, np.array([1.0]))
    with pytest.raises(ValueError, match="at most MAX_SHAPE"):
        _q_at(MAX_SHAPE + 1, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        _q_at(3, -0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        reg_gamma_q_grid(3, np.array([0.5, -0.5]))


@pytest.mark.filterwarnings("error")
def test_grid_and_scalar_agree_at_infinity():
    # Q(n, inf) = 0: the tail of a finite Poisson sum at infinite mean.
    for n in (1, 2, 200):
        assert _q_at(n, math.inf) == 0.0
        assert reg_gamma_q_grid(n, np.array([0.0, 1.0, math.inf]))[[0, 2]].tolist() == [1.0, 0.0]
    with pytest.raises(ValueError, match="nonnegative"):
        reg_gamma_q_grid(3, np.array([0.5, math.nan]))


def test_grid_and_scalar_agree_at_tiny_x():
    # (x - k)/k rounds to -1 below x ~ 1e-16: that term is 0, not an error.
    for n in (2, 200):
        for x in (1e-17, 1e-300, 5e-324):
            assert _q_at(n, x) == 1.0
            assert reg_gamma_q_grid(n, np.array([x]))[0] == 1.0


@pytest.mark.filterwarnings("error")
def test_negligible_q_edges():
    # n = 1: Q = e^-x exactly, negligible beyond x = 54 ln 2 + 1.
    cut = 54.0 * math.log(2.0) + 1.0
    below = np.array([0.0, 38.0, math.nextafter(cut, 0.0)])
    assert not _q_negligible(1, below).any()
    assert _q_negligible(1, np.array([math.nextafter(cut, math.inf), 1e308, math.inf])).all()
    for n in (2, 15, 200, 2000, 10_000, MAX_SHAPE):
        m = n - 1.0
        # Up to and just past n - 1 the bound is near 0 and skips nothing.
        near = np.array([0.0, 5e-324, 1.0, m, math.nextafter(m, math.inf), m + math.sqrt(m)])
        assert not _q_negligible(n, near).any()
        # x = inf (a huge threshold overflowed) has Q = 0: saturated, not NaN.
        assert _q_negligible(n, np.array([1e308, math.inf])).all()
    assert _q_negligible(200, np.zeros((2, 3))).shape == (2, 3)


@pytest.mark.parametrize("n", [1, 2, 15, 200, 2000, 10_000])
def test_negligible_points_have_kernel_q_below_2_to_minus_54(n):
    # Wherever the bound skips a point, the kernel's own Q is at most 2^-54,
    # so 1 - Q rounds to exactly 1.0 and skipping it moves no bit of P_M.
    # The dense sweep past n - 1 crosses the cut-off at every shape.
    m = max(n - 1, 1)
    rng = np.random.default_rng(n)
    x = np.concatenate([
        _scenario_points(default_scenario(), n),
        rng.uniform(0.0, 5.0 * n + 60.0, 3000),
        np.linspace(m, m + 20.0 * math.sqrt(m) + 80.0, 3000),
    ])
    skip = _q_negligible(n, x)
    q = reg_gamma_q_grid(n, x)
    assert skip.sum() > 1000
    assert np.all(q[skip] <= 2.0 ** -54)
    assert np.all(1.0 - q[skip] == 1.0)


@pytest.mark.filterwarnings("error")
def test_q_rounds_to_one_edges():
    for n in (1, 2, 200, _WINDOW_SUM_MAX_SHAPE + 1, 2000, 10_000, MAX_SHAPE):
        # From n up the bound reads 0 and proves nothing, out to x = inf;
        # just below n it is near 0 too.
        near = np.array([math.nextafter(n, 0.0), float(n), math.nextafter(n, math.inf),
                         n + math.sqrt(n), 20.0 * n, 1e308, math.inf])
        assert not _q_rounds_to_one(n, near).any()
        # Tiny and subnormal x: x/n underflows to 0 and the bound to -inf.
        assert _q_rounds_to_one(n, np.array([0.0, 5e-324, 1e-310, 1e-300, 1e-18])).all()
    assert _q_rounds_to_one(2000, np.zeros((2, 3))).shape == (2, 3)


def _x_at_upper_cut(n):
    """The largest x < n that ``_q_rounds_to_one`` proves, by bisection."""
    low, high = 0.0, float(n)
    for _ in range(200):
        mid = 0.5 * (low + high)
        low, high = (mid, high) if _q_rounds_to_one(n, np.array([mid]))[0] else (low, mid)
    return low


@pytest.mark.parametrize("n", [_WINDOW_SUM_MAX_SHAPE + 1, 2000, 10_000, MAX_SHAPE])
def test_points_proven_one_are_exactly_one(n):
    # Above n = 200, wherever the upper-tail bound fires the kernel
    # returns 1.0 bit for bit, and the 60-digit Q lies within 2^-54 of 1,
    # so 1.0 is Q correctly rounded.  The dense sweep crosses the cut-off.
    cut = _x_at_upper_cut(n)
    rng = np.random.default_rng(n)
    x = np.concatenate([
        _scenario_points(default_scenario(), n),
        rng.uniform(0.0, n, 3000),
        cut + math.sqrt(n) * np.linspace(-3.0, 3.0, 3001),
        [5e-324, 1e-300, 1e-17, 0.5, 14.35, 14.6],
    ])
    fired = _q_rounds_to_one(n, x)
    q = reg_gamma_q_grid(n, x)
    assert fired.sum() > 1000 and (~fired & (x < n)).sum() > 1000
    assert np.array_equal(q[fired].view(np.int64), np.ones(fired.sum()).view(np.int64))
    assert not fired[x > cut].any()
    # A window summed over k < 15 carries the lgamma cancellation of
    # ``_poisson_tables`` (about 5e-15) into Q(201, 14.35) and Q(2000, 14.6);
    # the bound returns them as exactly 1.0 instead.
    assert (q[np.isin(x, [14.35, 14.6])] == 1.0).all()
    # The oracle at the fired points nearest the cut-off and a spread of others.
    proven = np.sort(x[fired])
    for v in [*proven[-25:], *rng.choice(proven, 15, replace=False)]:
        assert float(1 - gamma_q_reference(n, v)) < 2.0 ** -54, v


def _x_at_oracle_upper_cut(n):
    """The x < n where the 60-digit 1 - Q(n, x) equals 2^-54, by bisection."""
    low, high = 0.5 * n, float(n)
    for _ in range(40):
        mid = 0.5 * (low + high)
        low, high = (mid, high) if 1 - gamma_q_reference(n, mid) < 2.0 ** -54 else (low, mid)
    return low


@pytest.mark.parametrize("n", [2000, 10_000, MAX_SHAPE])
def test_q_reads_one_up_to_the_oracle_cut_off(n):
    # The Chernoff bound stops short of where 1 - Q reaches 2^-54 (about
    # 18 units at n = 2000, 45 at n = 10^4).  In between, Temme's expansion
    # still rounds Q to exactly 1.0: its erfc(-z) rounds to 2 and its
    # remainder term is below 2^-54.
    cut, true_cut = _x_at_upper_cut(n), _x_at_oracle_upper_cut(n)
    assert _TEMME_BAND[0] * n < cut < true_cut - 10.0
    x = np.linspace(cut, true_cut - 0.5, 200)
    assert not _q_rounds_to_one(n, x[1:]).any()
    assert (reg_gamma_q_grid(n, x) == 1.0).all()


def test_temme_band_starts_below_the_upper_tail_cut_off():
    # Above n = 200 every point below 0.5 n is proven to round to 1.0, so no
    # live point below n leaves Temme's band for the window sums.  The cut-off
    # rises with n from about 0.502 n at n = 201.
    for n in [*range(_WINDOW_SUM_MAX_SHAPE + 1, 1001), 2000, 10_000, MAX_SHAPE]:
        assert _x_at_upper_cut(n) >= _TEMME_BAND[0] * n, n


def test_long_block_table_sums_at_most_1_percent_of_its_points(monkeypatch):
    # A work count, not a timing: on the reference preset at n = 2000 the
    # upper-tail bound proves 10,479 of the 15,674 distinct points (67 %) and
    # Temme's expansion takes most of the rest, so only the far-tail P_FA
    # points x > 2 n, outside its band, may reach the window sums.
    points, summed = [], []
    kernel, window_sums = specfun._long_block_q, specfun._window_sums

    def counting_kernel(n, xs):
        points.append(xs.size)
        return kernel(n, xs)

    def counting_sums(n, xs):
        summed.append(xs.size if n > _WINDOW_SUM_MAX_SHAPE else 0)
        return window_sums(n, xs)

    monkeypatch.setattr(specfun, "_long_block_q", counting_kernel)
    monkeypatch.setattr(specfun, "_window_sums", counting_sums)
    build_payoff(prune_negative_rate(replace(default_scenario(), blocklength_n=2000)))
    assert points == [15_674]
    assert 0 < sum(summed) <= 0.01 * 15_674


def _scenario_points(s, n):
    """x = n t / scale for every threshold and distinct H0/H1 scale of s."""
    scales = np.unique([s.sigma_w_sq_mw + j for j in s.jam_grid]
                       + [p + s.sigma_w_sq_mw + j for j in s.jam_grid for p in s.power_grid])
    return (n * np.asarray(s.threshold_grid)[None, :] / scales[:, None]).ravel()


@pytest.mark.parametrize("n", [200, 2000])
def test_grid_cells_depend_on_their_point_alone(n):
    # A cell must not change with the other points of the call: alone, next
    # to a far point (which shares its tables) or in the full grid.
    x = _scenario_points(default_scenario(), n)
    full = reg_gamma_q_grid(n, x)
    picked = np.arange(0, x.size, 29)
    single = [reg_gamma_q_grid(n, x[i:i + 1])[0] for i in picked]
    paired = [reg_gamma_q_grid(n, x[[i, -1 - i]])[0] for i in picked]
    assert np.array_equal(single, full[picked])
    assert np.array_equal(paired, full[picked])
    # The payoff's one call joins the H0 points with the H1 points not proved
    # negligible; each set alone must keep the bits it has in the union.
    s = desk_scenario(True)
    h0 = np.unique([s.sigma_w_sq_mw + j for j in s.jam_grid])
    h1 = np.unique([p + s.sigma_w_sq_mw + j for j in s.jam_grid for p in s.power_grid])
    x0, x1 = ((n * np.asarray(s.threshold_grid)[None, :] / scales[:, None]).ravel()
              for scales in (h0, h1))
    x1 = x1[~_q_negligible(n, x1)]
    union = reg_gamma_q_grid(n, np.concatenate([x0, x1])).view(np.int64)
    assert np.array_equal(reg_gamma_q_grid(n, x0).view(np.int64), union[:x0.size])
    assert np.array_equal(reg_gamma_q_grid(n, x1).view(np.int64), union[x0.size:])


def _window_q(n, x):
    """Q(n, x) from the window sums at any shape, as reg_gamma_q_grid takes
    it up to _WINDOW_SUM_MAX_SHAPE: each distinct positive point once."""
    out = np.ones_like(x)
    xs, inverse = np.unique(x[x > 0.0], return_inverse=True)
    out[x > 0.0] = _window_sums(n, xs)[inverse]
    return out


def test_grid_matches_full_sum_oracle():
    # Summing every Poisson term instead of each point's window.
    for with_jammer in (False, True):
        x = _scenario_points(default_scenario(with_jammer), 200)
        assert np.array_equal(reg_gamma_q_grid(200, x), gamma_q_full_sum(x, *_poisson_tables(200)))
    # Above n = 200 the grid takes its far-tail cells, x > 2 n, from the
    # window sums, whose terms are the full sum's terms bit for bit.  This
    # holds the window sums at every point to the full sum, and the grid's
    # far-tail cells to the window sums.  Its cells inside Temme's band are
    # held to the 60-digit oracle instead (test_grid_matches_mpmath_at_large_n):
    # with its log1p terms the full sum itself lies up to 1.5e-13 of Q off
    # that oracle at n = 10^4 and x = 1.24 n, far more than 1e-15.
    for n, stride in ((2000, 5), (10_000, 15)):
        x = _scenario_points(default_scenario(), n)[::stride]
        full = gamma_q_full_sum(x, *_poisson_tables(n))
        assert np.all(np.abs(_window_q(n, x) - full) <= 1e-15 * full)
        tail = x > _TEMME_BAND[1] * n
        assert tail.any()
        assert np.array_equal(reg_gamma_q_grid(n, x[tail]), _window_q(n, x[tail]))


def _window_test_points(n, rng):
    """Distinct positive points of the window tests at shape n: the scenario
    grids, uniform points below 3n, edge points, and far points x in
    (n-1, 20(n-1)], whose window starts do not rise with x."""
    x = np.concatenate([
        _scenario_points(default_scenario(False), n),
        _scenario_points(default_scenario(True), n),
        rng.uniform(0.0, 3.0 * n, 2000),
        [1e-17, 0.5, n - 1, n, 5 * n, 20 * n],
        np.nextafter(n - 1, math.inf) + rng.uniform(0.0, 19.0 * (n - 1), 500),
    ])
    return np.unique(x[x > 0.0])


@pytest.mark.parametrize("n", [2, 15, 200, 2000])
def test_grid_matches_windowed_reference_bit_for_bit(n):
    # The same floating-point operations as the reference kernel: no cell
    # may move by even one ulp, which the relative full-sum bound above
    # could not see.  The grid sends the window sums shapes up to 200; one
    # shape past it, n = 2000, has the full jammer grid's 81k points give
    # the widest rows.  Calls of 1 to 8 points run alone.  At n = 200 both
    # presets' points at the benchmark's noise edges, sigma_w^2 = 0.9 and
    # 1.1, are held too: the golden commands run only at 1.0.
    rng = np.random.default_rng(n)
    xs = _window_test_points(n, rng)
    if n == _WINDOW_SUM_MAX_SHAPE:
        noisy = [_scenario_points(replace(s, sigma_w_sq_mw=noise), n)
                 for s in (default_scenario(False), desk_scenario(True)) for noise in (0.9, 1.1)]
        xs = np.unique(np.concatenate([xs, *noisy]))
        xs = xs[xs > 0.0]
    want = gamma_q_windowed_reference(xs, *_poisson_tables(n), *poisson_windows(n, xs))
    assert np.array_equal(_window_sums(n, xs).view(np.int64), want.view(np.int64))
    for size in (1, 2, 3, 5, 7, 8):
        for _ in range(20):
            pick = np.sort(rng.choice(xs.size, size, replace=False))
            got = _window_sums(n, xs[pick])
            assert np.array_equal(got.view(np.int64), want[pick].view(np.int64))


def test_grid_takes_the_long_block_kernel_only_above_n_200():
    # Every golden output pinned at n = 200 rests on the window sums' bits,
    # so there the grid is the windowed reference bit for bit; one shape
    # above, it is the long-block kernel: 1.0 where the upper-tail bound
    # proves it, Temme's expansion inside its band and the window sums outside.
    n = _WINDOW_SUM_MAX_SHAPE
    xs = _window_test_points(n, np.random.default_rng(n))
    want = gamma_q_windowed_reference(xs, *_poisson_tables(n), *poisson_windows(n, xs))
    assert np.array_equal(reg_gamma_q_grid(n, xs).view(np.int64), want.view(np.int64))
    n += 1
    xs = _window_test_points(n, np.random.default_rng(n))
    got = reg_gamma_q_grid(n, xs)
    assert np.array_equal(got.view(np.int64), _long_block_q(n, xs).view(np.int64))
    assert not np.array_equal(got, _window_sums(n, xs))
    live = ~_q_rounds_to_one(n, xs)
    band = live & (xs >= _TEMME_BAND[0] * n) & (xs <= _TEMME_BAND[1] * n)
    tail = live & ~band
    assert band.sum() > 100 and tail.sum() > 100
    assert (got[~live] == 1.0).all()
    assert np.array_equal(got[band].view(np.int64), _temme_q(n, xs[band]).view(np.int64))
    assert np.array_equal(got[tail].view(np.int64), _window_sums(n, xs[tail]).view(np.int64))


@pytest.mark.parametrize("n", [200, 2000, 10_000])
def test_kernel_windows_match_the_oracle(n):
    # The bit-for-bit tests sum the oracle's windows, so the kernel's own
    # windows, before and after the tail cut, must be those very integers.
    x = np.unique(np.concatenate([_scenario_points(s, n) for s in (
        default_scenario(False), default_scenario(True), desk_scenario(True))]))
    xs = x[x > 0.0]
    lo, hi = _windows(n, xs)
    want_lo, want_hi = poisson_windows(n, xs)
    assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)
    assert np.array_equal(_tail_cut(n, xs, lo, hi), tail_cut_ends(n, xs, want_lo, want_hi))
    assert (xs > n - 1).any() and (tail_cut_ends(n, xs, want_lo, want_hi) < want_hi).any()


def test_grid_splits_points_where_window_starts_fall(monkeypatch):
    # No x is known to make a window start fall in window-end order, but the
    # kernel must still sum each point's own window if one does.
    n = 2000
    xs = np.linspace(100.0, 3000.0, 5000)
    lo, hi = _windows(n, xs)
    lo[2000] = np.floor(xs[2000])
    monkeypatch.setattr(specfun, "_windows", lambda *_: (lo.copy(), hi.copy()))
    want = gamma_q_windowed_reference(xs, *_poisson_tables(n), lo, hi)
    assert np.array_equal(_window_sums(n, xs).view(np.int64), want.view(np.int64))


def test_tail_cut_keeps_windows_that_start_near_x(monkeypatch):
    # The cut needs the terms before it to hold over half of the Poisson
    # mass.  A window starting above x - sqrt(x) does not promise that, so
    # it keeps its end and the kernel still sums all of it, bit for bit.
    n = 2000
    xs = np.linspace(100.0, 1500.0, 3000)
    lo, hi = _windows(n, xs)
    lo[::7] = np.floor(xs[::7] + 3.0 * np.sqrt(xs[::7]))
    end = _tail_cut(n, xs, lo, hi)
    assert np.array_equal(end[::7], hi[::7])
    assert (end < hi).sum() > 2000
    monkeypatch.setattr(specfun, "_windows", lambda *_: (lo.copy(), hi.copy()))
    want = gamma_q_windowed_reference(xs, *_poisson_tables(n), lo, hi)
    assert np.array_equal(_window_sums(n, xs).view(np.int64), want.view(np.int64))


def _assert_row_contract(lo, hi):
    """_rows on windows sorted by (hi, lo): each point meets every k of its
    window once, in increasing k, and each row's slice holds only points
    whose window holds its k."""
    held = np.zeros(lo.size, dtype=int)
    last = np.full(lo.size, -1.0)
    for k, a, b in _rows(lo, hi):
        assert 0 <= a < b <= lo.size
        assert ((lo[a:b] <= k) & (k <= hi[a:b])).all()
        assert (last[a:b] < k).all()
        last[a:b] = k
        held[a:b] += 1
    assert np.array_equal(held, hi - lo + 1)


@pytest.mark.parametrize("n", [200])  # the window sums serve n <= 200 only
def test_rows_cover_each_window_once(n):
    x = np.unique(np.concatenate([_scenario_points(default_scenario(False), n),
                                  _scenario_points(default_scenario(True), n)]))
    xs = x[x > 0.0]
    lo, hi = poisson_windows(n, xs)
    for end in (hi, tail_cut_ends(n, xs, lo, hi)):  # the uncut windows, then the kernel's
        order = np.lexsort((lo, end))
        _assert_row_contract(lo[order], end[order])


def _cut_edges(n):
    """x just around 1, where the tail cut starts, and around the x whose cut
    (x + a) or uncut (x + 9 sqrt(x) + 27) window end reaches k = n-1."""
    def reach_cut(x):
        c = -specfun._NEGLIGIBLE_LOG_Q - 0.5 * math.log(2.0 * math.pi * x)
        return x + c / 3.0 + math.sqrt(c * c / 9.0 + 2.0 * c * x)

    edges = [math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0)]
    for reach in (reach_cut, lambda x: x + 9.0 * math.sqrt(x) + 27.0):
        low, high = 1.0, float(n)
        for _ in range(200):  # bisection for reach(x) = n - 1
            mid = 0.5 * (low + high)
            low, high = (mid, high) if reach(mid) < n - 1 else (low, mid)
        edges += [low + d for d in np.linspace(-3.0, 3.0, 61)]
    return np.array([e for e in edges if e > 0.0])


@pytest.mark.parametrize("n", [200, 2000, 10_000])
def test_tail_cut_drops_only_terms_that_leave_their_sum_unchanged(n):
    # Each point sums its terms from 0.0 in increasing k, as the kernel does,
    # up to its cut end; every term the cut leaves out, computed with the
    # kernel's own operations, must then round back to that same sum.
    stride = 1 if n <= 2000 else 4
    rng = np.random.default_rng(n + 1)
    x = np.concatenate([
        _scenario_points(default_scenario(False), n)[::stride],
        _scenario_points(default_scenario(True), n)[::stride],
        rng.uniform(0.0, 3.0 * n, 2000),
        _cut_edges(n),
    ])
    xs = np.unique(x[x > 0.0])
    lo, hi = _windows(n, xs)
    end = _tail_cut(n, xs, lo, hi)
    assert np.array_equal(end[(xs < 1.0) | (hi == n - 1)], hi[(xs < 1.0) | (hi == n - 1)])
    assert (end <= hi).all() and (end >= lo).all()
    assert (end < hi).sum() > xs.size // 4
    k, base = _poisson_tables(n)
    cells = 1 << 21
    start = 0
    while start < xs.size:  # chunks of points, their k from the first lo to the last hi
        stop = start + 1
        while stop < xs.size and (stop + 1 - start) * (hi[stop] - lo[start] + 1) <= cells:
            stop += 1
        first, last = int(lo[start:stop].min()), int(hi[stop - 1])
        kk, bk = k[first - 1:last, None], base[first - 1:last, None]
        shape = (kk.size, stop - start)
        with np.errstate(divide="ignore"):
            terms = specfun._terms(xs[start:stop], kk, bk, np.empty(shape), np.empty(shape))
        kept = (kk >= lo[start:stop]) & (kk <= end[start:stop])
        dropped = (kk > end[start:stop]) & (kk <= hi[start:stop])
        total = np.add.accumulate(np.where(kept, terms, 0.0), axis=0)[-1]
        rows, cols = np.nonzero(dropped)
        assert np.array_equal(total[cols] + terms[rows, cols], total[cols])
        start = stop


def test_rows_split_where_window_starts_fall():
    xs = np.linspace(100.0, 3000.0, 5000)
    lo, hi = _windows(2000, xs)
    lo[2000] = np.floor(xs[2000])
    order = np.lexsort((lo, hi))
    lo, hi = lo[order], hi[order]
    assert (lo[1:] < lo[:-1]).any()
    _assert_row_contract(lo, hi)


def _x_at_chernoff_level(n, level):
    """The x > n-1 where the Chernoff exponent (x - m) - m ln(x/m), m = n-1,
    of ``_q_negligible`` equals ``level``: there ln Q is about -level."""
    m, low, high = n - 1.0, n - 1.0, 20.0 * n
    for _ in range(100):
        mid = 0.5 * (low + high)
        low, high = (mid, high) if (mid - m) - m * math.log(mid / m) < level else (low, mid)
    return low


def test_temme_coefficients_are_the_exact_rationals_rounded():
    # Rebuilt from exact rationals (series reversion, Stirling's g_k from
    # Bernoulli numbers, DLMF 8.12.8-9): each checked-in float is its
    # rational correctly rounded.
    exact = temme_coefficients(len(_TEMME_C), len(_TEMME_C[0]))
    assert (len(_TEMME_C), len(_TEMME_C[0])) == (6, 18)
    assert exact[0][:3] == [Fraction(-1, 3), Fraction(1, 12), Fraction(-2, 135)]
    assert exact[1][0] == Fraction(-1, 540)
    assert [[float(c) for c in row] for row in exact] == [list(row) for row in _TEMME_C]


@pytest.mark.parametrize("n", [_WINDOW_SUM_MAX_SHAPE + 1, 500, 1000, 2000, 10_000, MAX_SHAPE])
def test_grid_matches_mpmath_at_large_n(n):
    # Above n = 200 these are the long-block kernel's cells.  Most far-tail
    # points have Q between about 1e-300 and 1e-40, where the log-space
    # error of every term grows with x - (n-1).  Temme's expansion holds
    # the band 0.5 n <= x <= 2 n; its edges are taken at, just below and
    # just above each, and its lower edge lies below the upper-tail bound's
    # cut-off.  Its Taylor truncation is largest just below 2 n at small n.
    r = math.sqrt(n)
    rng = np.random.default_rng(n)
    edges = [e + d for e in (_TEMME_BAND[0] * n, _TEMME_BAND[1] * n, _x_at_upper_cut(n))
             for d in (-0.5, 0.0, 0.5)]
    x = np.concatenate([
        [1e-300, 0.01, 0.5, 0.999, n - 1.5, n - 1.0, n - 1.0 + 1e-9, n - 0.5, n,
         n + 9 * r + 27, n + 20 * r, n + 30 * r, 1.5 * n, 1.9 * n, 1.99 * n, 2 * n, 5 * n,
         20 * n],
        [n - 3 * r, n + 3 * r],
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, math.inf),
        rng.uniform(0.0, 1.0, 4),
        n - 1 + r * np.linspace(-9.0, 9.0, 19),
        [_x_at_chernoff_level(n, level) for level in rng.uniform(40.0, 690.0, 60)],
        (n - 1) * np.exp(rng.uniform(0.0, math.log(20.0 * n / (n - 1)), 10)),
    ])
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
    got = _q_at(n, x)
    want = float(gamma_q_full_sum(np.array([x]), *_poisson_tables(n))[0])
    assert abs(got - want) <= 5e-15
    if want > 1e-300:
        assert abs(got - want) <= 1e-12 * want


def test_gaussian_q_inv_frozen_points():
    assert gaussian_q_inv(0.1) == pytest.approx(1.2815515655446004, abs=1e-9)
    assert gaussian_q_inv(0.05) == pytest.approx(1.6448536269514638, abs=1e-9)
    assert gaussian_q_inv(0.5) == 0.0


def test_gaussian_q_inv_matches_bisection():
    for p in [MIN_TAIL_PROB, 1e-300, 1e-6, 1e-3, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0 - 1e-6]:
        assert abs(gaussian_q_inv(p) - gaussian_quantile_reference(p)) <= 1e-9


def test_gaussian_q_inv_holds_its_accuracy_up_to_the_domain_edges():
    # The smallest normal p and its next float put |x| near 37.5, where the
    # Newton steps' pdf is still about 8e-307; 0.5 +- 2**-53 sit beside the
    # exact zero, and 1 - 2**-53 is the last float below 1.
    edges = [MIN_TAIL_PROB, math.nextafter(MIN_TAIL_PROB, 1.0), 0.5 - 2.0 ** -53,
             0.5 + 2.0 ** -53, 1.0 - 2.0 ** -53, 1.0 - 2.0 ** -52]
    sweep = np.logspace(math.log10(MIN_TAIL_PROB), math.log10(0.999), 41)
    for p in [*edges, *np.clip(sweep, MIN_TAIL_PROB, None).tolist()]:
        x = gaussian_q_inv(p)
        assert math.isfinite(x), p
        assert abs(x - gaussian_quantile_reference(p)) <= 1.31e-10, p


def test_gaussian_roundtrip():
    for x in [-5.0, -1.3, 0.0, 0.7, 2.0, 6.0]:
        assert gaussian_q_inv(0.5 * math.erfc(x / math.sqrt(2.0))) == pytest.approx(x, abs=1e-10)


def test_gaussian_q_inv_domain():
    # Subnormal p lose accuracy (1.6e-7 at 1e-320), so they are rejected.
    assert MIN_TAIL_PROB == sys.float_info.min
    for bad in [0.0, 1.0, -0.2, 1.5, math.nan, 5e-324, 1e-320, math.nextafter(MIN_TAIL_PROB, 0.0)]:
        with pytest.raises(ValueError, match="tail probability must lie in"):
            gaussian_q_inv(bad)
