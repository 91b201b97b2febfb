"""Tests for the Monte Carlo detection simulator."""

import dataclasses
import math

import numpy as np
import pytest

from covertgame import simkit
from covertgame.detection import MixedStrategy, pfa, pfa_grid, pm, pm_grid
from covertgame.model import Scenario
from covertgame.simkit import (
    CHUNK_BLOCKS,
    MAX_BLOCKS,
    N_SIGMA,
    EmpiricalDetection,
    _chunk_rng,
    _locate,
    estimate_detection,
)

from oracles import ks_two_sample, sample_statistic_per_sample


def sim_scenario():
    return Scenario(
        blocklength_n=50,
        sigma_b_sq_mw=1.0,
        sigma_w_sq_mw=1.0,
        delta=0.1,
        alpha=1.0,
        beta=1.5,
        power_grid=(0.2, 0.8),
        jam_grid=(0.0, 0.5),
        threshold_grid=(0.0, 1.2, 1.5),
    )


def test_statistic_moments():
    # The draw estimate_detection makes: standard_gamma(n) times scale s / n.
    rng = np.random.default_rng(21)
    s = 0.3 + 1.0 + 0.2
    draws = rng.standard_gamma(40, size=200000) * (s / 40)
    assert draws.mean() == pytest.approx(s, rel=0.01)
    assert draws.var() == pytest.approx(s * s / 40.0, rel=0.05)
    assert np.all(draws > 0.0)


def test_gamma_shortcut_matches_per_sample_construction():
    """KS two-sample test at the 1% level between the Gamma(n, s/n) draw and
    the long-form average of n squared complex-Gaussian magnitudes."""
    rng = np.random.default_rng(17)
    fast = rng.standard_gamma(30, size=4000) * ((0.4 + 1.0 + 0.0) / 30)
    slow = sample_statistic_per_sample(0.4, 0.0, 30, 1.0, rng, size=4000)
    stat, threshold = ks_two_sample(fast, slow)
    assert stat < threshold


def test_estimate_matches_analytic_within_three_sigma():
    s = sim_scenario()
    joint = MixedStrategy(((0.2, 0.0), (0.8, 0.5)), (0.35, 0.65))
    thr = MixedStrategy(s.threshold_grid, (0.0, 0.7, 0.3))
    result = estimate_detection(s, joint, thr, blocks=40000, seed=3)
    assert result.blocks == 40000
    assert result.consistent_with(pfa(s, joint, thr), pm(s, joint, thr))


def test_pure_strategy_against_cell_values():
    s = sim_scenario()
    # Threshold 1.5 sits right at the no-transmission mean 0.5 + 1.0, so
    # both error kinds occur often enough for meaningful standard errors.
    joint = MixedStrategy(((0.2, 0.0), (0.8, 0.5)), (0.0, 1.0))
    thr = MixedStrategy(s.threshold_grid, (0.0, 0.0, 1.0))
    result = estimate_detection(s, joint, thr, blocks=30000, seed=12)
    want_fa = pfa_grid(s, [(0.8, 0.5)])[0, 2]
    want_md = pm_grid(s, [(0.8, 0.5)])[0, 2]
    assert result.pfa_stderr > 0.0 and result.pm_stderr > 0.0
    assert abs(result.pfa_hat - want_fa) <= 3.0 * result.pfa_stderr
    assert abs(result.pm_hat - want_md) <= 3.0 * result.pm_stderr


def test_threshold_zero_always_alarms():
    s = sim_scenario()
    joint = MixedStrategy(((0.2, 0.0), (0.8, 0.5)), (1.0, 0.0))
    thr = MixedStrategy(s.threshold_grid, (1.0, 0.0, 0.0))
    result = estimate_detection(s, joint, thr, blocks=5000, seed=1)
    assert result.pfa_hat == 1.0
    assert result.pm_hat == 0.0
    assert result.pfa_stderr == 0.0


def test_reruns_are_bit_identical():
    s = sim_scenario()
    joint = MixedStrategy(((0.2, 0.0), (0.8, 0.5)), (0.5, 0.5))
    thr = MixedStrategy(s.threshold_grid, (0.1, 0.6, 0.3))
    # 20000 blocks spans multiple RNG chunks, so chunk keying is exercised.
    a = estimate_detection(s, joint, thr, blocks=20000, seed=99)
    b = estimate_detection(s, joint, thr, blocks=20000, seed=99)
    assert (a.pfa_hat, a.pm_hat) == (b.pfa_hat, b.pm_hat)
    assert (a.pfa_stderr, a.pm_stderr) == (b.pfa_stderr, b.pm_stderr)
    c = estimate_detection(s, joint, thr, blocks=20000, seed=100)
    assert (a.pfa_hat, a.pm_hat) != (c.pfa_hat, c.pm_hat)


def test_stderr_formula():
    s = sim_scenario()
    joint = MixedStrategy(((0.2, 0.0), (0.8, 0.5)), (0.5, 0.5))
    thr = MixedStrategy(s.threshold_grid, (0.0, 0.5, 0.5))
    result = estimate_detection(s, joint, thr, blocks=7000, seed=5)
    want = math.sqrt(result.pfa_hat * (1.0 - result.pfa_hat) / 7000.0)
    assert result.pfa_stderr == pytest.approx(want, abs=1e-15)
    want = math.sqrt(result.pm_hat * (1.0 - result.pm_hat) / 7000.0)
    assert result.pm_stderr == pytest.approx(want, abs=1e-15)


def test_consistent_with_logic():
    s = sim_scenario()
    joint = MixedStrategy(((0.2, 0.0), (0.8, 0.5)), (0.0, 1.0))
    thr = MixedStrategy(s.threshold_grid, (0.0, 0.0, 1.0))
    result = estimate_detection(s, joint, thr, blocks=10000, seed=8)
    assert result.consistent_with(result.pfa_hat, result.pm_hat)
    off = result.pfa_hat + 10.0 * result.pfa_stderr
    assert not result.consistent_with(off, result.pm_hat)
    # The budget is three standard errors: just inside passes, just past fails.
    assert N_SIGMA == 3.0 and result.pfa_stderr > 0.0
    inside = result.pfa_hat + 2.99 * result.pfa_stderr
    assert result.consistent_with(inside, result.pm_hat)
    past = result.pfa_hat + 3.01 * result.pfa_stderr
    assert not result.consistent_with(past, result.pm_hat)


def test_verdict_reads_the_zscores():
    # z = 0.30000000000000004 / 0.1 = 3.0000000000000004 is past three
    # standard errors, although 0.30000000000000004 <= fl(3 * 0.1).
    result = EmpiricalDetection(pfa_hat=0.30000000000000004, pm_hat=0.5, pfa_stderr=0.1,
                                pm_stderr=0.1, blocks=100, seed=0)
    assert result.zscores(0.0, 0.5) == (3.0000000000000004, 0.0)
    assert not result.consistent_with(0.0, 0.5)
    # An analytic P_FA of 2^-54, one ulp of 0.3, brings z back inside.
    assert result.zscores(2.0 ** -54, 0.5) == (2.9999999999999996, 0.0)
    assert result.consistent_with(2.0 ** -54, 0.5)
    # A zero standard error counts as 1e-300: a miss next to it is a huge z.
    exact = EmpiricalDetection(pfa_hat=1.0, pm_hat=0.0, pfa_stderr=0.0, pm_stderr=0.0,
                               blocks=10, seed=0)
    assert exact.zscores(1.0, 0.0) == (0.0, 0.0) and exact.consistent_with(1.0, 0.0)
    assert exact.zscores(0.5, 0.0) == (0.5 / 1e-300, 0.0)
    assert not exact.consistent_with(0.5, 0.0)


def test_blocks_limit_is_checked_before_any_draw(monkeypatch):
    s = sim_scenario()
    joint = MixedStrategy(((0.2, 0.0), (0.8, 0.5)), (1.0, 0.0))
    thr = MixedStrategy(s.threshold_grid, (0.0, 1.0, 0.0))

    class Drew(Exception):
        pass

    def no_draws(seed, chunk_index):
        raise Drew

    monkeypatch.setattr(simkit, "_chunk_rng", no_draws)
    assert MAX_BLOCKS == 10**10
    # The limit itself passes the check and reaches the first draw ...
    with pytest.raises(Drew):
        estimate_detection(s, joint, thr, blocks=MAX_BLOCKS, seed=1)
    # ... one more block, or any larger count, fails before it.
    for blocks in (MAX_BLOCKS + 1, 99999999999999999999):
        with pytest.raises(ValueError, match=r"blocks must lie in \[1, 10000000000\]"):
            estimate_detection(s, joint, thr, blocks=blocks, seed=1)


def test_validation():
    s = sim_scenario()
    joint = MixedStrategy(((0.2, 0.0), (0.8, 0.5)), (1.0, 0.0))
    thr = MixedStrategy(s.threshold_grid, (0.0, 1.0, 0.0))
    with pytest.raises(ValueError, match="blocks"):
        estimate_detection(s, joint, thr, blocks=0, seed=1)
    with pytest.raises(ValueError, match="seed"):
        estimate_detection(s, joint, thr, blocks=10, seed=-1)
    with pytest.raises(ValueError, match="seed"):
        estimate_detection(s, joint, thr, blocks=10, seed=2 ** 64)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8, 9, 301])
def test_locate_equals_searchsorted_right(k):
    # Counts of one bit and of several, with and without inf padding.
    rng = np.random.default_rng(k)
    cdf = (rng.random(k) + 0.01).cumsum()
    cdf /= cdf[-1]
    assert cdf[-1] == 1.0 and np.all(np.diff(cdf) > 0.0)
    # Every entry and both its neighbours, where a comparison could be off
    # by one, then random draws.
    edges = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0), [0.0]])
    u = np.concatenate([edges[edges < 1.0], rng.random(20000)])
    got = _locate(cdf, u)
    assert got.dtype == np.intp
    assert np.array_equal(got, cdf.searchsorted(u, side="right"))


def test_cdf_and_standard_gamma_draws_equal_choice_and_gamma():
    """estimate_detection draws indices from a cdf it builds once per call,
    and statistics as standard_gamma(n) * scale.  Generator.choice with p
    and Generator.gamma give the same bits from the same stream."""
    rng = np.random.default_rng(8)
    for trial in range(300):
        # Up to 12 actions: counts of one to four bits.
        k = int(rng.integers(1, 13))
        p = rng.random(k) * (rng.random(k) < 0.8)
        p[int(rng.integers(k))] += 0.1
        p /= p.sum()
        scale = rng.uniform(0.001, 0.1, k)
        n = (2, 15, 200, 2000)[trial % 4]
        count = int(rng.integers(1, 3000))
        old, new = _chunk_rng(trial, 1), _chunk_rng(trial, 1)
        a_old = old.choice(k, size=count, p=p)
        stat_old = old.gamma(shape=n, scale=scale[a_old])
        cdf = p.cumsum()
        cdf /= cdf[-1]
        a_new = _locate(cdf, new.random(count))
        stat_new = new.standard_gamma(n, size=count) * scale[a_new]
        assert np.array_equal(a_old, a_new)
        assert np.array_equal(stat_old.view(np.int64), stat_new.view(np.int64))


def estimate_with_choice_and_gamma(s, joint, thr, blocks, seed):
    """(false alarms, misses) counted as estimate_detection counted them
    with Generator.choice and Generator.gamma."""
    n = s.blocklength_n
    scale_h0 = (s.sigma_w_sq_mw + np.asarray([j for _, j in joint.actions])) / n
    scale_h1 = (np.asarray([p + j for p, j in joint.actions]) + s.sigma_w_sq_mw) / n
    thr_values = np.asarray(thr.actions, dtype=float)
    joint_p, thr_p = joint.prob_array(), thr.prob_array()
    false_alarms = misses = done = chunk = 0
    while done < blocks:
        count = min(CHUNK_BLOCKS, blocks - done)
        rng = _chunk_rng(seed, chunk)
        a0 = rng.choice(len(joint_p), size=count, p=joint_p)
        t0 = rng.choice(len(thr_p), size=count, p=thr_p)
        false_alarms += int((rng.gamma(shape=n, scale=scale_h0[a0]) > thr_values[t0]).sum())
        a1 = rng.choice(len(joint_p), size=count, p=joint_p)
        t1 = rng.choice(len(thr_p), size=count, p=thr_p)
        misses += int((rng.gamma(shape=n, scale=scale_h1[a1]) < thr_values[t1]).sum())
        done += count
        chunk += 1
    return false_alarms, misses


def test_estimate_counts_equal_choice_and_gamma_draws():
    s = sim_scenario()
    rng = np.random.default_rng(9)
    for seed in range(12):
        # Zero-probability actions, leading and trailing ones too, are never
        # drawn.
        probs = (rng.random(4) + 0.05) * (rng.random(4) < 0.6)
        probs[seed % 4] += 0.1
        joint = MixedStrategy(((0.2, 0.0), (0.8, 0.0), (0.2, 0.5), (0.8, 0.5)),
                              tuple(probs / probs.sum()))
        t_probs = (rng.random(3) + 0.05) * (rng.random(3) < 0.6)
        t_probs[seed % 3] += 0.1
        thr = MixedStrategy(s.threshold_grid, tuple(t_probs / t_probs.sum()))
        blocks = (1, 777, CHUNK_BLOCKS + 5)[seed % 3]
        got = estimate_detection(s, joint, thr, blocks=blocks, seed=seed)
        false_alarms, misses = estimate_with_choice_and_gamma(s, joint, thr, blocks, seed)
        assert (got.pfa_hat, got.pm_hat) == (false_alarms / blocks, misses / blocks)
    # Wide strategies, whose indices take five and six bits: 20 (power, jam)
    # actions against 41 thresholds, every one drawn.
    wide = dataclasses.replace(s, power_grid=tuple(np.linspace(0.1, 1.0, 10)),
                               threshold_grid=tuple(np.linspace(1.0, 3.0, 41)))
    joint = MixedStrategy(tuple((p, j) for j in wide.jam_grid for p in wide.power_grid),
                          tuple(np.full(20, 0.05)))
    thr = MixedStrategy(wide.threshold_grid, tuple(np.full(41, 1 / 41)))
    blocks = 2 * CHUNK_BLOCKS + 3
    got = estimate_detection(wide, joint, thr, blocks=blocks, seed=4)
    false_alarms, misses = estimate_with_choice_and_gamma(wide, joint, thr, blocks, 4)
    assert (got.pfa_hat, got.pm_hat) == (false_alarms / blocks, misses / blocks)
    assert 0 < false_alarms < blocks and 0 < misses < blocks
