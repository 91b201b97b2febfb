"""Tests for detection-error cells, grids, and mixed-strategy error rates."""

import math
from dataclasses import replace

import numpy as np
import pytest

from covertgame.detection import (
    SUPPORT_EPS,
    MixedStrategy,
    dep_grid,
    pfa,
    pfa_grid,
    pm,
    pm_grid,
)
from covertgame.experiments import desk_scenario
from covertgame.model import Scenario, default_scenario, joint_actions
from covertgame.specfun import _poisson_tables, reg_gamma_q_grid

from oracles import gamma_q_full_sum, gamma_q_reference


def tiny_scenario(jam_grid=(0.0,), alpha=0.0):
    return Scenario(
        blocklength_n=50,
        sigma_b_sq_mw=1.0,
        sigma_w_sq_mw=1.0,
        delta=0.1,
        alpha=alpha,
        beta=1.6,
        power_grid=(0.1, 0.4, 0.9),
        jam_grid=jam_grid,
        threshold_grid=(0.0, 0.8, 1.1, 1.6),
    )


def cell(power, jam, thr, n, sigma_w_sq):
    """(P_FA, P_M) of one pure-action cell, read from the grids."""
    s = replace(tiny_scenario(), blocklength_n=n, sigma_w_sq_mw=sigma_w_sq, threshold_grid=(thr,))
    return float(pfa_grid(s, [(power, jam)])[0, 0]), float(pm_grid(s, [(power, jam)])[0, 0])


class TestMixedStrategy:
    def test_validation(self):
        with pytest.raises(ValueError, match="probabilities"):
            MixedStrategy(actions=(1, 2), probs=(1.0,))
        with pytest.raises(ValueError, match="negative"):
            MixedStrategy(actions=(1, 2), probs=(1.5, -0.5))
        with pytest.raises(ValueError, match="sum"):
            MixedStrategy(actions=(1, 2), probs=(0.6, 0.6))
        with pytest.raises(ValueError, match="at least one"):
            MixedStrategy(actions=(), probs=())
        # NaN compares false with everything, so neither check above sees it.
        for bad in [(math.nan, 1.0), (1.0, math.nan), (math.inf, 0.0), (-math.inf, 2.0)]:
            with pytest.raises(ValueError, match="non-finite probability"):
                MixedStrategy(actions=(1, 2), probs=bad)

    def test_constructors(self):
        point = MixedStrategy(("a", "b", "c"), (0.0, 1.0, 0.0))
        assert point.probs == (0.0, 1.0, 0.0)
        assert point.support() == (1,)
        unif = MixedStrategy.uniform((1.0, 2.0))
        assert unif.probs == (0.5, 0.5)
        assert unif.support() == (0, 1)

    def test_support_threshold(self):
        mix = MixedStrategy(actions=(1, 2, 3), probs=(1.0 - 1e-10, 1e-10, 0.0))
        assert mix.support() == (0,)
        # Probability just above SUPPORT_EPS = 1e-9 is in the support.
        assert SUPPORT_EPS == 1e-9
        above = MixedStrategy(actions=(1, 2, 3), probs=(1.0 - 2e-9, 2e-9, 0.0))
        assert above.support() == (0, 1)

    def test_prob_array(self):
        mix = MixedStrategy(actions=(1, 2), probs=(0.3, 0.7))
        assert np.array_equal(mix.prob_array(), np.array([0.3, 0.7]))


def test_pfa_cell_frozen_value():
    # Default scenario, quiet channel, threshold 1.02: Q(200, 204).
    s = default_scenario()
    assert s.threshold_grid[102] == 1.02
    assert pfa_grid(s, [(0.02, 0.0)])[0, 102] == pytest.approx(
        0.3803686104663225, abs=1e-13)


def test_cells_match_reference():
    for power, jam, thr in [(0.1, 0.0, 0.9), (0.5, 0.2, 1.3), (1.0, 1.0, 0.4)]:
        n, sw = 80, 1.0
        want_fa = gamma_q_reference(n, n * thr / (sw + jam))
        want_md = 1.0 - gamma_q_reference(n, n * thr / (power + sw + jam))
        fa, md = cell(power, jam, thr, n, sw)
        assert abs(fa - float(want_fa)) <= 1e-12
        assert abs(md - float(want_md)) <= 1e-12
        assert fa + md == pytest.approx(float(want_fa + want_md), abs=1e-12)


def test_threshold_zero_always_alarms():
    fa, md = cell(0.5, 0.0, 0.0, 200, 1.0)
    assert (fa, md, fa + md) == (1.0, 0.0, 1.0)


def test_dep_never_exceeds_one():
    """The averaged statistic is stochastically larger under transmission,
    so P_FA + P_M <= 1 for every cell (the blind detector attains exactly 1)."""
    s = default_scenario(with_jammer=True)
    rng = np.random.default_rng(11)
    idx = rng.choice(len(joint_actions(s)), size=300, replace=False)
    actions = [joint_actions(s)[i] for i in idx]
    cells = dep_grid(s, actions)
    assert float(cells.max()) <= 1.0 + 1e-12
    assert np.allclose(cells[:, 0], 1.0)


def test_grids_match_scalar_cells():
    s = tiny_scenario(jam_grid=(0.0, 0.3), alpha=1.0)
    actions = joint_actions(s)
    fa = pfa_grid(s, actions)
    md = pm_grid(s, actions)
    both = dep_grid(s, actions)
    assert fa.shape == (6, 4)
    n, sw = s.blocklength_n, s.sigma_w_sq_mw

    def q(x):  # Q(n, x) at one point, every Poisson term summed
        return float(gamma_q_full_sum(np.array([x]), *_poisson_tables(n))[0])

    for i, (p, j) in enumerate(actions):
        for m, t in enumerate(s.threshold_grid):
            assert abs(fa[i, m] - q(n * t / (sw + j))) <= 1e-14
            assert abs(md[i, m] - (1.0 - q(n * t / (p + sw + j)))) <= 1e-14
            assert abs(both[i, m] - (fa[i, m] + md[i, m])) <= 1e-15


def test_pfa_grid_shares_rows_across_powers():
    # Cells with equal jamming are bit-identical no matter the transmit power.
    s = tiny_scenario(jam_grid=(0.0, 0.3), alpha=1.0)
    fa = pfa_grid(s, joint_actions(s))
    assert np.array_equal(fa[0], fa[1]) and np.array_equal(fa[1], fa[2])
    assert np.array_equal(fa[3], fa[4]) and np.array_equal(fa[4], fa[5])
    assert not np.array_equal(fa[0], fa[3])


def test_pm_grid_shares_rows_at_equal_total_power():
    # power 0.25 with jam 0.25 and power 0.5 alone put the same total power
    # on the detector (dyadic values, so the float sums agree exactly); their
    # miss rows must come out bit-identical.
    s = Scenario(
        blocklength_n=50, sigma_b_sq_mw=1.0, sigma_w_sq_mw=1.0, delta=0.1,
        alpha=1.0, beta=1.5, power_grid=(0.25, 0.5, 0.75),
        jam_grid=(0.0, 0.25), threshold_grid=(0.0, 0.5, 1.0, 2.0))
    actions = joint_actions(s)
    md = pm_grid(s, actions)
    assert actions[1] == (0.5, 0.0) and actions[3] == (0.25, 0.25)
    assert np.array_equal(md[1], md[3])


def test_monotone_in_threshold():
    s = default_scenario()
    actions = ((0.02, 0.0), (1.0, 0.0))
    fa = pfa_grid(s, actions)
    md = pm_grid(s, actions)
    assert np.all(np.diff(fa, axis=1) <= 1e-12)
    assert np.all(np.diff(md, axis=1) >= -1e-12)


def test_mixed_rates_equal_double_sum():
    s = tiny_scenario(jam_grid=(0.0, 0.3), alpha=1.0)
    actions = joint_actions(s)
    joint = MixedStrategy(actions, (0.1, 0.2, 0.05, 0.15, 0.3, 0.2))
    thr = MixedStrategy(s.threshold_grid, (0.4, 0.1, 0.25, 0.25))
    fa, md = pfa_grid(s, actions), pm_grid(s, actions)
    want_fa = math.fsum(
        joint.probs[i] * thr.probs[m] * fa[i, m]
        for i in range(len(actions))
        for m in range(len(thr.actions)))
    want_md = math.fsum(
        joint.probs[i] * thr.probs[m] * md[i, m]
        for i in range(len(actions))
        for m in range(len(thr.actions)))
    assert pfa(s, joint, thr) == pytest.approx(want_fa, abs=1e-13)
    assert pm(s, joint, thr) == pytest.approx(want_md, abs=1e-13)


def test_pfa_ignores_power_split():
    """Reshuffling mass across powers inside one jam level cannot move P_FA."""
    s = tiny_scenario(jam_grid=(0.0, 0.3), alpha=1.0)
    actions = joint_actions(s)
    thr = MixedStrategy(s.threshold_grid, (0.0, 0.5, 0.25, 0.25))
    one = MixedStrategy(actions, (0.6, 0.0, 0.0, 0.4, 0.0, 0.0))
    two = MixedStrategy(actions, (0.0, 0.1, 0.5, 0.0, 0.3, 0.1))
    assert pfa(s, one, thr) == pytest.approx(pfa(s, two, thr), abs=1e-15)
    assert pm(s, one, thr) != pytest.approx(pm(s, two, thr), abs=1e-6)


def one_minus_q(s, actions):
    """1 - Q(n, n t / s1) over every action and threshold, every cell evaluated."""
    n = s.blocklength_n
    scales = np.asarray([p + s.sigma_w_sq_mw + j for p, j in actions])
    with np.errstate(over="ignore"):
        x = n * np.asarray(s.threshold_grid)[None, :] / scales[:, None]
    return 1.0 - reg_gamma_q_grid(n, x)


@pytest.mark.parametrize("n", [1, 2, 15, 200, 2000, pytest.param(10_000, marks=pytest.mark.slow)])
def test_pm_grid_skips_no_bit(n):
    # Cells the Chernoff bound proves to be 1.0 are set, not evaluated; the
    # table must equal the fully evaluated one bit for bit.
    for sigma_w_sq in (0.25, 0.9, 1.1, 4.0):
        s = replace(default_scenario(), blocklength_n=n, sigma_w_sq_mw=sigma_w_sq)
        actions = joint_actions(s)
        want = one_minus_q(s, actions)
        assert np.array_equal(pm_grid(s, actions).view(np.int64), want.view(np.int64))


def test_pm_grid_skips_no_bit_on_the_desk_jammer_grid():
    s = desk_scenario(True)
    assert s.blocklength_n == 200
    actions = joint_actions(s)
    assert np.array_equal(pm_grid(s, actions).view(np.int64),
                          one_minus_q(s, actions).view(np.int64))


@pytest.mark.filterwarnings("error")
def test_pm_grid_saturates_at_infinite_x():
    # n t / s1 overflows to inf for t = 1e308: Q = 0 and P_M = 1, quietly.
    for n in (1, 200):
        s = replace(default_scenario(), blocklength_n=n, threshold_grid=(0.0, 1e308))
        assert pm_grid(s, [(0.5, 0.0)]).tolist() == [[0.0, 1.0]]


def test_mixed_pm_reads_the_grid_cells():
    # pm() and pm_grid() share one cell path, saturated cells included.
    s = replace(default_scenario(), blocklength_n=2000)
    actions = joint_actions(s)[::7]
    rng = np.random.default_rng(3)
    joint = MixedStrategy(actions, rng.dirichlet(np.ones(len(actions))))
    thr = MixedStrategy(s.threshold_grid, rng.dirichlet(np.ones(len(s.threshold_grid))))
    cells = pm_grid(s, actions)
    assert (cells == 1.0).mean() > 0.3
    assert pm(s, joint, thr) == float(joint.prob_array() @ cells @ thr.prob_array())
