"""Tests for the finite-blocklength rate model."""

import math

import numpy as np
import pytest

from covertgame.detection import MixedStrategy
from covertgame.matrixgame import build_payoff
from covertgame.model import default_scenario, prune_negative_rate
from covertgame.rate import action_snr, normal_approx_rate


def test_frozen_values():
    assert normal_approx_rate(1.0, 200, 0.1) == pytest.approx(
        0.8867791898066539, abs=1e-12)
    assert normal_approx_rate(0.02, 200, 0.1) == pytest.approx(
        0.0028067629698915533, abs=1e-12)


def test_low_power_goes_negative():
    # 0.01 mW over unit noise is below the dispersion penalty at n=200.
    assert normal_approx_rate(0.01, 200, 0.1) < 0.0
    assert normal_approx_rate(0.02, 200, 0.1) > 0.0


def test_zero_snr():
    assert normal_approx_rate(0.0, 200, 0.1) == 0.0


def test_formula_by_hand():
    snr, n, delta = 0.7, 150, 0.05
    qinv = 1.6448536269514638
    v = 1.0 - 1.0 / (1.0 + snr) ** 2
    want = math.log2(1.0 + snr) - math.sqrt(v / n) * qinv / math.log(2.0)
    assert normal_approx_rate(snr, n, delta) == pytest.approx(want, abs=1e-12)


def test_monotonicity():
    snr = np.linspace(0.0, 5.0, 200)
    r = normal_approx_rate(snr, 200, 0.1)
    assert np.all(np.diff(r) > 0.0)
    # Longer blocks shrink the dispersion penalty.
    assert normal_approx_rate(0.5, 400, 0.1) > normal_approx_rate(0.5, 200, 0.1)
    # A laxer error target raises the rate.
    assert normal_approx_rate(0.5, 200, 0.2) > normal_approx_rate(0.5, 200, 0.1)


def test_array_input():
    snr = np.array([0.0, 0.02, 1.0])
    r = normal_approx_rate(snr, 200, 0.1)
    assert r.shape == (3,)
    assert r[0] == 0.0
    assert r[2] == pytest.approx(0.8867791898066539, abs=1e-12)
    assert isinstance(normal_approx_rate(1.0, 200, 0.1), float)


def test_validation():
    with pytest.raises(ValueError, match="blocklength"):
        normal_approx_rate(1.0, 0, 0.1)
    with pytest.raises(ValueError, match="delta"):
        normal_approx_rate(1.0, 200, 0.0)
    with pytest.raises(ValueError, match="delta"):
        normal_approx_rate(1.0, 200, 1.0)
    with pytest.raises(ValueError, match="snr"):
        normal_approx_rate(-0.5, 200, 0.1)


def test_action_snr_jamming():
    s = default_scenario(with_jammer=True)
    assert action_snr(s, 0.5, 0.0) == pytest.approx(0.5 / s.sigma_b_sq_mw)
    # alpha scales the jammer's self-interference at the intended receiver.
    expect = 0.5 / (s.sigma_b_sq_mw + s.alpha * s.alpha * 2.0)
    assert action_snr(s, 0.5, 2.0) == pytest.approx(expect)


def test_action_rate_no_jammer_matches_plain_formula():
    s = default_scenario(with_jammer=False)
    want = normal_approx_rate(0.02 / s.sigma_b_sq_mw, s.blocklength_n, s.delta)
    got = normal_approx_rate(action_snr(s, 0.02, 0.0), s.blocklength_n, s.delta)
    assert got == pytest.approx(float(want), abs=1e-15)


def test_expected_rate_convex_combination():
    s = default_scenario(with_jammer=False)
    payoff = build_payoff(prune_negative_rate(s))
    a, b = (0.02, 0.0), (1.0, 0.0)
    rows = [payoff.actions.index(a), payoff.actions.index(b)]
    mix = MixedStrategy(actions=(a, b), probs=(0.25, 0.75))
    rate_a, rate_b = (normal_approx_rate(action_snr(s, *action), s.blocklength_n, s.delta)
                      for action in (a, b))
    want = 0.25 * rate_a + 0.75 * rate_b
    assert payoff.expected_rate(mix, rows) == pytest.approx(want, abs=1e-15)


def test_expected_rate_point_mass():
    s = default_scenario(with_jammer=False)
    payoff = build_payoff(prune_negative_rate(s))
    mix = MixedStrategy.point_mass(payoff.actions, len(payoff.actions) - 1)
    assert payoff.actions[-1] == (1.0, 0.0)
    want = normal_approx_rate(action_snr(s, 1.0, 0.0), s.blocklength_n, s.delta)
    assert payoff.expected_rate(mix) == pytest.approx(want)
