"""Achievable-rate model at finite blocklength.

The transmitter sends codewords of n channel uses over an AWGN link and
tolerates a decoding error probability delta.  The normal approximation to
the maximal rate at signal-to-noise ratio x is

    R(x) = log2(1 + x) - sqrt(V(x) / n) * Qinv(delta) / ln 2,
    V(x) = 1 - 1 / (1 + x)^2,

in bits per channel use.  At small x and short n the dispersion penalty
exceeds the capacity term and R goes negative, which is why low transmit
powers get pruned from the game's action grid.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .specfun import gaussian_q_inv

if TYPE_CHECKING:
    from .detection import MixedStrategy
    from .model import Scenario

__all__ = ["normal_approx_rate", "action_snr", "action_rate", "expected_rate"]


def normal_approx_rate(snr, n: int, delta: float):
    """Normal-approximation rate in bits per channel use.

    Args:
        snr: linear signal-to-noise ratio(s), scalar or array, >= 0.
        n: blocklength in channel uses, >= 1.
        delta: decoding error probability, in (0, 1).

    Returns:
        Rate value(s), possibly negative at low snr; scalar in, scalar out.
    """
    if n < 1:
        raise ValueError(f"blocklength must be >= 1, got {n}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    x = np.asarray(snr, dtype=float)
    if x.size and float(np.min(x)) < 0.0:
        raise ValueError("snr must be nonnegative")
    qinv = gaussian_q_inv(delta)
    one_plus = 1.0 + x
    with np.errstate(over="ignore"):  # at huge snr the square overflows and V rounds to 1
        dispersion = 1.0 - 1.0 / (one_plus * one_plus)
    rate = np.log2(one_plus) - np.sqrt(dispersion / float(n)) * (qinv / math.log(2.0))
    return float(rate) if np.isscalar(snr) or rate.shape == () else rate


def action_snr(s: "Scenario", power, jam):
    """SNR at the intended receiver for transmit power P and jamming power J.

    Scalars or equal-shape arrays; each element is computed as the scalar,
    and arrays stay as quiet as Python floats where the SNR overflows or a
    huge alpha meets zero jamming (NaN, pruned).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return power / (s.sigma_b_sq_mw + s.alpha * s.alpha * jam)


def action_rate(s: "Scenario", power: float, jam: float) -> float:
    """Rate of a single (power, jam) action under scenario s."""
    return float(normal_approx_rate(action_snr(s, power, jam), s.blocklength_n, s.delta))


def expected_rate(s: "Scenario", strategy: "MixedStrategy") -> float:
    """Expected rate of a mixed strategy over (power, jam) actions.

    The strategy's actions must be (power_mw, jam_mw) pairs; the expectation
    is the probability-weighted sum of per-action rates.
    """
    return float(math.fsum(
        prob * action_rate(s, power, jam)
        for (power, jam), prob in zip(strategy.actions, strategy.probs)
    ))
