"""Energy-detector error model and mixed strategies.

The detector averages the squared magnitudes of n complex baseband samples
and alarms when the average T exceeds a threshold t.  Under circularly
symmetric Gaussian noise of total power s per sample, T follows a
Gamma(n, s/n) law (a chi-squared with 2n degrees of freedom scaled by s/2n),
so both error probabilities reduce to regularized incomplete gamma values:

    false alarm  P_FA(t) = Q(n, n t / s0),   s0 = sigma_w^2 + J
    missed det.  P_M(t)  = 1 - Q(n, n t / s1),  s1 = P + sigma_w^2 + J

The detection-error probability dep = P_FA + P_M is the quantity the
transmitter drives up and the detector drives down.  Because the H1 sample
power strictly dominates the H0 sample power, dep <= 1 for every threshold,
with equality at t = 0 (always alarm) and t -> infinity (never alarm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .specfun import reg_gamma_q_grid

if TYPE_CHECKING:
    from .model import Scenario

__all__ = [
    "MixedStrategy",
    "pfa",
    "pm",
    "pfa_grid",
    "pm_grid",
    "dep_grid",
]

# Probabilities at or below this floor are treated as zero when reporting
# strategy supports.
SUPPORT_EPS = 1e-9


@dataclass(frozen=True)
class MixedStrategy:
    """A probability vector over a finite, labelled action set.

    ``actions`` are the labels ((power, jam) pairs for the transmitter side,
    threshold values for the detector side); ``probs`` must be finite,
    nonnegative and sum to one within 1e-9.
    """

    actions: tuple
    probs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(self.actions))
        object.__setattr__(self, "probs", tuple(map(float, self.probs)))
        if len(self.actions) != len(self.probs):
            raise ValueError(
                f"{len(self.actions)} actions but {len(self.probs)} probabilities"
            )
        if not self.probs:
            raise ValueError("strategy must have at least one action")
        if not all(map(math.isfinite, self.probs)):
            raise ValueError(f"non-finite probability "
                             f"{next(p for p in self.probs if not math.isfinite(p))}")
        if min(self.probs) < 0.0:
            raise ValueError(f"negative probability {min(self.probs)}")
        total = math.fsum(self.probs)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total!r}, not 1")

    @classmethod
    def point_mass(cls, actions, index: int) -> "MixedStrategy":
        probs = [0.0] * len(tuple(actions))
        probs[index] = 1.0
        return cls(tuple(actions), tuple(probs))

    @classmethod
    def uniform(cls, actions) -> "MixedStrategy":
        actions = tuple(actions)
        return cls(actions, tuple([1.0 / len(actions)] * len(actions)))

    def support(self, eps: float = SUPPORT_EPS) -> tuple[int, ...]:
        """Indices carrying probability above ``eps``."""
        return tuple(i for i, p in enumerate(self.probs) if p > eps)

    def prob_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)


def _q_cells(s: "Scenario", scales, thresholds) -> np.ndarray:
    """Q(n, n t / scale) for every (scale, threshold) pair.

    Actions often share the exact same sample power (the grids are decimal),
    so each distinct scale is evaluated once and broadcast back.  Grouping is
    on exact float equality, which leaves every cell bit-identical to a
    direct evaluation.
    """
    unique_scale, inverse = np.unique(np.asarray(scales, dtype=float), return_inverse=True)
    with np.errstate(over="ignore"):  # a huge threshold overflows to x = inf, where Q = 0
        x = s.blocklength_n * np.asarray(thresholds, dtype=float)[None, :] / unique_scale[:, None]
    return reg_gamma_q_grid(s.blocklength_n, x)[inverse, :]


def _h0_scales(s: "Scenario", actions) -> list[float]:
    return [s.sigma_w_sq_mw + j for _, j in actions]


def _h1_scales(s: "Scenario", actions) -> list[float]:
    return [p + s.sigma_w_sq_mw + j for p, j in actions]


def pfa_grid(s: "Scenario", actions) -> np.ndarray:
    """P_FA for every (action, threshold) cell; shape (len(actions), M).

    The false-alarm value of a cell depends on the action only through its
    jamming power.
    """
    return _q_cells(s, _h0_scales(s, actions), s.threshold_grid)


def pm_grid(s: "Scenario", actions) -> np.ndarray:
    """P_M for every (action, threshold) cell; shape (len(actions), M)."""
    return 1.0 - _q_cells(s, _h1_scales(s, actions), s.threshold_grid)


def dep_grid(s: "Scenario", actions) -> np.ndarray:
    """P_FA + P_M for every (action, threshold) cell; shape (len(actions), M)."""
    return pfa_grid(s, actions) + pm_grid(s, actions)


def pfa(s: "Scenario", joint: "MixedStrategy", thr: "MixedStrategy") -> float:
    """False-alarm probability under mixed transmission and mixed threshold.

    Evaluates only the cells of the two strategies' own actions; a solved
    game's value is read from its payoff's cell table instead.  Under the
    no-transmission hypothesis only the jamming component of the joint
    strategy matters.
    """
    cells = _q_cells(s, _h0_scales(s, joint.actions), thr.actions)
    return float(joint.prob_array() @ cells @ thr.prob_array())


def pm(s: "Scenario", joint: "MixedStrategy", thr: "MixedStrategy") -> float:
    """Miss probability under mixed transmission and mixed threshold."""
    cells = 1.0 - _q_cells(s, _h1_scales(s, joint.actions), thr.actions)
    return float(joint.prob_array() @ cells @ thr.prob_array())
