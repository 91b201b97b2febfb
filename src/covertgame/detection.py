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

At long blocks most thresholds above the H1 sample power put x = n t / s1
so far past n - 1 that Q(n, x) is below 2^-54 and P_M is exactly 1.0.  The
Chernoff bound ln Q <= m - x + m ln(x/m), m = n - 1, finds those cells
(``specfun._q_negligible``, with one e-fold of margin), and P_M sets them
to 1.0 without summing their Poisson windows.  P_FA = Q itself keeps its
tiny values, so every false-alarm cell is evaluated.

At the other end, above n = 200, thresholds well below the sample power put
x = n t / s so far below n that Q(n, x) rounds to 1.0 (below about 0.82 n
at n = 2000).  The kernel proves those points by the mirror bound on the
upper tail (``specfun._q_rounds_to_one``) and returns 1.0 exactly, so their
cells read P_FA = 1.0 and P_M = 0.0 exactly, with no 1 - Q roundoff.
From n = 2000 up, the points just past that bound's cut-off, where 1 - Q
is still below 2^-54, read exactly 1.0 as well, from Temme's expansion.

``error_grids`` is the one cell evaluator: both tables, for any actions and
thresholds, from one kernel call.  ``pfa_grid``, ``pm_grid``, ``dep_grid``
and ``error_rates`` (both rates of a strategy pair) are views of it, and
``pfa`` and ``pm`` views of ``error_rates``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .specfun import _q_negligible, reg_gamma_q_grid

if TYPE_CHECKING:
    from .model import Scenario

__all__ = [
    "MixedStrategy",
    "error_grids",
    "error_rates",
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
    def uniform(cls, actions) -> "MixedStrategy":
        actions = tuple(actions)
        return cls(actions, tuple([1.0 / len(actions)] * len(actions)))

    def support(self) -> tuple[int, ...]:
        """Indices carrying probability above SUPPORT_EPS."""
        return tuple(i for i, p in enumerate(self.probs) if p > SUPPORT_EPS)

    def prob_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)


def _x_cells(s: "Scenario", scales, thresholds) -> tuple[np.ndarray, np.ndarray]:
    """x = n t / scale for each distinct scale and threshold, and each scale's row.

    Actions often share the exact same sample power (the grids are decimal),
    so each distinct scale is evaluated once and broadcast back by the
    returned index.  Grouping is on exact float equality, which leaves every
    cell bit-identical to a direct evaluation.
    """
    unique_scale, inverse = np.unique(np.asarray(scales, dtype=float), return_inverse=True)
    with np.errstate(over="ignore"):  # a huge threshold overflows to x = inf, where Q = 0
        x = s.blocklength_n * np.asarray(thresholds, dtype=float)[None, :] / unique_scale[:, None]
    return x, inverse


def _h0_scales(s: "Scenario", actions) -> list[float]:
    return [s.sigma_w_sq_mw + j for _, j in actions]


def _h1_scales(s: "Scenario", actions) -> list[float]:
    return [p + s.sigma_w_sq_mw + j for p, j in actions]


def error_grids(s: "Scenario", actions, thresholds=None) -> tuple[np.ndarray, np.ndarray]:
    """(P_FA, P_M) for every (action, threshold) pair, from one kernel call:
    the one cell path.  Each has shape (len(actions), len(thresholds)).

    ``thresholds`` defaults to the scenario's threshold grid.  The H0 points
    and the H1 points not proved negligible go to the kernel together; a cell
    depends on its (n, x) alone, so sharing the call moves no bit.  The
    false-alarm value of a cell depends on the action only through its
    jamming power.  P_M cells that ``specfun._q_negligible`` proves to be 1.0
    are set, not evaluated, with the bits the kernel would give.
    """
    thresholds = s.threshold_grid if thresholds is None else thresholds
    n = s.blocklength_n
    x0, inverse0 = _x_cells(s, _h0_scales(s, actions), thresholds)
    x1, inverse1 = _x_cells(s, _h1_scales(s, actions), thresholds)
    live = ~_q_negligible(n, x1)
    q = reg_gamma_q_grid(n, np.concatenate([x0.ravel(), x1[live]]))
    q1 = np.zeros_like(x1)
    q1[live] = q[x0.size:]
    return q[:x0.size].reshape(x0.shape)[inverse0, :], (1.0 - q1)[inverse1, :]


def pfa_grid(s: "Scenario", actions) -> np.ndarray:
    """P_FA for every (action, threshold) cell; shape (len(actions), M)."""
    return error_grids(s, actions)[0]


def pm_grid(s: "Scenario", actions) -> np.ndarray:
    """P_M for every (action, threshold) cell; shape (len(actions), M)."""
    return error_grids(s, actions)[1]


def dep_grid(s: "Scenario", actions) -> np.ndarray:
    """P_FA + P_M for every (action, threshold) cell; shape (len(actions), M)."""
    return np.add(*error_grids(s, actions))


def error_rates(s: "Scenario", joint: "MixedStrategy",
                thr: "MixedStrategy") -> tuple[float, float]:
    """(P_FA, P_M) of mixed strategies, from one table of their own actions'
    cells: the one strategy-pair path for actions off a payoff's table."""
    x, y = joint.prob_array(), thr.prob_array()
    return tuple(float(x @ cells @ y) for cells in error_grids(s, joint.actions, thr.actions))


def pfa(s: "Scenario", joint: "MixedStrategy", thr: "MixedStrategy") -> float:
    """False-alarm probability of mixed strategies (``error_rates``' first)."""
    return error_rates(s, joint, thr)[0]


def pm(s: "Scenario", joint: "MixedStrategy", thr: "MixedStrategy") -> float:
    """Miss probability of mixed strategies (``error_rates``' second)."""
    return error_rates(s, joint, thr)[1]
