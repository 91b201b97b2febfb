"""Monte Carlo validation of the analytic detection-error model.

Per transmission block the detector's statistic is the average of n squared
complex-sample magnitudes.  With every signal component Gaussian, the exact
law is Gamma(shape n, scale s/n) where s is the total per-sample power, so
the sampler draws the statistic directly (the test suite checks it against
a per-sample path that actually averages n squared complex Gaussians).

Streams are counter-based: block simulation is chunked, and the generator
for chunk c is Philox keyed by (seed, c).  Results therefore depend only on
(seed, strategies, blocks), never on how chunks get scheduled, and repeat
runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detection import MixedStrategy, _h0_scales, _h1_scales
from .model import Scenario

__all__ = [
    "EmpiricalDetection",
    "estimate_detection",
    "CHUNK_BLOCKS",
]

# Blocks per counter-keyed chunk; fixed, so it is part of the output contract.
CHUNK_BLOCKS = 8192
# An analytic value within this many standard errors of the estimate agrees.
N_SIGMA = 3.0
# Standard errors count as at least this, so a zero one next to a miss fails.
_STDERR_FLOOR = 1e-300
# Most blocks per hypothesis: about 26 minutes of drawing at 6e6 blocks/s.
MAX_BLOCKS = 10**10


@dataclass(frozen=True)
class EmpiricalDetection:
    """Empirical error rates with binomial standard errors."""

    pfa_hat: float
    pm_hat: float
    pfa_stderr: float
    pm_stderr: float
    blocks: int
    seed: int

    def zscores(self, pfa: float, pm: float) -> tuple[float, float]:
        """(estimate - analytic) / max(stderr, _STDERR_FLOOR) for P_FA and P_M."""
        return ((self.pfa_hat - pfa) / max(self.pfa_stderr, _STDERR_FLOOR),
                (self.pm_hat - pm) / max(self.pm_stderr, _STDERR_FLOOR))

    def consistent_with(self, pfa: float, pm: float) -> bool:
        """True when both z-scores of the analytic values are within N_SIGMA."""
        return all(abs(z) <= N_SIGMA for z in self.zscores(pfa, pm))


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    key = np.array([seed, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _rising_cdf(strategy: MixedStrategy) -> tuple[np.ndarray, np.ndarray]:
    """A strategy's cdf at the actions where it rises, and those actions.

    Generator.choice(k, size, p=p) draws cdf.searchsorted(random(size),
    side="right") with cdf = cumsum(p) / its last entry: the first action
    whose cdf exceeds the uniform draw.  The cdf rises at that action, so a
    search of the rising entries alone lands on the same action.
    """
    cdf = strategy.prob_array().cumsum()
    cdf /= cdf[-1]
    rising = np.flatnonzero(np.diff(cdf, prepend=0.0) > 0.0)
    return cdf[rising], rising


def estimate_detection(s: Scenario, joint: MixedStrategy, thr: MixedStrategy,
                       blocks: int, seed: int) -> EmpiricalDetection:
    """Simulate ``blocks`` blocks under each hypothesis and tally errors.

    Per block: draw a (power, jam) action from the joint strategy (under the
    no-transmission hypothesis only its jamming component is used), draw a
    threshold from the detector strategy, sample the statistic, and compare.
    The detector alarms strictly above threshold, so the always-alarm
    threshold 0 yields an exact false-alarm rate of 1.

    Standard errors are sqrt(p(1-p)/blocks) on each estimate.
    """
    if not 1 <= blocks <= MAX_BLOCKS:
        raise ValueError(f"blocks must lie in [1, {MAX_BLOCKS}], got {blocks}")
    if not 0 <= int(seed) < 2 ** 64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    n = s.blocklength_n
    # Per-action sample powers, by the same formulas as the analytic cells.
    scale_h0 = np.asarray(_h0_scales(s, joint.actions)) / n
    scale_h1 = np.asarray(_h1_scales(s, joint.actions)) / n
    thr_values = np.asarray(thr.actions, dtype=float)
    # The draws of Generator.choice(p=...) and Generator.gamma, made without
    # validating p on every call: gamma(n, scale) is scale * standard_gamma(n),
    # and choice is a search of the cdf (see _rising_cdf), here restricted to
    # the actions where the cdf rises, so the actions' values are too.
    joint_cdf, rising = _rising_cdf(joint)
    scale_h0, scale_h1 = scale_h0[rising], scale_h1[rising]
    thr_cdf, rising = _rising_cdf(thr)
    thr_values = thr_values[rising]

    false_alarms = 0
    misses = 0
    done = 0
    chunk_index = 0
    while done < blocks:
        count = min(CHUNK_BLOCKS, blocks - done)
        rng = _chunk_rng(int(seed), chunk_index)
        a0 = joint_cdf.searchsorted(rng.random(count), side="right")
        t0 = thr_cdf.searchsorted(rng.random(count), side="right")
        stat0 = rng.standard_gamma(n, size=count) * scale_h0[a0]
        false_alarms += int((stat0 > thr_values[t0]).sum())
        a1 = joint_cdf.searchsorted(rng.random(count), side="right")
        t1 = thr_cdf.searchsorted(rng.random(count), side="right")
        stat1 = rng.standard_gamma(n, size=count) * scale_h1[a1]
        misses += int((stat1 < thr_values[t1]).sum())
        done += count
        chunk_index += 1

    pfa_hat = false_alarms / blocks
    pm_hat = misses / blocks
    return EmpiricalDetection(
        pfa_hat=pfa_hat,
        pm_hat=pm_hat,
        pfa_stderr=float(np.sqrt(pfa_hat * (1.0 - pfa_hat) / blocks)),
        pm_stderr=float(np.sqrt(pm_hat * (1.0 - pm_hat) / blocks)),
        blocks=blocks,
        seed=int(seed),
    )
