"""Special functions backing the detection and rate models.

Two primitives are needed and both are implemented from scratch on top of
``math`` and ``numpy`` so that results are reproducible to stated tolerances
without an external special-function stack:

* ``reg_gamma_q``: the regularized upper incomplete gamma function Q(n, x)
  at integer shape n.  This is the tail probability of an Erlang(n) (equally,
  a scaled chi-squared with 2n degrees of freedom) and therefore the exact
  false-alarm / miss building block of an energy detector that averages n
  squared magnitudes.
* ``gaussian_q`` / ``gaussian_q_inv``: the Gaussian tail probability and its
  inverse, needed by the finite-blocklength rate formula.

For integer shape the upper incomplete gamma reduces to a finite Poisson
tail sum,

    Q(n, x) = sum_{k=0}^{n-1} x^k e^{-x} / k!,

which is evaluated term by term in log space.  Writing the log term as

    ln t_k = (k - x) + k*log1p((x - k)/k) - (0.5*ln(2*pi*k) + tail(k))

keeps every contributing piece small near the dominant terms (k close to x).
The scalar path adds all n terms with ``math.fsum`` (compensated summation);
the grid path adds, in increasing k, only the O(sqrt(x)) terms in each
point's window, and is cross-checked against the scalar path and the full
sum in the test suite.

The grid path sorts the points and evaluates them in chunks whose
(rows x points) term table fits in cache.  A chunk's rows run from the
lowest window start to the highest window end of its points, and a term
outside its own point's window is zeroed before the sum, so every cell
depends on (n, x) alone.  Only the edge rows need that mask: rows from the
chunk's largest window start to its smallest window end lie inside every
point's window.  The log terms are built in place in two scratch tables
reused by all chunks of a call.

Accuracy domain: 1 <= n <= MAX_SHAPE and x >= 0.  There both paths stay
within 1e-10 absolute error, and 1e-12 relative error wherever Q > 1e-300,
of a 60-digit oracle (measured: about 1e-13), tested at x < 1, near n - 1,
n +- 9 sqrt(n) and out to 5n.  Scenarios with a longer block are rejected.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = ["reg_gamma_q", "reg_gamma_q_grid", "gaussian_q", "gaussian_q_inv"]

_LN_2PI = math.log(2.0 * math.pi)

# Largest shape n inside the tested accuracy domain (module docstring).
MAX_SHAPE = 100_000

# Index below which ln k! is taken from math.lgamma instead of the Stirling
# series; at k >= 15 the truncated series is accurate to well under 1e-13.
_STIRLING_MIN_K = 15

# Poisson-term window of reg_gamma_q_grid: half-width in units of sqrt(x),
# extra reach above the mode, and the e-folds of decay below k = n-1 < x
# past which terms are dropped (see _windows).
_WINDOW_SIGMAS = 9.0
_WINDOW_PAD = 27.0
_WINDOW_DECAY = 39.0

# Cells (rows x points) of one chunk's term table: 512 KiB of float64, so
# the two scratch tables stay in cache.
_CHUNK_CELLS = 64 * 1024


def _stirling_tail(k: float) -> float:
    """Residual ln k! - (k ln k - k + 0.5*ln(2 pi k)) via the Stirling series."""
    inv = 1.0 / k
    inv2 = inv * inv
    return inv / 12.0 - inv * inv2 / 360.0 + inv * inv2 * inv2 / 1260.0 \
        - inv * inv2 * inv2 * inv2 / 1680.0


@lru_cache(maxsize=8)
def _poisson_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-shape tables: k = 1..n-1 and the ln k! pieces beyond k ln k - k.

    The returned ``base`` array holds 0.5*ln(2 pi k) + tail(k) where ``tail``
    is the Stirling residual, computed exactly from math.lgamma for small k.
    Arrays are read-only so cached values cannot be mutated by callers.
    """
    k = np.arange(1, n, dtype=float)
    base = 0.5 * (_LN_2PI + np.log(k))
    for i in range(min(_STIRLING_MIN_K, n) - 1):
        kk = i + 1.0
        base[i] = math.lgamma(kk + 1.0) - (kk * math.log(kk) - kk)
    if n > _STIRLING_MIN_K:
        base[_STIRLING_MIN_K - 1:] += _stirling_tail(k[_STIRLING_MIN_K - 1:])
    k.flags.writeable = False
    base.flags.writeable = False
    return k, base


def _validate_shape(n: int) -> int:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"shape n must be a positive integer, got {n!r}")
    if n < 1:
        raise ValueError(f"shape n must be a positive integer, got {n}")
    return int(n)


def reg_gamma_q(n: int, x: float) -> float:
    """Regularized upper incomplete gamma Q(n, x) for integer shape n >= 1.

    Equals the probability that an Erlang(n, 1) variate exceeds x, i.e. the
    Poisson(x) probability of fewer than n events.  Monotone decreasing in x
    with Q(n, 0) = 1.

    Args:
        n: integer shape, n >= 1.
        x: evaluation point, x >= 0.

    Returns:
        Q(n, x) in [0, 1].

    Raises:
        ValueError: if n is not a positive integer or x is negative.
    """
    n = _validate_shape(n)
    x = float(x)
    if not x >= 0.0:
        raise ValueError(f"x must be nonnegative, got {x}")
    if x == 0.0:
        return 1.0
    terms = [-x]
    for k in range(1, n):
        if k < _STIRLING_MIN_K:
            base = math.lgamma(k + 1.0) - (k * math.log(k) - k)
        else:
            base = 0.5 * (_LN_2PI + math.log(k)) + _stirling_tail(k)
        ratio = (x - k) / k
        if ratio > -1.0:  # else x is so far below k that the term is 0
            terms.append((k - x) + k * math.log1p(ratio) - base)
    total = math.fsum(math.exp(t) for t in terms)
    return min(1.0, max(0.0, total))


def reg_gamma_q_grid(n: int, x: np.ndarray) -> np.ndarray:
    """Vectorized Q(n, x) over an array of evaluation points.

    Same quantity as ``reg_gamma_q`` but evaluated for many x at once, which
    is what payoff-matrix assembly needs.  Each point sums only the Poisson
    terms inside its own window (see ``_windows``), O(sqrt(x)) of them, in
    increasing k; each cell depends on (n, x) alone, not on the other points.

    Args:
        n: integer shape, n >= 1.
        x: array of nonnegative evaluation points (any shape); +inf gives 0.

    Returns:
        Array of Q(n, x) values with the same shape as ``x``.
    """
    n = _validate_shape(n)
    x = np.asarray(x, dtype=float)
    if x.size and not float(np.min(x)) >= 0.0:
        raise ValueError("x must be nonnegative")
    flat = np.atleast_1d(x).ravel()
    out = np.where(flat == 0.0, 1.0, 0.0)  # Q(n, 0) = 1 and Q(n, inf) = 0
    inner = (flat > 0.0) & (flat < math.inf)
    xs, inverse = np.unique(flat[inner], return_inverse=True)
    out[inner] = _q_sorted(n, xs)[inverse]
    return out.reshape(x.shape)


def _windows(n: int, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last k of the Poisson terms that Q(n, x) must sum.

    Above the mode, ln(t_k / t_x) <= -a^2 / (2(x + a/3)) at k = x + a
    (Bennett), which is below -40.5 at a = 9 sqrt(x) + 27.  Below it the
    terms fall at least as fast as a Gaussian of variance x, and below
    k = n-1 < x each step down shrinks a term by k/x <= (n-1)/x.  Every
    dropped term is under about e^-39 of the largest kept one, so the
    window keeps relative accuracy even where Q is far below 1e-300.
    """
    root = np.sqrt(xs)
    hi = np.minimum(np.ceil(xs + _WINDOW_SIGMAS * root + _WINDOW_PAD), n - 1)
    lo = np.floor(np.minimum(xs, n - 1) - _WINDOW_SIGMAS * root)
    past = xs > n - 1
    with np.errstate(divide="ignore"):  # x/(n-1) may round to 1: no cap
        steps = np.ceil(_WINDOW_DECAY / np.log(xs[past] / (n - 1)))
    lo[past] = np.maximum(lo[past], n - 1 - steps)
    return np.maximum(lo, 1.0), hi


def _q_sorted(n: int, xs: np.ndarray) -> np.ndarray:
    """Q(n, x) at sorted, finite, positive points, one cache-sized chunk at a time."""
    out = np.exp(-xs)
    if n == 1 or not xs.size:
        return out
    k, base = _poisson_tables(n)
    lo, hi = _windows(n, xs)
    # No chunk holds more cells than the budget or one point's window, nor
    # more than every row times every point of the call.
    size = min(max(_CHUNK_CELLS, int((hi - lo).max()) + 1),
               int(hi[-1] - lo.min() + 1) * xs.size)
    diff_buf, term_buf = np.empty(size), np.empty(size)
    start = 0
    while start < xs.size:
        # hi rises with x, so a chunk's row count (max hi - min lo + 1) only
        # grows as points join it; take the most points within budget.
        cap = start + max(1, _CHUNK_CELLS // int(hi[start] - lo[start] + 1))
        rows = hi[start:cap] - np.minimum.accumulate(lo[start:cap]) + 1
        cells = rows * np.arange(1, rows.size + 1)
        stop = start + max(1, int(np.searchsorted(cells, _CHUNK_CELLS, side="right")))
        lo_c, hi_c = lo[start:stop], hi[start:stop]
        first, last = int(lo_c.min()), int(hi_c[-1])
        shape = (last - first + 1, stop - start)
        used = shape[0] * shape[1]
        kk = k[first - 1:last, None]
        diff = np.subtract(xs[None, start:stop], kk, out=diff_buf[:used].reshape(shape))
        terms = np.divide(diff, kk, out=term_buf[:used].reshape(shape))
        with np.errstate(divide="ignore"):  # tiny x rounds (x - k)/k to -1: t_k = 0
            np.log1p(terms, out=terms)
        terms *= kk
        terms -= diff  # (k - x) + m equals m - (x - k) exactly
        terms -= base[first - 1:last, None]
        np.exp(terms, out=terms)
        # Zero the terms outside their own point's window.  Rows from the
        # largest lo to the smallest hi (hi[start]) are inside every window.
        top, bottom = int(lo_c.max()) - first, int(hi_c[0]) - first + 1
        terms[:top][kk[:top] < lo_c] = 0.0
        terms[bottom:][kk[bottom:] > hi_c] = 0.0
        # Sum in increasing k so the zeros outside a point's window are exact
        # no-ops.  numpy reduces axis 0 row by row, except a lone column,
        # which it sums pairwise; cumsum is sequential for that one.
        out[start:stop] += terms.sum(axis=0) if shape[1] > 1 else np.cumsum(terms[:, 0])[-1:]
        start = stop
    return np.clip(out, 0.0, 1.0, out=out)


def gaussian_q(x: float) -> float:
    """Gaussian tail probability Q(x) = P(Z > x) for standard normal Z."""
    return 0.5 * math.erfc(float(x) / math.sqrt(2.0))


# Rational tail approximation constants (Hastings-style initializer).
_C0, _C1, _C2 = 2.515517, 0.802853, 0.010328
_D1, _D2, _D3 = 1.432788, 0.189269, 0.001308

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def gaussian_q_inv(p: float) -> float:
    """Inverse of the Gaussian tail probability: x such that Q(x) = p.

    A rational approximation in sqrt(-2 ln p) seeds the root, then two
    Newton steps on erfc polish it; absolute error is far below 1e-9 over
    any p away from the extreme underflow region (|x| up to about 37).

    Args:
        p: tail probability, strictly inside (0, 1).

    Returns:
        The unique x with Q(x) = p (positive for p < 0.5).

    Raises:
        ValueError: if p is outside the open interval (0, 1).
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"tail probability must lie in (0, 1), got {p}")
    if p == 0.5:
        return 0.0
    q = p if p < 0.5 else 1.0 - p
    t = math.sqrt(-2.0 * math.log(q))
    x = t - (_C0 + t * (_C1 + t * _C2)) / (1.0 + t * (_D1 + t * (_D2 + t * _D3)))
    for _ in range(2):
        pdf = math.exp(-0.5 * x * x) / _SQRT_2PI
        if pdf <= 0.0:
            break
        x += (gaussian_q(x) - q) / pdf
    return x if p < 0.5 else -x
