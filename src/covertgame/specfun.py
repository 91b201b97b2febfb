"""Special functions backing the detection and rate models.

Two primitives are needed and both are implemented from scratch on top of
``math`` and ``numpy`` so that results are reproducible to stated tolerances
without an external special-function stack:

* ``reg_gamma_q_grid``: the regularized upper incomplete gamma function
  Q(n, x) at integer shape n, over an array of points.  This is the tail
  probability of an Erlang(n) (equally, a scaled chi-squared with 2n
  degrees of freedom) and therefore the exact false-alarm / miss building
  block of an energy detector that averages n squared magnitudes.
* ``gaussian_q_inv``: the inverse of the Gaussian tail probability
  Q(x) = P(Z > x), needed by the finite-blocklength rate formula.

For integer shape the upper incomplete gamma reduces to a finite Poisson
tail sum,

    Q(n, x) = sum_{k=0}^{n-1} x^k e^{-x} / k!,

whose terms t_k = x^k e^-x / k! are positive.  Every point adds only the
O(sqrt(x)) terms in its window (``_windows``), by one of two kernels that
the shape picks; each cell depends on (n, x) alone, not on the other points.

Up to n = ``_WINDOW_SUM_MAX_SHAPE`` (200), ``_window_sums`` takes every term
in log space.  Writing the log term as

    ln t_k = (k - x) + k*log1p((x - k)/k) - (0.5*ln(2*pi*k) + tail(k))

keeps every contributing piece small near the dominant terms (k close to
x).  It adds the terms row by row: for each k it computes t_k once, over
the sorted points whose window holds k, and adds it to their running sums.
So each point adds its own window's terms one k at a time, in increasing
k, from 0.0, and then adds that sum to e^-x once; a term outside its window
never enters.  Ordered by window end, then window start, the points holding
k are one contiguous slice, because neither bound falls in that order.
Near points (x <= n-1) have both bounds rising with x.  Far-tail points
(x > n-1) all end at k = n-1, but their starts do not rise with x, hence
the second key.  Were a start ever to fall by rounding, the points would
split there into groups with a slice each.  ``_rows`` finds every k's
slice by two vectorized binary searches, and the kernel walks the k in
increasing order, one set of numpy calls over each k's slice.  Every golden
output pinned at n = 200 rests on these bits; the test suite holds this
kernel bit for bit to a plain windowed sum.

Above n = 200, ``_recurrence_sums`` sums the same windows from one anchor
term per point: at the mode floor(x), or the window end nearest it, in log
space (``_log_anchor``).  The other terms follow by the ratios
t_{k-1} = t_k k / x and t_{k+1} = t_k x / (k+1), outward to the window's
ends, two roundings a step instead of a log1p and an exp a term: about
1.7 ns a term against 4.7 ns at n = 2000, so a long-block cell table takes
about a third of the time.

Above the mode a point's window ends early where the rest of its terms
cannot move its sum (``_tail_cut``).  Bennett's bound puts every later term
below 2^-54, while the sum already exceeds 1/2, so each of those adds
would round back to the same value: the cut skips about 5 % of the terms
at n >= 2000 and changes no bit.  It applies where the window starts at or
below x - sqrt(x) and does not end at k = n-1.

Accuracy domain: 1 <= n <= MAX_SHAPE and x >= 0.  There Q(n, x) stays
within 1e-10 absolute error, and 1e-12 relative error wherever Q > 1e-300,
of a 60-digit oracle, tested at x < 1, near n - 1, n +- 9 sqrt(n) and in
the far tail out to 20n, densest where Q lies between 1e-300 and 1e-40.
Measured on those points and denser draws at n = 201, 2000, 10^4 and 10^5,
the worst errors of either kernel are 5e-13 relative and 6e-15 absolute.
Scenarios with a longer block are rejected.

Far in the tail Q is too small for 1 - Q to differ from 1.0.  ``_q_negligible``
marks such points by the Chernoff bound ln Q <= m - x + m ln(x/m), m = n - 1,
with one e-fold of margin below 2^-54, so a caller that needs only 1 - Q
can skip them and keep every bit.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

import numpy as np

__all__ = ["reg_gamma_q_grid", "gaussian_q_inv"]

_LN_2PI = math.log(2.0 * math.pi)

# Largest shape n inside the tested accuracy domain (module docstring).
MAX_SHAPE = 100_000

# Smallest tail probability inside gaussian_q_inv's accuracy domain: the
# smallest normal float.  Below it the quantile's error grows past 1e-7.
MIN_TAIL_PROB = sys.float_info.min

# Index below which ln k! is taken from math.lgamma instead of the Stirling
# series; at k >= 15 the truncated series is accurate to well under 1e-13.
_STIRLING_MIN_K = 15

# Poisson-term window of reg_gamma_q_grid: half-width in units of sqrt(x),
# extra reach above the mode, and the e-folds of decay below k = n-1 < x
# past which terms are dropped (see _windows).
_WINDOW_SIGMAS = 9.0
_WINDOW_PAD = 27.0
_WINDOW_DECAY = 39.0

# Shapes above this take the recurrence (``_recurrence_sums``), about 3x
# faster at n = 2000 to 10^4; shapes up to it keep the window sums
# (``_window_sums``) and their bits, which every golden output pinned at
# n = 200 (both presets) depends on.  The golden change that follows the
# benchmark change (ROADMAP item 6) hands n <= 200 to the recurrence too
# (about 15 -> 9 ms a table there) and deletes ``_rows``, the row loop and
# ``_terms``.
_WINDOW_SUM_MAX_SHAPE = 200


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
    base[_STIRLING_MIN_K - 1:] += _stirling_tail(k[_STIRLING_MIN_K - 1:])  # empty at n <= 15
    k.flags.writeable = False
    base.flags.writeable = False
    return k, base


def _validate_shape(n: int) -> int:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"shape n must be a positive integer, got {n!r}")
    if not 1 <= n <= MAX_SHAPE:
        raise ValueError(f"shape n must be a positive integer at most MAX_SHAPE = {MAX_SHAPE}, "
                         f"where Q(n, x) is accurate, got {n}")
    return int(n)


def reg_gamma_q_grid(n: int, x: np.ndarray) -> np.ndarray:
    """Vectorized Q(n, x) over an array of evaluation points.

    This is the one evaluation of Q(n, x) in the package; payoff-matrix
    assembly calls it for many x at once.  Each distinct point sums only the
    Poisson terms inside its own window (see ``_windows``), O(sqrt(x)) of
    them: by ``_window_sums`` up to n = 200 and by ``_recurrence_sums``
    above it.  Each cell depends on (n, x) alone, not on the other points.

    Args:
        n: integer shape, 1 <= n <= MAX_SHAPE.
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
    sums = _window_sums if n <= _WINDOW_SUM_MAX_SHAPE else _recurrence_sums
    out[inner] = sums(n, xs)[inverse]
    return out.reshape(x.shape)


# Natural log of 2^-54 / e: a Q(n, x) below this is too small to move 1 - Q.
_NEGLIGIBLE_LOG_Q = -54.0 * math.log(2.0) - 1.0


def _q_negligible(n: int, x: np.ndarray) -> np.ndarray:
    """Where an upper bound proves fl(1 - Q(n, x)) == 1.0, for any shape of x >= 0.

    Q(n, x) = P(Poisson(x) <= m) with m = n - 1.  For x > m the Chernoff
    bound on the Poisson lower tail (Chernoff 1952) gives

        ln Q <= m - x + m ln(x / m),

    and for n = 1, Q = e^-x exactly; at x <= m the same expression is
    m - x >= 0, which bounds nothing.  x = +inf has Q = 0.  A point is
    negligible where the bound is below ln(2^-54) - 1.  Its true Q is then at
    most 2^-54 / e.  The kernel adds a subset of the positive Poisson terms,
    each to a small relative error: about 1e-13 for a term taken in log
    space, and for a recurrence term W steps from its anchor up to about
    W * 2^-52 more, under 1e-12 for the W < 3000 steps of any window up to
    MAX_SHAPE.  So its value is at most 2^-54 and 1 - Q rounds to exactly
    1.0 (a tie at 2^-54 rounds to even, 1.0).  The
    margin of one e-fold also covers the rounding of the bound itself: near
    the cut-off that is a few ulps of x, under 1e-10 for n <= MAX_SHAPE.
    """
    m = n - 1
    with np.errstate(invalid="ignore"):  # inf - inf at x = inf, marked below
        log_bound = -x if m == 0 else m - x + m * np.log(np.maximum(x, m) / m)
    return (log_bound < _NEGLIGIBLE_LOG_Q) | (x == math.inf)


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


def _tail_cut(n: int, xs: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Window ends without the upper terms that cannot move their running sum.

    At k >= x + a, Bennett's bound (see ``_windows``) and t_x <= 1/sqrt(2 pi x)
    (Stirling) give ln t_k <= -a^2 / (2(x + a/3)) - ln(2 pi x)/2.  That is at
    most ``_NEGLIGIBLE_LOG_Q`` = ln(2^-54) - 1 once a = c/3 + sqrt(c^2/9 + 2cx),
    c = -_NEGLIGIBLE_LOG_Q - ln(2 pi x)/2, so each such term is below
    2^-54 / e, and computed below 2^-54.  Where lo <= x - sqrt(x) (so x > 2.6,
    as lo >= 1), lo lies below the Poisson median (at least x - ln 2), so the
    terms summed before k_cut = ceil(x + a) exceed 1/2 and half an ulp of
    their sum is at least 2^-54: every later add rounds back to the same sum.
    Those points end at min(hi, k_cut - 1) with every bit kept.  A window
    capped at k = n-1 keeps its end.
    """
    cut = hi < n - 1
    cut[cut] = lo[cut] <= xs[cut] - np.sqrt(xs[cut])
    x = xs[cut]
    c = -_NEGLIGIBLE_LOG_Q - 0.5 * (_LN_2PI + np.log(x))
    reach = c / 3.0 + np.sqrt(c * c / 9.0 + 2.0 * c * x)
    hi = hi.copy()
    hi[cut] = np.minimum(hi[cut], np.ceil(x + reach) - 1.0)
    return hi


def _rows(lo: np.ndarray, hi: np.ndarray) -> list[tuple[int, int, int]]:
    """Rows (k, a_k, b_k) of windows sorted by (hi, lo): points [a_k, b_k) hold k.

    The points split into groups where a window start falls.  Within a group
    neither bound falls, so the points whose window holds k are the slice
    [a_k, b_k) with a_k = #(hi < k) and b_k = #(lo <= k), found for every k
    by one binary search each.  Each group gives its nonempty rows in
    increasing k, so each point meets every k of its window once, in order.
    """
    cuts = [0, *(np.flatnonzero(lo[1:] < lo[:-1]) + 1).tolist(), lo.size]
    rows = []
    for start, stop in zip(cuts, cuts[1:]):
        k0, k1 = int(lo[start]), int(hi[stop - 1]) + 1  # lo rises, hi is sorted
        ks = np.arange(k0, k1, dtype=float)
        a = start + np.searchsorted(hi[start:stop], ks, side="left")
        b = start + np.searchsorted(lo[start:stop], ks, side="right")
        rows += [(k, a_k, b_k) for k, a_k, b_k in zip(range(k0, k1), a.tolist(), b.tolist())
                 if a_k < b_k]
    return rows


def _terms(x: np.ndarray, kk, base, diff: np.ndarray, out: np.ndarray) -> np.ndarray:
    """t_k = exp(k log1p((x - k)/k) - (x - k) - base_k) into ``out``.

    ``kk`` and ``base`` are one k and its base_k for a row of points, or
    columns of consecutive k for a (rows x points) table.
    """
    np.subtract(x, kk, out=diff)
    np.divide(diff, kk, out=out)
    np.log1p(out, out=out)
    out *= kk
    out -= diff  # (k - x) + m equals m - (x - k) exactly
    out -= base
    return np.exp(out, out=out)


def _window_sums(n: int, xs: np.ndarray) -> np.ndarray:
    """Q(n, x) at sorted, finite, positive points, adding their terms one k at a time."""
    if not xs.size:
        return np.exp(-xs)
    _, base = _poisson_tables(n)
    lo, hi = _windows(n, xs)
    hi = _tail_cut(n, xs, lo, hi)
    order = np.lexsort((lo, hi))
    lo, hi, x = lo[order], hi[order], xs[order]
    diff_buf, term_buf = np.empty(xs.size), np.empty(xs.size)
    sums = np.zeros(xs.size)  # at n = 1 every window is empty: Q = e^-x
    with np.errstate(divide="ignore"):  # tiny x rounds (x - k)/k to -1: t_k = 0
        for k, a, b in _rows(lo, hi):
            row = _terms(x[a:b], float(k), base[k - 1], diff_buf[:b - a], term_buf[:b - a])
            row_sums = sums[a:b]  # add in place: sums[a:b] += would copy back
            np.add(row_sums, row, out=row_sums)
    sums += np.exp(-x, out=x)
    out = np.empty_like(sums)
    out[order] = np.clip(sums, 0.0, 1.0, out=sums)
    return out


# Terms of the series 2 m v^3 (1/3 + v^2/5 + v^4/7 + ...) that ``_log_anchor``
# sums: at |v| <= 1/3 the first one left out is below 4e-18 of its result.
_BD0_TERMS = 16


def _log_anchor(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """m ln(x/m) - (x - m), the part of ln t_m = m ln x - x - ln m! that depends on x.

    It is -bd0(m, x) in Loader's notation ("Fast and accurate computation of
    binomial probabilities", 2000).  The log form of ``_terms``,
    m log1p((x - m)/m) - (x - m), loses about (x - m) ulps of 1 to the
    rounding of log1p: 1.9e-12 of Q at n = 10^5, x = 109126.  Where
    |v| <= 1/3, v = (x - m)/(x + m), the series

        m ln(x/m) - (x - m) = 2 m v^3 (1/3 + v^2/5 + v^4/7 + ...) - (x - m) v

    has no such loss: each of its parts is within a few ulps of the result.
    """
    d = x - m
    log_form = d / m
    with np.errstate(divide="ignore"):  # tiny x rounds d/m to -1: ln t_m = -inf
        np.log1p(log_form, out=log_form)
    log_form *= m
    log_form -= d
    v = d / (x + m)
    z = v * v
    series = np.full_like(v, 1.0 / (2 * _BD0_TERMS + 1))
    for j in range(_BD0_TERMS - 2, -1, -1):
        series *= z
        series += 1.0 / (2 * j + 3)
    series *= z
    series *= v
    series *= 2.0 * m
    series -= np.multiply(d, v, out=d)  # finite also where |v| > 1/3, as v^2 <= 1
    np.copyto(log_form, series, where=np.abs(v, out=v) <= 1.0 / 3.0)
    return log_form


def _walk(steps: np.ndarray, up: bool, x: np.ndarray, m: np.ndarray, t: np.ndarray,
          total: np.ndarray, work: np.ndarray) -> None:
    """Add to ``total`` the terms ``steps`` ratio steps from each anchor t_m, one way.

    Down, t_{k-1} = t_k k / x; up, t_{k+1} = t_k x / (k+1).  Sorted by step
    count, the points still walking at step j are a prefix, so each step is
    one set of numpy calls over it.  ``work`` is five scratch rows of points.
    """
    order = np.argsort(-steps, kind="stable")
    walking = np.cumsum(np.bincount(steps.astype(np.intp))[::-1])[::-1].tolist()  # [j]: steps >= j
    xw, mw, tw, sums, ratio = work
    for row, a in ((xw, x), (mw, m), (tw, t)):
        np.take(a, order, out=row)
    sums.fill(0.0)
    for j, c in enumerate(walking[1:], 1):
        r, tc, sc = ratio[:c], tw[:c], sums[:c]
        if up:
            np.divide(xw[:c], np.add(mw[:c], j, out=r), out=r)
        else:
            np.divide(np.subtract(mw[:c], j - 1, out=r), xw[:c], out=r)
        np.add(sc, np.multiply(tc, r, out=tc), out=sc)
    xw[order] = sums
    total += xw


def _recurrence_sums(n: int, xs: np.ndarray) -> np.ndarray:
    """Q(n, x) at sorted, finite, positive points, by recurrence from each window's anchor.

    Each point's window is the one ``_window_sums`` adds (``_windows`` with
    ``_tail_cut``).  Its anchor term, at m = clip(floor(x), lo, hi), is
    exp(``_log_anchor`` - base_m); the rest follow from it by the ratio
    t_{k+1} / t_k = x / (k+1) (Fox & Glynn, CACM 31(4), 1988), down to lo
    and up to hi.  m is the mode where the window holds it, and otherwise
    the window end nearest to it, so no step makes a term grow.
    """
    _, base = _poisson_tables(n)
    lo, hi = _windows(n, xs)
    hi = _tail_cut(n, xs, lo, hi)
    m = np.clip(np.floor(xs), lo, hi)
    down, up = np.subtract(m, lo, out=lo), np.subtract(hi, m, out=hi)
    t = _log_anchor(xs, m)
    t -= base[m.astype(np.intp) - 1]
    np.exp(t, out=t)
    total, work = t.copy(), np.empty((5, xs.size))
    _walk(down, False, xs, m, t, total, work)
    _walk(up, True, xs, m, t, total, work)
    total += np.exp(-xs, out=work[0])
    return np.clip(total, 0.0, 1.0, out=total)


# Rational tail approximation constants (Hastings-style initializer).
_C0, _C1, _C2 = 2.515517, 0.802853, 0.010328
_D1, _D2, _D3 = 1.432788, 0.189269, 0.001308

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def gaussian_q_inv(p: float) -> float:
    """Inverse of the Gaussian tail probability: x such that Q(x) = p.

    A rational approximation in sqrt(-2 ln p) seeds the root, then two
    Newton steps on erfc polish it.

    Accuracy domain: MIN_TAIL_PROB <= p < 1, that is every normal float p
    below 1 (|x| up to about 37.5).  There the absolute error is at most
    1.31e-10 (1.3007e-10 near p = 1e-229) against a 60-digit bisection
    oracle.  Subnormal p are rejected: the error reaches 1.6e-7 at
    p = 1e-320 and 3.4e-4 at p = 1e-322.

    Args:
        p: tail probability, MIN_TAIL_PROB <= p < 1.

    Returns:
        The unique x with Q(x) = p (positive for p < 0.5).

    Raises:
        ValueError: if p is outside [MIN_TAIL_PROB, 1).
    """
    p = float(p)
    if not MIN_TAIL_PROB <= p < 1.0:
        raise ValueError(f"tail probability must lie in [{MIN_TAIL_PROB}, 1), got {p}")
    if p == 0.5:
        return 0.0
    q = p if p < 0.5 else 1.0 - p
    t = math.sqrt(-2.0 * math.log(q))
    x = t - (_C0 + t * (_C1 + t * _C2)) / (1.0 + t * (_D1 + t * (_D2 + t * _D3)))
    for _ in range(2):
        pdf = math.exp(-0.5 * x * x) / _SQRT_2PI
        x += (0.5 * math.erfc(x / math.sqrt(2.0)) - q) / pdf
    return x if p < 0.5 else -x
