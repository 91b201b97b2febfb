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

whose terms t_k = x^k e^-x / k! are positive.  A summed point adds only
the O(sqrt(x)) terms in its window (``_windows``).  The shape picks the
kernel: window sums at every point up to n = 200; above it, mostly an
asymptotic expansion that sums no terms.  Each cell depends on (n, x)
alone, not on the other points.

``_window_sums``, the one summing kernel, takes every term in log space.
Writing the log term as

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

Above n = 200, ``_long_block_q`` settles most points without a sum.

1. A point far enough below n takes no evaluation at all
   (``_q_rounds_to_one``).  The Chernoff bound on the Poisson upper tail,
   ln(1 - Q) <= n - x + n ln(x/n) for x < n, puts 1 - Q below 2^-54 / e
   there, so 1.0 is Q correctly rounded and the kernel returns it exactly.
   On the reference preset that is 67 % of a cell table's distinct points
   at n = 2000 (x below about 0.82 n) and 83 % at n = 10^4 (below 0.91 n).
   The cut-off lies above 0.5 n at every n > 200 (about 0.502 n at
   n = 201).  ``_q_negligible`` below is its mirror at the lower tail; both
   take the bound from ``_log_chernoff``.
2. A point with x/n in ``_TEMME_BAND`` = [0.5, 2] takes Temme's uniform
   asymptotic expansion (``_temme_q``): an erfc, an exp and one polynomial
   in eta, the same work at every n, where a Poisson window would take
   O(sqrt(n)) terms.  By 1. that is every live point below 2 n.  Between
   the Chernoff cut-off and the x where 1 - Q reaches 2^-54 it also returns
   exactly 1.0 (tested at n = 2000, 10^4 and 10^5), so there too P_M reads
   0.0.

The rest, far-tail false-alarm points x > 2 n, take the window sums: 100 of
the reference preset's 15,674 distinct points at n = 2000, each window at
most 58 terms deep, since every step down from k = n-1 shrinks a term by
(n-1)/x < 1/2.

Above the mode a point's window ends early where the rest of its terms
cannot move its sum (``_tail_cut``).  Bennett's bound puts every later term
below 2^-54, while the sum already exceeds 1/2, so each of those adds
would round back to the same value and the cut changes no bit.  It applies
where the window starts at or below x - sqrt(x) and does not end at
k = n-1.

Accuracy domain: 1 <= n <= MAX_SHAPE and x >= 0.  There Q(n, x) stays
within 1e-10 absolute error, and 1e-12 relative error wherever Q > 1e-300,
of a 60-digit oracle, tested at x < 1, near n - 1, n +- 9 sqrt(n), at and
across the edges of ``_TEMME_BAND`` and in the far tail out to 20n,
densest where Q lies between 1e-300 and 1e-40.  Measured on those points
and dense sweeps of [0.5 n, 0.7 n], [1.3 n, 2 n] and (2 n, 3 n] at
n = 201 to 2200, Temme's worst errors are 1.1e-16 absolute and 2.6e-13
relative (the latter from the rounding of n eta^2 / 2, up to about 700, in
its exp and erfc, and near 2 n at small n from the truncation of its Taylor
rows).  The window sums' are 1.7e-13 relative in the far tail above
n = 200, 5e-13 relative at any x (measured up to n = 10^5) and 5e-15
absolute (Q(50, 14.43), from the lgamma part of ``_poisson_tables``).
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

# Shapes above this take the long-block kernel (``_long_block_q``: Temme's
# expansion for 0.5 n <= x <= 2 n, the window sums in the far tail); shapes
# up to it keep the window sums (``_window_sums``) at every point, and their
# bits, which every golden output pinned at n = 200 (both presets) depends
# on.  Handing n <= 200 to the long-block kernel too first needs Temme's
# accuracy measured below n = 201, and is a golden change (ROADMAP item 23).
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
    assembly calls it for many x at once.  Each distinct point is evaluated
    once.  Up to n = 200 ``_window_sums`` sums the Poisson terms inside its
    window (see ``_windows``), O(sqrt(x)) of them.  Above it
    ``_long_block_q`` returns 1.0 where Q provably rounds to it, takes
    Temme's expansion (constant work a point) for x/n in [0.5, 2], and
    hands only the far-tail points x > 2 n to the window sums.  Each cell
    depends on (n, x) alone, not on the other points.

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
    sums = _window_sums if n <= _WINDOW_SUM_MAX_SHAPE else _long_block_q
    out[inner] = sums(n, xs)[inverse]
    return out.reshape(x.shape)


# Natural log of 2^-54 / e: a Q(n, x) below this is too small to move 1 - Q.
_NEGLIGIBLE_LOG_Q = -54.0 * math.log(2.0) - 1.0


def _log_chernoff(c: int, x: np.ndarray) -> np.ndarray:
    """c - x + c ln(x/c), Chernoff's bound (1952) on a Poisson(x) tail at c.

    It bounds ln P(K <= c) for x >= c and ln P(K >= c) for x <= c, and is 0
    at x = c.  Callers clamp x to the side they bound, so the other side
    reads 0 and proves nothing.
    """
    return c - x + c * np.log(x / c)


def _q_negligible(n: int, x: np.ndarray) -> np.ndarray:
    """Where an upper bound proves fl(1 - Q(n, x)) == 1.0, for any shape of x >= 0.

    Q(n, x) = P(Poisson(x) <= m) with m = n - 1.  For x > m the Chernoff
    bound on the Poisson lower tail (``_log_chernoff``) gives

        ln Q <= m - x + m ln(x / m),

    and for n = 1, Q = e^-x exactly; x <= m is clamped to m, where the bound
    reads 0 and proves nothing.  x = +inf has Q = 0.  A point is
    negligible where the bound is below ln(2^-54) - 1.  Its true Q is then at
    most 2^-54 / e.  The kernel's value is within a small relative error of
    it: the window sums add a subset of the positive Poisson terms, each
    taken in log space to about 1e-13, and Temme's expansion stays within
    3e-13 in its band.  So its value is at most 2^-54 and 1 - Q rounds to
    exactly 1.0 (a tie at 2^-54 rounds to even, 1.0).  The margin of one
    e-fold also covers the rounding of the bound itself: near the cut-off
    that is a few ulps of x, under 1e-10 for n <= MAX_SHAPE.
    """
    m = n - 1
    with np.errstate(invalid="ignore"):  # inf - inf at x = inf, marked below
        log_bound = -x if m == 0 else _log_chernoff(m, np.maximum(x, m))
    return (log_bound < _NEGLIGIBLE_LOG_Q) | (x == math.inf)


def _q_rounds_to_one(n: int, x: np.ndarray) -> np.ndarray:
    """Where an upper bound proves fl(Q(n, x)) == 1.0, for any shape of x >= 0.

    The mirror of ``_q_negligible``: 1 - Q(n, x) = P(Poisson(x) >= n), and
    for x < n the Chernoff bound on the Poisson upper tail gives

        ln(1 - Q) <= n - x + n ln(x / n);

    x >= n is clamped to n, where the bound reads 0 and proves nothing, and
    an x so small that x/n underflows to 0 reads -inf.  Where the bound is
    below ln(2^-54) - 1, 1 - Q is at most 2^-54 / e, under half the spacing
    2^-53 of the floats just below 1, so 1.0 is Q correctly rounded.  The
    e-fold of margin covers the bound's own rounding, as in ``_q_negligible``.
    """
    with np.errstate(divide="ignore"):  # x/n may underflow to 0: ln(1 - Q) = -inf
        return _log_chernoff(n, np.minimum(x, n)) < _NEGLIGIBLE_LOG_Q


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


# Terms of the series 2 m v^3 (1/3 + v^2/5 + v^4/7 + ...) that ``_bd0_series``
# sums: at |v| <= 1/3 the first one left out is below 4e-18 of its result.
_BD0_TERMS = 16


def _bd0_series(x: np.ndarray, m: int) -> np.ndarray:
    """The series form of m ln(x/m) - (x - m), with v = (x - m)/(x + m).

    It is -bd0(m, x) in Loader's notation ("Fast and accurate computation of
    binomial probabilities", 2000).  Where |v| <= 1/3 the series

        m ln(x/m) - (x - m) = 2 m v^3 (1/3 + v^2/5 + v^4/7 + ...) - (x - m) v

    has no cancellation: each of its parts is within a few ulps of the
    result.  Elsewhere it is finite (v^2 <= 1) but truncated.
    """
    d = x - m
    v = d / (x + m)
    z = v * v
    series = np.full_like(v, 1.0 / (2 * _BD0_TERMS + 1))
    for j in range(_BD0_TERMS - 2, -1, -1):
        series *= z
        series += 1.0 / (2 * j + 3)
    series *= z
    series *= v
    series *= 2.0 * m
    series -= np.multiply(d, v, out=d)
    return series


# The x/n band in which ``_long_block_q`` takes Q(n, x) from ``_temme_q``.
# There |eta| <= 0.79, where truncating the Taylor rows of ``_TEMME_C``
# costs at most 7.5e-14 of Q (n = 201, just below 2 n), and |v| <= 1/3,
# where ``_bd0_series`` is exact to about 4e-18.  Past 2 n the truncation
# grows fast: 2.6e-11 of Q at n = 201, x = 2.5 n.
_TEMME_BAND = (0.5, 2.0)

# Taylor coefficients of Temme's c_k(eta) = sum_j _TEMME_C[k][j] eta^j,
# k = 0..5, j = 0..17: c_0 = 1/mu - 1/eta and
# c_k = c'_{k-1}(eta) / eta + (-1)^k g_k / mu, with mu = x/n - 1 and g_k
# Stirling's coefficients (DLMF 8.12.8-9; DiDonato & Morris, ACM TOMS
# 12(4), 1986, tabulate the same rows).  Each float is its exact rational
# correctly rounded: tests/test_specfun.py rebuilds them with fractions.
_TEMME_C = (
    (-0.3333333333333333, 0.08333333333333333, -0.014814814814814815, 0.0011574074074074073,
     0.0003527336860670194, -0.0001787551440329218, 3.919263178522438e-05,
     -2.185448510679992e-06, -1.85406221071516e-06, 8.296711340953087e-07,
     -1.7665952736826078e-07, 6.707853543401498e-09, 1.0261809784240309e-08,
     -4.382036018453353e-09, 9.14769958223679e-10, -2.5514193994946248e-11,
     -5.830772132550426e-11, 2.4361948020667415e-11),
    (-0.001851851851851852, -0.003472222222222222, 0.0026455026455026454,
     -0.0009902263374485596, 0.00020576131687242798, -4.018775720164609e-07,
     -1.8098550334489977e-05, 7.64916091608111e-06, -1.6120900894563446e-06,
     4.647127802807434e-09, 1.378633446915721e-07, -5.752545603517705e-08,
     1.1951628599778148e-08, -1.7543241719747647e-11, -1.0091543710600413e-09,
     4.162792991842583e-10, -8.56390702649298e-11, 6.067215101604758e-14),
    (0.004133597883597883, -0.0026813271604938273, 0.0007716049382716049,
     2.0093878600823047e-06, -0.0001073665322636516, 5.2923448829120125e-05,
     -1.2760635188618728e-05, 3.423578734096138e-08, 1.3721957309062934e-06,
     -6.298992138380055e-07, 1.4280614206064242e-07, -2.0477098421990866e-10,
     -1.409252991086752e-08, 6.228974084922022e-09, -1.3670488396617114e-09,
     9.428356159014678e-13, 1.2872252400089318e-10, -5.5645956134363323e-11),
    (0.0006494341563786008, 0.00022947209362139917, -0.0004691894943952557,
     0.00026772063206283885, -7.561801671883977e-05, -2.396505113867297e-07,
     1.1082654115347302e-05, -5.6749528269915965e-06, 1.4230900732435883e-06,
     -2.7861080291528143e-11, -1.6958404091930278e-07, 8.099464905388083e-08,
     -1.9111168485973655e-08, 2.3928620439808118e-12, 2.0620131815488797e-09,
     -9.460496661855133e-10, 2.1541049775774907e-10, -1.388823336813903e-14),
    (-0.0008618882909167117, 0.0007840392217200666, -0.0002990724803031902,
     -1.4638452578843418e-06, 6.641498215465122e-05, -3.968365047179435e-05,
     1.1375726970678419e-05, 2.507497226237533e-10, -1.6954149536558305e-06,
     8.907507532205309e-07, -2.292934834000805e-07, 2.956794137544049e-11,
     2.8865829742708783e-08, -1.4189739437803219e-08, 3.4463580499464896e-09,
     -2.3024517174528067e-13, -3.9409233028046403e-10, 1.86023389685045e-10),
    (-0.00033679855336635813, -6.972813758365857e-05, 0.0002772753244959392,
     -0.00019932570516188847, 6.797780477937208e-05, 1.419062920643967e-07,
     -1.3594048189768693e-05, 8.018470256334202e-06, -2.291481176508095e-06,
     -3.252473551298454e-10, 3.4652846491085265e-07, -1.8447187191171344e-07,
     4.8240967037894184e-08, -1.7989466721743514e-14, -6.306194500013523e-09,
     3.162417628774568e-09, -7.840924253697429e-10, 5.192679165254041e-15),
)


def _temme_q(n: int, xs: np.ndarray) -> np.ndarray:
    """Q(n, x) at points with x/n in ``_TEMME_BAND``, by Temme's uniform expansion.

    With eta = sign(x - n) sqrt(2 (x/n - 1 - ln(x/n))) (Temme, SIAM J. Math.
    Anal. 10, 1979; DLMF 8.12),

        Q(n, x) = erfc(eta sqrt(n/2)) / 2
                  + e^(-n eta^2/2) / sqrt(2 pi n) * sum_{k<=5} c_k(eta) n^-k.

    n eta^2 / 2 is -``_bd0_series``(x, n), so eta sqrt(n/2) is its signed
    square root.  The c_k sum is one Horner polynomial in eta, its
    coefficients folded over k in 1/n.  erfc and exp come from ``math``, one
    call each a point, so no bit depends on numpy's SIMD loops.
    """
    half_sq = _bd0_series(xs, n)
    np.negative(half_sq, out=half_sq)  # n eta^2 / 2 >= 0
    sign = xs - n
    eta = np.copysign(np.sqrt(half_sq * (2.0 / n)), sign)
    root = np.copysign(np.sqrt(half_sq), sign)
    inv = 1.0 / n
    poly = [0.0] * len(_TEMME_C[0])
    for row in reversed(_TEMME_C):
        poly = [p * inv + c for p, c in zip(poly, row)]
    series = np.full_like(eta, poly[-1])
    for c in reversed(poly[:-1]):
        series *= eta
        series += c
    series *= np.fromiter(map(math.exp, np.negative(half_sq).data), float, xs.size)
    series *= 1.0 / math.sqrt(2.0 * math.pi * n)
    series += 0.5 * np.fromiter(map(math.erfc, root.data), float, xs.size)
    return np.clip(series, 0.0, 1.0, out=series)


def _long_block_q(n: int, xs: np.ndarray) -> np.ndarray:
    """Q(n, x) above n = 200 at sorted, finite, positive points.

    Points that ``_q_rounds_to_one`` proves return exactly 1.0 and cost no
    evaluation: about two thirds of a long-block cell table's points at
    n = 2000.  Above n = 200 its cut-off lies above 0.5 n, so every other
    point below 2 n has x/n in ``_TEMME_BAND`` and takes ``_temme_q``, a
    constant amount of work a point.  The few left, far-tail false-alarm
    points with x > 2 n, take ``_window_sums``: at most 58 terms each.
    """
    out = np.ones_like(xs)
    live = ~_q_rounds_to_one(n, xs)
    low, high = _TEMME_BAND
    band = live & (xs >= low * n) & (xs <= high * n)
    tail = live & ~band
    out[band] = _temme_q(n, xs[band])
    out[tail] = _window_sums(n, xs[tail])
    return out


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
