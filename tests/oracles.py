"""Independent reference implementations used to cross-check the package.

Nothing in here imports covertgame.  Each oracle takes a different route to
the same quantity than the package does (continued fractions instead of the
Poisson sum, exact rational pivoting instead of floating-point pivoting,
exhaustive grid search and learning dynamics instead of duality), so an
agreement between the two is evidence, not circularity.  The exceptions
are ``gamma_q_windowed_reference`` and ``simplex_reference``: earlier
versions of package kernels, kept so that their rewrites can be held to
them bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np

mp.mp.dps = 60

_TINY = mp.mpf(10) ** -300
_STOP = mp.mpf(10) ** -50


def gamma_q_reference(n: int, x) -> mp.mpf:
    """Regularized upper incomplete gamma Q(n, x) at 60 decimal digits.

    Uses the Lentz continued fraction for x >= n + 1 and the lower series
    otherwise, the classic split that keeps both expansions in their fast
    convergence regions.
    """
    n = int(n)
    x = mp.mpf(x)
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0:
        return mp.mpf(1)
    front = mp.e ** (-x + n * mp.log(x) - mp.loggamma(n))
    if x >= n + 1:
        b = x + 1 - n
        c = 1 / _TINY
        d = 1 / b
        h = d
        for i in range(1, 100000):
            an = -i * (i - n)
            b += 2
            d = an * d + b
            if abs(d) < _TINY:
                d = _TINY
            c = b + an / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1 / d
            delta = d * c
            h *= delta
            if abs(delta - 1) < _STOP:
                return front * h
        raise RuntimeError(f"continued fraction stalled at n={n}, x={x}")
    ap = mp.mpf(n)
    total = 1 / ap
    term = total
    for _ in range(100000):
        ap += 1
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _STOP:
            return 1 - front * total
    raise RuntimeError(f"series stalled at n={n}, x={x}")


def gamma_q_full_sum(x, k: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Q(n, x) summing all n Poisson terms of every point, in increasing k.

    The full-width sum that the package's windowed grid path replaced, kept
    as its reference.  ``k`` = 1..n-1 and ``base`` = ln k! - (k ln k - k)
    are the caller's tables, so the two paths share every term bit for bit
    and differ only in which terms they add.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.exp(-x)
    if k.size:
        chunk = max(1, (16 * 1024 * 1024) // (8 * k.size))
        for lo in range(0, x.size, chunk):
            xs = x[None, lo:lo + chunk]
            with np.errstate(divide="ignore", invalid="ignore"):
                ln_t = (k[:, None] - xs) + k[:, None] * np.log1p((xs - k[:, None]) / k[:, None]) \
                    - base[:, None]
            out[lo:lo + chunk] += np.cumsum(np.exp(ln_t), axis=0)[-1]
    np.clip(out, 0.0, 1.0, out=out)
    out[x == 0.0] = 1.0
    out[x == math.inf] = 0.0
    return out


def poisson_windows(n: int, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last k, as floats, of the Poisson terms Q(n, x) must sum.

    A fixed copy of the package's window rule: 9 sqrt(x) + 27 above the mode
    (Bennett), 9 sqrt(x) below it, and below k = n-1 < x no further down
    than 39 e-folds of the k/x <= (n-1)/x decay.  The windowed reference
    sums these windows, so a change to a bound in the package shows up as a
    mismatch against this copy instead of moving both sides.
    """
    root = np.sqrt(xs)
    hi = np.minimum(np.ceil(xs + 9.0 * root + 27.0), n - 1)
    lo = np.floor(np.minimum(xs, n - 1) - 9.0 * root)
    past = xs > n - 1
    with np.errstate(divide="ignore"):
        steps = np.ceil(39.0 / np.log(xs[past] / (n - 1)))
    lo[past] = np.maximum(lo[past], n - 1 - steps)
    return np.maximum(lo, 1.0), hi


def tail_cut_ends(n: int, xs: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Window ends after the package's half-ulp tail cut, a fixed copy of it.

    Where hi < n-1 and lo <= x - sqrt(x), the window ends at
    min(hi, ceil(x + a) - 1) with a = c/3 + sqrt(c^2/9 + 2cx) and
    c = 54 ln 2 + 1 - ln(2 pi x)/2: past it every term is below 2^-54 / e.
    """
    cut = hi < n - 1
    cut[cut] = lo[cut] <= xs[cut] - np.sqrt(xs[cut])
    x = xs[cut]
    c = 54.0 * math.log(2.0) + 1.0 - 0.5 * (math.log(2.0 * math.pi) + np.log(x))
    reach = c / 3.0 + np.sqrt(c * c / 9.0 + 2.0 * c * x)
    hi = hi.copy()
    hi[cut] = np.minimum(hi[cut], np.ceil(x + reach) - 1.0)
    return hi


def gamma_q_windowed_reference(xs: np.ndarray, k: np.ndarray, base: np.ndarray,
                               lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Q(n, x) at sorted positive points, summing each point's window [lo, hi].

    A masked windowed sum, chunked by points: each chunk of at most 32 Ki
    cells gets a fresh (k x points) term table, every term outside its
    point's window masked to 0, in the kernel's summation order (each
    point's terms in increasing k from 0.0, then e^-x once).  It is the
    bit-for-bit reference for the window sums.  ``k``, ``base`` and the
    windows are the caller's, as for ``gamma_q_full_sum``.
    """
    chunk_cells = 32 * 1024
    out = np.empty_like(xs)
    start = 0
    while start < xs.size:
        cap = start + max(1, chunk_cells // int(hi[start] - lo[start] + 1))
        rows = hi[start:cap] - np.minimum.accumulate(lo[start:cap]) + 1
        cells = rows * np.arange(1, rows.size + 1)
        stop = start + max(1, int(np.searchsorted(cells, chunk_cells, side="right")))
        first, last = int(lo[start:stop].min()), int(hi[stop - 1])
        kk = k[first - 1:last, None]
        xc = xs[None, start:stop]
        with np.errstate(divide="ignore"):
            ln_t = (kk - xc) + kk * np.log1p((xc - kk) / kk) - base[first - 1:last, None]
        ln_t[(kk < lo[None, start:stop]) | (kk > hi[None, start:stop])] = -math.inf
        terms = np.exp(ln_t, out=ln_t)
        total = terms.sum(axis=0) if terms.shape[1] > 1 else np.cumsum(terms[:, 0])[-1:]
        out[start:stop] = np.exp(-xs[start:stop]) + total
        start = stop
    return np.clip(out, 0.0, 1.0, out=out)


def gaussian_quantile_reference(p) -> mp.mpf:
    """x with erfc(x / sqrt 2) / 2 = p, by plain bisection on [-40, 40]."""
    p = mp.mpf(p)
    if not 0 < p < 1:
        raise ValueError("p must be inside (0, 1)")
    lo, hi = mp.mpf(-40), mp.mpf(40)
    for _ in range(200):
        mid = (lo + hi) / 2
        if mp.erfc(mid / mp.sqrt(2)) / 2 > p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _series_product(a: list, b: list, size: int) -> list:
    """The first ``size`` coefficients of the product of two power series."""
    return [sum(a[i] * b[j - i] for i in range(j + 1) if i < len(a) and j - i < len(b))
            for j in range(size)]


def _series_reciprocal(a: list, size: int) -> list:
    """The first ``size`` coefficients of 1/a, for a[0] != 0."""
    out = [1 / a[0]]
    for j in range(1, size):
        out.append(-sum(a[i] * out[j - i] for i in range(1, min(j, len(a) - 1) + 1)) / a[0])
    return out


def stirling_coefficients(count: int) -> list[Fraction]:
    """g_0..g_{count-1} of Gamma*(z) ~ sum_k g_k z^-k (DLMF 5.11.3), exactly.

    ln Gamma*(z) = sum_m B_2m / (2m (2m - 1)) z^(1 - 2m), with the Bernoulli
    numbers from their defining recurrence, and g = exp of that series by
    g_j = (1/j) sum_i i s_i g_{j-i}.
    """
    bernoulli = [Fraction(1)]
    for j in range(1, count + 1):
        bernoulli.append(-sum(math.comb(j + 1, i) * bernoulli[i] for i in range(j)) / (j + 1))
    log = [Fraction(0)] * count
    for m in range(1, count // 2 + 1):
        log[2 * m - 1] = bernoulli[2 * m] / (2 * m * (2 * m - 1))
    g = [Fraction(1)]
    for j in range(1, count):
        g.append(sum(i * log[i] * g[j - i] for i in range(1, j + 1)) / j)
    return g


def temme_coefficients(rows: int, cols: int) -> list[list[Fraction]]:
    """Taylor coefficients in eta of Temme's c_0..c_{rows-1}, exactly.

    eta^2 / 2 = mu - ln(1 + mu) gives eta = mu h(mu) with h the square root
    of sum_j 2 (-1)^j mu^j / (j + 2); Lagrange inversion reverts it,
    [eta^j] mu = [mu^(j-1)] h^-j / j.  Then c_0 = 1/mu - 1/eta and
    c_k = c'_{k-1} / eta + (-1)^k g_k / mu (DLMF 8.12.8-9), where each
    1/eta pole cancels; the cancellation is asserted, a check on g_k.
    """
    size = cols + 2 * rows + 1
    f = [Fraction(2 * (-1) ** j, j + 2) for j in range(size)]
    h = [Fraction(1)]
    for j in range(1, size):  # h = sqrt(f), f[0] = 1
        h.append((f[j] - sum(h[i] * h[j - i] for i in range(1, j))) / 2)
    h_inv = _series_reciprocal(h, size)
    mu, power = [Fraction(0)], [Fraction(1)]
    for j in range(1, size):
        power = _series_product(power, h_inv, size)
        mu.append(power[j - 1] / j)
    eta_over_mu = _series_reciprocal(mu[1:], size - 1)
    g = stirling_coefficients(rows)
    c = [eta_over_mu[1:]]
    for k in range(1, rows):
        sign_g = (-1) ** k * g[k]
        assert c[-1][1] + sign_g == 0
        c.append([(j + 2) * c[-1][j + 2] + sign_g * eta_over_mu[j + 1]
                  for j in range(len(c[-1]) - 2)])
    return [row[:cols] for row in c]


class ExactInfeasible(ValueError):
    pass


class ExactUnbounded(ValueError):
    pass


def _pivot(tableau, basis, row, col):
    piv = tableau[row][col]
    tableau[row] = [v / piv for v in tableau[row]]
    for r, line in enumerate(tableau):
        if r != row and line[col] != 0:
            factor = line[col]
            tableau[r] = [v - factor * w for v, w in zip(line, tableau[row])]
    basis[row] = col


def _bland_solve(tableau, basis, cols):
    """Minimize the objective held in the last tableau row, Bland's rule."""
    rows = len(basis)
    while True:
        obj = tableau[rows]
        col = next((j for j in range(cols) if obj[j] < 0), None)
        if col is None:
            return
        best_row, best_ratio = None, None
        for r in range(rows):
            coef = tableau[r][col]
            if coef > 0:
                ratio = tableau[r][-1] / coef
                if (best_ratio is None or ratio < best_ratio
                        or (ratio == best_ratio and basis[r] < basis[best_row])):
                    best_row, best_ratio = r, ratio
        if best_row is None:
            raise ExactUnbounded("objective is unbounded")
        _pivot(tableau, basis, best_row, col)


def exact_lp_value(sense, objective, lhs, rhs, kinds, bounds) -> Fraction:
    """Optimal objective of a small LP in exact rational arithmetic.

    Accepts the same shape of data as the package solver (min/max, row
    kinds <=, >=, =, and per-variable (lo, hi) bounds with None for
    unbounded) but shares none of its machinery: bounds are rewritten into
    shifted or split nonnegative variables plus explicit cap rows, and both
    phases run Bland's rule on a dense Fraction tableau, so every pivot is
    exact and termination is guaranteed.
    """
    objective = [Fraction(v) for v in objective]
    lhs = [[Fraction(v) for v in row] for row in lhs]
    rhs = [Fraction(v) for v in rhs]
    n = len(objective)
    sign = 1 if sense == "min" else -1
    cost = [sign * v for v in objective]

    # Rewrite each variable as one or two nonnegative columns.
    columns = []          # per original variable: list of (col, coef)
    shift = Fraction(0)   # constant folded out of the objective
    cap_rows = []         # (col, cap) upper bounds that become rows
    ncols = 0
    for j in range(n):
        lo, hi = bounds[j]
        if lo is not None:
            lo = Fraction(lo)
        if hi is not None:
            hi = Fraction(hi)
        if lo is not None:
            columns.append([(ncols, Fraction(1))])
            shift += cost[j] * lo
            for i in range(len(lhs)):
                rhs[i] -= lhs[i][j] * lo
            if hi is not None:
                cap_rows.append((ncols, hi - lo))
            ncols += 1
        elif hi is not None:
            columns.append([(ncols, Fraction(-1))])
            shift += cost[j] * hi
            for i in range(len(lhs)):
                rhs[i] -= lhs[i][j] * hi
            ncols += 1
        else:
            columns.append([(ncols, Fraction(1)), (ncols + 1, Fraction(-1))])
            ncols += 2

    rows = []
    row_kinds = []
    for i in range(len(lhs)):
        row = [Fraction(0)] * ncols
        for j in range(n):
            for col, coef in columns[j]:
                row[col] += lhs[i][j] * coef
        rows.append(row)
        row_kinds.append(kinds[i])
    for col, cap in cap_rows:
        row = [Fraction(0)] * ncols
        row[col] = Fraction(1)
        rows.append(row)
        row_kinds.append("<=")
        rhs = rhs + [cap]

    new_cost = [Fraction(0)] * ncols
    for j in range(n):
        for col, coef in columns[j]:
            new_cost[col] += cost[j] * coef

    # Normalize to b >= 0, then append slack and artificial columns.
    for i in range(len(rows)):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
            row_kinds[i] = {"<=": ">=", ">=": "<=", "=": "="}[row_kinds[i]]
    m = len(rows)
    slack_of_row = {}
    for i, kind in enumerate(row_kinds):
        if kind != "=":
            for row in rows:
                row.append(Fraction(0))
            rows[i][-1] = Fraction(1) if kind == "<=" else Fraction(-1)
            slack_of_row[i] = len(rows[i]) - 1
            new_cost.append(Fraction(0))
    width = len(rows[0])
    basis = []
    art_cols = []
    for i, kind in enumerate(row_kinds):
        if kind == "<=":
            basis.append(slack_of_row[i])
        else:
            for r, row in enumerate(rows):
                row.append(Fraction(1) if r == i else Fraction(0))
            art_cols.append(len(rows[0]) - 1)
            basis.append(art_cols[-1])

    total = len(rows[0])
    tableau = [rows[i] + [rhs[i]] for i in range(m)]
    phase1 = [Fraction(0)] * (total + 1)
    for c in art_cols:
        phase1[c] = Fraction(1)
    tableau.append(phase1)
    for r in range(m):
        if basis[r] in art_cols:
            tableau[m] = [v - w for v, w in zip(tableau[m], tableau[r])]
    _bland_solve(tableau, basis, total)
    if tableau[m][-1] != 0:
        raise ExactInfeasible("phase 1 finished above zero")

    # Pivot leftover artificials out of the basis (their values are zero, so
    # these pivots are degenerate and keep feasibility), then drop their
    # columns entirely; a row still holding one is redundant and dropped too.
    for r in range(m):
        if basis[r] in art_cols:
            col = next((j for j in range(width) if tableau[r][j] != 0), None)
            if col is not None:
                _pivot(tableau, basis, r, col)
    keep = [r for r in range(m) if basis[r] not in art_cols]
    tableau = [tableau[r][:width] + [tableau[r][-1]] for r in keep]
    basis = [basis[r] for r in keep]
    m = len(basis)
    phase2 = list(new_cost) + [Fraction(0)] * (width - len(new_cost)) + [Fraction(0)]
    tableau.append(phase2)
    for r in range(m):
        factor = tableau[m][basis[r]]
        if factor != 0:
            tableau[m] = [v - factor * w for v, w in zip(tableau[m], tableau[r])]
    _bland_solve(tableau, basis, width)
    value = -tableau[m][-1] + shift
    return value if sense == "min" else -value


@lru_cache(maxsize=None)
def _compositions(parts: int, total: int) -> np.ndarray:
    """All nonnegative integer vectors of the given length and sum."""
    if parts == 1:
        return np.array([[total]], dtype=np.int32)
    blocks = []
    for first in range(total + 1):
        rest = _compositions(parts - 1, total - first)
        head = np.full((rest.shape[0], 1), first, dtype=np.int32)
        blocks.append(np.hstack([head, rest]))
    return np.vstack(blocks)


def grid_value_bounds(matrix: np.ndarray, denom: int = 200) -> tuple[float, float]:
    """Sandwich the game value by exhaustive search on a simplex grid.

    Checking every row mixture with probabilities in multiples of 1/denom
    against an exactly best-responding column gives a lower bound on the
    value; the mirrored search over column mixtures gives an upper bound.
    The true value always lies inside [lo, hi].
    """
    matrix = np.asarray(matrix, dtype=float)

    def best_guarantee(payoff: np.ndarray) -> float:
        k = payoff.shape[0]
        grid = _compositions(k, denom).astype(float) / denom
        best = -math.inf
        for start in range(0, grid.shape[0], 200_000):
            chunk = grid[start:start + 200_000]
            worst = (chunk @ payoff).min(axis=1)
            best = max(best, float(worst.max()))
        return best

    lo = best_guarantee(matrix)
    hi = -best_guarantee(-matrix.T)
    return lo, hi


def fictitious_play_bounds(matrices, rounds: int = 100_000, pad: int = 4):
    """Value brackets from alternating fictitious play on a batch of games.

    Every game starts with one observation of each player's first action.
    Each round the row player best-responds to the column player's
    empirical mixture, then the column player best-responds to the updated
    row mixture (lowest index on ties).  The guarantees of the running
    mixtures oscillate around the value, so the returned (lo, hi) are the
    best bounds seen over all rounds, with lo <= value <= hi throughout.
    Games smaller than pad x pad are padded with entries no best response
    ever picks, which assumes real entries stay well below 1e8 in
    magnitude.
    """
    batch = len(matrices)
    payoff = np.empty((batch, pad, pad))
    for b, mat in enumerate(matrices):
        mat = np.asarray(mat, dtype=float)
        rows, cols = mat.shape
        payoff[b] = 1e9          # padded columns: terrible for the minimizer
        payoff[b, rows:, :] = -1e9  # padded rows: terrible for the maximizer
        payoff[b, :rows, :cols] = mat
    padded_col = payoff[:, 0, :] > 5e8
    row_counts = np.zeros((batch, pad))
    col_counts = np.zeros((batch, pad))
    row_counts[:, 0] = 1.0
    col_counts[:, 0] = 1.0
    idx = np.arange(batch)
    best_lo = np.full(batch, -np.inf)
    best_hi = np.full(batch, np.inf)
    for _ in range(rounds):
        ybar = col_counts / col_counts.sum(axis=1, keepdims=True)
        row_scores = (payoff @ ybar[:, :, None])[:, :, 0]
        best_hi = np.minimum(best_hi, row_scores.max(axis=1))
        row_counts[idx, np.argmax(row_scores, axis=1)] += 1.0
        xbar = row_counts / row_counts.sum(axis=1, keepdims=True)
        col_scores = (xbar[:, None, :] @ payoff)[:, 0, :]
        best_lo = np.maximum(
            best_lo, np.where(padded_col, np.inf, col_scores).min(axis=1))
        col_counts[idx, np.argmin(col_scores, axis=1)] += 1.0
    return best_lo, best_hi


def ks_two_sample(a, b) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic and its 1% critical value."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    n, m = len(a), len(b)
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / n
    cdf_b = np.searchsorted(b, pooled, side="right") / m
    stat = float(np.abs(cdf_a - cdf_b).max())
    critical = 1.628 * math.sqrt((n + m) / (n * m))
    return stat, critical


def sample_statistic_per_sample(power: float, jam: float, n: int, sigma_w_sq: float,
                                rng: np.random.Generator, size: int = 1):
    """Draw the energy-detector statistic the long way: average n squared |CN(0, s)|.

    Each complex sample has independent real and imaginary parts of variance
    s/2, so the averaged squared magnitude follows Gamma(n, s/n), the law the
    package samples directly.
    """
    s = power + sigma_w_sq + jam
    parts = rng.normal(0.0, np.sqrt(s / 2.0), size=(size, n, 2))
    return (parts * parts).sum(axis=2).mean(axis=1)


# -- reference simplex ---------------------------------------------------------
#
# The package's bounded two-phase simplex as it stood before its hot paths
# were rewritten in place (masks rebuilt every iteration, LAPACK start
# inverse, np.outer pivot).  Same arithmetic in the same order, so the
# package must match it bit for bit: x, duals, objective, iterations and
# status.  It takes any object with the LinearProgram attributes.  It does not
# check the final basis against its bounds, which the package does.

_REF_OPTIMAL = "optimal"
_REF_ITERATION_CAP = "iteration-cap"
_REF_NUMERICAL_FAILURE = "numerical-failure"
_DUAL_TOL = 1e-9
_PIVOT_TOL = 1e-11
_DEGEN_TOL = 1e-12
_FEAS_TOL = 1e-9
_AT_LO, _AT_UP, _AT_FREE, _BASIC = 0, 1, 2, 3


class ReferenceInfeasible(RuntimeError):
    pass


class ReferenceUnbounded(RuntimeError):
    pass


@dataclass
class ReferenceSolution:
    status: str
    x: np.ndarray
    objective: float
    duals: np.ndarray
    iterations: int
    message: str = ""


def _pow2_scale(v: np.ndarray) -> np.ndarray:
    """Per-entry power-of-two factors bringing max magnitudes near one."""
    out = np.ones_like(v)
    pos = v > 0.0
    out[pos] = np.exp2(-np.round(np.log2(v[pos])))
    return out


class _ReferenceSimplex:
    def __init__(self, lp, max_iterations: int | None):
        m, n = lp.lhs.shape
        self.m, self.n = m, n
        self.lp = lp

        row_scale = _pow2_scale(np.abs(lp.lhs).max(axis=1) if n else np.zeros(m))
        scaled = lp.lhs * row_scale[:, None]
        col_scale = _pow2_scale(np.abs(scaled).max(axis=0) if m else np.zeros(n))
        scaled = scaled * col_scale[None, :]
        self.row_scale, self.col_scale = row_scale, col_scale

        sign = 1.0 if lp.sense == "min" else -1.0
        self.obj_sign = sign

        kinds = np.array(lp.kinds, dtype="U2")
        slack_rows = np.flatnonzero(kinds != "=")
        ncols = n + slack_rows.size
        cols = np.zeros((m, ncols))
        cols[:, :n] = scaled
        self.slack_of_row = np.full(m, -1, dtype=int)
        self.slack_of_row[slack_rows] = np.arange(n, ncols)
        cols[slack_rows, self.slack_of_row[slack_rows]] = np.where(
            kinds[slack_rows] == "<=", 1.0, -1.0)

        # Slacks are nonnegative; a None bound is infinite.
        lo = np.zeros(ncols)
        hi = np.full(ncols, np.inf)
        lo[:n] = [-np.inf if l is None else l for l, _ in lp.bounds]
        hi[:n] = [np.inf if h is None else h for _, h in lp.bounds]
        lo[:n] /= col_scale
        hi[:n] /= col_scale

        self.cols, self.lo, self.hi = cols, lo, hi
        self.b = lp.rhs * row_scale
        self.cost = np.zeros(ncols)
        self.cost[:n] = sign * lp.objective * col_scale
        self.max_iterations = (
            max_iterations if max_iterations is not None else 50 * (m + n)
        )
        self.iterations = 0
        self.n_real = ncols

    def setup(self):
        # Each variable starts at its lower bound if finite, else at its
        # upper bound if finite, else free at zero.
        lo_set, hi_set = np.isfinite(self.lo), np.isfinite(self.hi)
        self.status = np.where(lo_set, _AT_LO, np.where(hi_set, _AT_UP, _AT_FREE))
        self.xval = np.where(lo_set, self.lo, np.where(hi_set, self.hi, 0.0))
        resid = self.b - self.cols @ self.xval

        # A row's slack starts basic when that puts it at a nonnegative value;
        # every other row gets an artificial column signed to match resid.
        basis = np.full(self.m, -1, dtype=int)
        rows = np.flatnonzero(self.slack_of_row >= 0)
        slacks = self.slack_of_row[rows]
        vals = resid[rows] / self.cols[rows, slacks]
        ok = vals >= 0.0
        basis[rows[ok]] = slacks[ok]
        self.xval[slacks[ok]] = vals[ok]
        self.status[slacks[ok]] = _BASIC
        art_rows = np.flatnonzero(basis < 0)

        if art_rows.size:
            k = art_rows.size
            art = np.zeros((self.m, k))
            art[art_rows, np.arange(k)] = np.where(resid[art_rows] >= 0.0, 1.0, -1.0)
            self.cols = np.hstack([self.cols, art])
            self.lo = np.concatenate([self.lo, np.zeros(k)])
            self.hi = np.concatenate([self.hi, np.full(k, np.inf)])
            self.cost = np.concatenate([self.cost, np.zeros(k)])
            basis[art_rows] = self.n_real + np.arange(k)
            self.xval = np.concatenate([self.xval, np.abs(resid[art_rows])])
            self.status = np.concatenate([self.status, np.full(k, _BASIC, dtype=int)])
        self.basis = basis
        self.refresh_inverse()

    def refresh_inverse(self):
        B = self.cols[:, self.basis]
        try:
            self.binv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            raise _NumericalFailure(f"basis matrix singular: {exc}") from exc
        nb_mask = np.ones(self.cols.shape[1], dtype=bool)
        nb_mask[self.basis] = False
        contrib = self.cols[:, nb_mask] @ self.xval[nb_mask]
        xb = self.binv @ (self.b - contrib)
        self.xval[self.basis] = xb

    # -- core loop ----------------------------------------------------------

    def optimize(self, phase_cost: np.ndarray) -> None:
        """Run simplex iterations under ``phase_cost`` until optimal."""
        m = self.m
        bland = False
        degenerate = 0
        movable = self.lo < self.hi
        while True:
            if self.iterations >= self.max_iterations:
                raise _IterationCap(
                    f"iteration cap {self.max_iterations} reached "
                    f"(degenerate pivots: {degenerate})"
                )
            y = phase_cost[self.basis] @ self.binv
            d = phase_cost - y @ self.cols
            nonbasic = self.status != _BASIC
            cand_lo = nonbasic & (self.status == _AT_LO) & (d < -_DUAL_TOL) & movable
            cand_up = nonbasic & (self.status == _AT_UP) & (d > _DUAL_TOL) & movable
            cand_fr = nonbasic & (self.status == _AT_FREE) & (np.abs(d) > _DUAL_TOL)
            candidates = cand_lo | cand_up | cand_fr
            if not candidates.any():
                return
            if bland:
                j = int(np.flatnonzero(candidates)[0])
            else:
                score = np.where(candidates, np.abs(d), -1.0)
                j = int(np.argmax(score))
            sigma = 1.0 if (self.status[j] == _AT_LO or d[j] < 0.0) else -1.0

            u = self.binv @ self.cols[:, j]
            coef = sigma * u
            lob = self.lo[self.basis]
            hib = self.hi[self.basis]
            xb = self.xval[self.basis]
            limits = np.full(m, np.inf)
            pos = coef > _PIVOT_TOL
            neg = coef < -_PIVOT_TOL
            limits[pos] = (xb[pos] - lob[pos]) / coef[pos]
            limits[neg] = (hib[neg] - xb[neg]) / (-coef[neg])
            np.maximum(limits, 0.0, out=limits)
            t_basic = float(limits.min()) if m else np.inf
            t_own = self.hi[j] - self.lo[j] if self.status[j] != _AT_FREE else np.inf
            t = min(t_own, t_basic)

            self.iterations += 1
            if not np.isfinite(t):
                raise _Unbounded("no blocking bound or basic variable")
            if t <= _DEGEN_TOL:
                degenerate += 1
                if degenerate > 10 * m:
                    bland = True

            if t_own <= t_basic and np.isfinite(t_own):
                # Bound flip: j crosses to its other bound, basis unchanged.
                self.xval[j] = self.hi[j] if self.status[j] == _AT_LO else self.lo[j]
                self.status[j] = _AT_UP if self.status[j] == _AT_LO else _AT_LO
                self.xval[self.basis] = xb - t_own * coef
                continue

            tie = limits <= t + 1e-10
            if bland:
                rows = np.flatnonzero(tie)
                r = int(rows[np.argmin(self.basis[rows])])
            else:
                score = np.where(tie, np.abs(u), -1.0)
                r = int(np.argmax(score))
            if abs(u[r]) < _PIVOT_TOL:
                raise _NumericalFailure(
                    f"pivot magnitude {abs(u[r]):.3e} below {_PIVOT_TOL}"
                )
            self._pivot(j, r, u, t, sigma)
            if self.iterations % 128 == 0:
                self.refresh_inverse()

    def _pivot(self, j: int, r: int, u: np.ndarray, t: float, sigma: float):
        leaving = self.basis[r]
        enter_val = self.xval[j] + sigma * t
        self.xval[self.basis] = self.xval[self.basis] - t * sigma * u
        # The leaving variable snaps to the bound it reached.  In a forced
        # degenerate pivot (artificial drive-out) the ratio test did not pick
        # r, so fall back to whichever bound is finite.
        if sigma * u[r] > 0.0:
            bound, st = ((self.lo[leaving], _AT_LO) if np.isfinite(self.lo[leaving])
                         else (self.hi[leaving], _AT_UP))
        else:
            bound, st = ((self.hi[leaving], _AT_UP) if np.isfinite(self.hi[leaving])
                         else (self.lo[leaving], _AT_LO))
        if not np.isfinite(bound):
            bound, st = 0.0, _AT_FREE
        self.status[leaving] = st
        self.xval[leaving] = bound
        row = self.binv[r] / u[r]
        self.binv = self.binv - np.outer(u, row)
        self.binv[r] = row
        self.basis[r] = j
        self.status[j] = _BASIC
        self.xval[j] = enter_val

    def drive_out_artificials(self):
        for r in range(self.m):
            k = self.basis[r]
            if k < self.n_real:
                continue
            row = self.binv[r] @ self.cols[:, : self.n_real]
            row[self.basis[self.basis < self.n_real]] = 0.0
            candidates = np.abs(row)
            candidates[~np.isfinite(candidates)] = 0.0
            j = int(np.argmax(candidates))
            if candidates[j] > 1e-9:
                u = self.binv @ self.cols[:, j]
                self._pivot(j, r, u, 0.0, 1.0)
            else:
                # Redundant row: pin the artificial at zero forever.
                self.lo[k] = self.hi[k] = 0.0

    def finish(self, status: str, message: str) -> ReferenceSolution:
        if status == _REF_OPTIMAL:
            self.refresh_inverse()
        n = self.n
        x_scaled = self.xval[:n] * self.col_scale
        objective = float(self.lp.objective @ x_scaled)
        try:
            B = self.cols[:, self.basis]
            y = np.linalg.solve(B.T, self.cost[self.basis])
        except np.linalg.LinAlgError:
            y = self.cost[self.basis] @ self.binv
        duals = self.obj_sign * y * self.row_scale
        return ReferenceSolution(
            status=status,
            x=x_scaled,
            objective=objective,
            duals=duals,
            iterations=self.iterations,
            message=message,
        )


class _IterationCap(Exception):
    pass


class _NumericalFailure(Exception):
    pass


class _Unbounded(Exception):
    pass


def simplex_reference(lp, max_iterations=None) -> ReferenceSolution:
    """Solve ``lp`` with the reference simplex; raises like ``lpsolve.solve``."""
    sx = _ReferenceSimplex(lp, max_iterations)
    try:
        sx.setup()
        phase1 = np.zeros_like(sx.cost)
        phase1[sx.n_real:] = 1.0
        if sx.cols.shape[1] > sx.n_real:
            sx.optimize(phase1)
            infeas = float(phase1 @ sx.xval)
            if infeas > _FEAS_TOL * max(1.0, float(np.abs(sx.b).max(initial=0.0))):
                raise ReferenceInfeasible(
                    f"phase-1 optimum {infeas:.3e} exceeds feasibility tolerance"
                )
            sx.drive_out_artificials()
            sx.hi[sx.n_real:] = 0.0
            sx.xval[sx.n_real:] = 0.0
        sx.optimize(sx.cost)
        return sx.finish(_REF_OPTIMAL, "")
    except _IterationCap as exc:
        return sx.finish(_REF_ITERATION_CAP, str(exc))
    except _NumericalFailure as exc:
        return sx.finish(_REF_NUMERICAL_FAILURE, str(exc))
    except _Unbounded as exc:
        raise ReferenceUnbounded(str(exc)) from exc
