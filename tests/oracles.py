"""Independent reference implementations used to cross-check the package.

Nothing in here imports covertgame.  Each oracle takes a different route to
the same quantity than the package does (continued fractions instead of the
Poisson sum, exact rational pivoting instead of floating-point pivoting,
exhaustive grid search and learning dynamics instead of duality), so an
agreement between the two is evidence, not circularity.
"""

from __future__ import annotations

import math
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
