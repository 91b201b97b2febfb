"""Self-contained dense linear-program solver.

A two-phase primal simplex over dense numpy arrays, with per-variable bounds
handled directly (nonbasic variables sit at a finite bound and may flip
between bounds without a basis change).  This covers everything the matrix
games need: free value variables, probability simplices, and one-solve dual
recovery of the opponent strategy, while staying deterministic: identical
inputs walk identical pivot sequences and return bit-identical arrays.

Pivoting uses Dantzig pricing (most negative reduced cost) and switches to
Bland's least-index rule for the rest of the phase once the count of
degenerate pivots passes 10 * rows, which rules out cycling.  Rows and
columns are equilibrated to unit max-norm with powers of two before solving
(lossless in binary floating point) and the solution is unscaled on exit.

The basis inverse is kept as a dense matrix.  The start basis holds one
slack or artificial column per row, a diagonal of +-1, so it is its own
inverse and is set directly.  Each pivot updates the inverse in place with
a rank-one step, and LAPACK re-inverts the basis every 128 iterations and
once more when a solve ends optimal.  Pricing keeps its candidate sets
between iterations: a direction per variable (-1 for a movable one at its
lower bound, +1 at its upper bound, 0 otherwise) and the list of free
nonbasic variables, changed only for the variables that enter, leave or
flip.  The ratio test and the update write into buffers allocated once per
phase.  Every entry is computed by the same floating-point operations, in
the same order, as a textbook loop that rebuilds all of this each
iteration; the test suite keeps that loop and holds the solver to it bit
for bit.

Dual multipliers are recomputed from the final basis by a direct solve, one
real per constraint row.  Sign convention follows the natural Lagrangian of
the stated sense: for a maximization, a binding "<=" row carries a
nonnegative multiplier; for a minimization it carries a nonpositive one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

__all__ = [
    "LinearProgram",
    "LpSolution",
    "LpError",
    "InfeasibleError",
    "UnboundedError",
    "solve",
    "OPTIMAL",
    "ITERATION_CAP",
    "NUMERICAL_FAILURE",
]

OPTIMAL = "optimal"
ITERATION_CAP = "iteration-cap"
NUMERICAL_FAILURE = "numerical-failure"

# Reduced-cost tolerance for declaring optimality.
_DUAL_TOL = 1e-9
# Entries smaller than this never serve as pivots.
_PIVOT_TOL = 1e-11
# Step sizes at or below this count as degenerate pivots.
_DEGEN_TOL = 1e-12
# Sum of artificials above this (after phase 1) means infeasible.
_FEAS_TOL = 1e-9
# A basic value this far past its bounds (scaled) when the final re-inversion
# of an optimal solve refreshes it makes the solve a numerical failure.
_END_FEAS_TOL = 1e-8

_AT_LO, _AT_UP, _AT_FREE, _BASIC = 0, 1, 2, 3


class LpError(RuntimeError):
    """Base class for solver failures."""


class InfeasibleError(LpError):
    """The constraints admit no point within the variable bounds."""


class UnboundedError(LpError):
    """The objective improves without limit over the feasible set."""


@dataclass(frozen=True)
class LinearProgram:
    """min or max of objective @ x subject to lhs @ x (<=, >=, =) rhs and bounds.

    Attributes:
        sense: "min" or "max".
        objective: length-n cost vector.
        lhs: (m, n) constraint matrix.
        rhs: length-m right-hand side.
        kinds: per-row relation, each "<=", ">=" or "=".
        bounds: per-variable (lo, hi); None means unbounded on that side.

    The data is checked once, here: every number must be finite, except a
    bound on its open side (-inf below, +inf above, the same as None).
    """

    sense: str
    objective: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    kinds: tuple[str, ...]
    bounds: tuple[tuple[float | None, float | None], ...]

    def __post_init__(self):
        normalize = partial(object.__setattr__, self)
        normalize("objective", np.asarray(self.objective, dtype=float))
        normalize("lhs", np.asarray(self.lhs, dtype=float))
        normalize("rhs", np.asarray(self.rhs, dtype=float))
        normalize("kinds", tuple(self.kinds))
        normalize("bounds", tuple(map(tuple, self.bounds)))
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {self.sense!r}")
        m, n = self.lhs.shape
        if self.objective.shape != (n,) or self.rhs.shape != (m,):
            raise ValueError("objective/rhs shapes do not match lhs")
        if len(self.kinds) != m or any(k not in ("<=", ">=", "=") for k in self.kinds):
            raise ValueError("kinds must give '<=', '>=' or '=' per row")
        if len(self.bounds) != n or set(map(len, self.bounds)) - {2}:
            raise ValueError("one (lo, hi) bound pair per variable required")
        for name in ("objective", "lhs", "rhs"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} has non-finite entries")
        normalize("_lo_hi", _bound_arrays(self.bounds))


def _bound_arrays(bounds) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds as float arrays, None read as -inf / +inf.

    Raises ValueError on a NaN bound, a lower bound of +inf, an upper bound
    of -inf or an empty interval.
    """
    lo = np.array([-np.inf if b is None else b for b, _ in bounds], dtype=float)
    hi = np.array([np.inf if b is None else b for _, b in bounds], dtype=float)
    if np.isnan(lo).any() or np.isnan(hi).any():
        raise ValueError("bounds must not be NaN")
    if (lo == np.inf).any():
        raise ValueError("a lower bound of +inf admits no value")
    if (hi == -np.inf).any():
        raise ValueError("an upper bound of -inf admits no value")
    empty = lo > hi
    if empty.any():
        lo_j, hi_j = bounds[int(np.argmax(empty))]
        raise ValueError(f"empty bound interval ({lo_j}, {hi_j})")
    return lo, hi


@dataclass
class LpSolution:
    """Result of ``solve``; ``status`` says whether x is an optimum.

    Besides the total ``iterations`` (pivots plus bound flips) it counts
    ``phase1_iterations``, the part spent finding a feasible basis;
    ``degenerate_pivots``, steps of length at most 1e-12; ``bland``, whether
    that count passed 10 * rows in a phase and switched pricing to Bland's
    rule; and ``refactorizations``, LAPACK re-inversions of the basis (after
    each pivot that brings ``iterations`` to a multiple of 128, and once at
    the end of an optimal solve).
    """

    status: str
    x: np.ndarray
    objective: float
    duals: np.ndarray
    iterations: int
    message: str = ""
    phase1_iterations: int = 0
    degenerate_pivots: int = 0
    bland: bool = False
    refactorizations: int = 0


def _pow2_scale(v: np.ndarray) -> np.ndarray:
    """Per-entry power-of-two factors bringing max magnitudes near one."""
    out = np.ones_like(v)
    pos = v > 0.0
    out[pos] = np.exp2(-np.round(np.log2(v[pos])))
    return out


class _Simplex:
    def __init__(self, lp: LinearProgram, max_iterations: int | None):
        m, n = lp.lhs.shape
        self.m, self.n = m, n
        self.lp = lp

        row_scale = _pow2_scale(np.abs(lp.lhs).max(axis=1) if n else np.zeros(m))
        scaled = lp.lhs * row_scale[:, None]
        col_scale = _pow2_scale(np.abs(scaled).max(axis=0) if m else np.zeros(n))
        self.row_scale, self.col_scale = row_scale, col_scale

        sign = 1.0 if lp.sense == "min" else -1.0
        self.obj_sign = sign

        kinds = np.array(lp.kinds, dtype="U2")
        slack_rows = np.flatnonzero(kinds != "=")
        ncols = n + slack_rows.size
        cols = np.zeros((m, ncols))
        np.multiply(scaled, col_scale, out=cols[:, :n])
        self.slack_of_row = np.full(m, -1, dtype=int)
        self.slack_of_row[slack_rows] = np.arange(n, ncols)
        cols[slack_rows, self.slack_of_row[slack_rows]] = np.where(
            kinds[slack_rows] == "<=", 1.0, -1.0)

        # Slacks are nonnegative; a None bound is infinite.
        lo = np.zeros(ncols)
        hi = np.full(ncols, np.inf)
        lo[:n], hi[:n] = lp._lo_hi
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
        self.phase1_iterations = None
        self.degenerate_pivots = 0
        self.bland = False
        self.refactorizations = 0

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

        # The start basis is a +-1 diagonal, so it is its own inverse.  These
        # are LAPACK's bits: the zeros of a -1 row come out as -0.0, and the
        # product with a diagonal turns a -0.0 value into 0.0.
        m = self.m
        diag = self.cols[np.arange(m), basis]
        self.binv = np.eye(m)
        self.binv[diag < 0.0] *= -1.0
        self.xval[basis] = diag * self._nonbasic_residual() + 0.0

        # Buffers the pivots write into.
        self._step = np.empty(m)
        self._row = np.empty(m)
        self._outer = np.empty((m, m))

    def _nonbasic_residual(self) -> np.ndarray:
        """b minus the columns of the nonbasic variables at their values."""
        nb_mask = np.ones(self.cols.shape[1], dtype=bool)
        nb_mask[self.basis] = False
        return self.b - self.cols[:, nb_mask] @ self.xval[nb_mask]

    def refresh_inverse(self):
        B = self.cols[:, self.basis]
        try:
            self.binv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            raise _Stop(NUMERICAL_FAILURE, f"basis matrix singular: {exc}") from exc
        self.refactorizations += 1
        self.xval[self.basis] = self.binv @ self._nonbasic_residual()

    # -- core loop ----------------------------------------------------------

    def optimize(self, phase_cost: np.ndarray) -> None:
        """Run simplex iterations under ``phase_cost`` until optimal."""
        m, width = self.cols.shape
        lo, hi, status, xval, basis = self.lo, self.hi, self.status, self.xval, self.basis
        # Pricing candidates: a movable variable at its lower bound enters
        # when its reduced cost d is below -_DUAL_TOL, one at its upper bound
        # when d is above _DUAL_TOL, a free one either way.  ``direction``
        # turns that into score = direction * d > _DUAL_TOL, and a free
        # variable scores |d|.  _pivot keeps both up to date.
        self.phase_cost = phase_cost
        self.movable = lo < hi
        self.direction = np.where(self.movable & (status == _AT_LO), -1.0,
                                  np.where(self.movable & (status == _AT_UP), 1.0, 0.0))
        self.free = np.flatnonzero(status == _AT_FREE).tolist()
        # Bounds, values and costs of the basic variables, row by row.
        self.lo_b, self.hi_b, self.cost_b = lo[basis], hi[basis], phase_cost[basis]
        xb = xval[basis]
        y, u, au = np.empty(m), np.empty(m), np.empty(m)
        num, limits, rowscore = np.empty(m), np.empty(m), np.empty(m)
        piv, neg, tie = np.empty(m, bool), np.empty(m, bool), np.empty(m, bool)
        d, score = np.empty(width), np.empty(width)
        bland = False
        degenerate = 0
        while True:
            if self.iterations >= self.max_iterations:
                raise _Stop(ITERATION_CAP, f"iteration cap {self.max_iterations} reached "
                                           f"(degenerate pivots: {degenerate})")
            np.matmul(self.cost_b, self.binv, out=y)
            np.matmul(y, self.cols, out=d)
            np.subtract(phase_cost, d, out=d)
            np.multiply(self.direction, d, out=score)
            for f in self.free:
                score[f] = abs(d[f])
            if bland:
                j = int((score > _DUAL_TOL).argmax())
            else:
                j = int(score.argmax())
                if score[j] != score[j]:  # argmax stops at a NaN; it is no candidate
                    score[np.isnan(score)] = -1.0
                    j = int(score.argmax())
            if not score[j] > _DUAL_TOL:
                return
            sigma = 1.0 if d[j] < 0.0 else -1.0

            # Ratio test on coef = sigma * u: rows with coef > _PIVOT_TOL
            # block at (xb - lo) / coef, rows with coef < -_PIVOT_TOL at
            # (hi - xb) / -coef, and either denominator is |u|.
            np.matmul(self.binv, self.cols[:, j], out=u)
            np.abs(u, out=au)
            np.greater(au, _PIVOT_TOL, out=piv)
            if sigma > 0.0:
                np.less(u, -_PIVOT_TOL, out=neg)
            else:
                np.greater(u, _PIVOT_TOL, out=neg)
            np.subtract(xb, self.lo_b, out=num)
            np.subtract(self.hi_b, xb, out=num, where=neg)
            limits.fill(np.inf)
            np.divide(num, au, out=limits, where=piv)
            np.maximum(limits, 0.0, out=limits)
            t_basic = float(limits.min()) if m else np.inf
            t_own = hi[j] - lo[j]  # inf for a free variable
            t = min(t_own, t_basic)

            self.iterations += 1
            if not math.isfinite(t):
                raise UnboundedError("no blocking bound or basic variable")
            if t <= _DEGEN_TOL:
                degenerate += 1
                self.degenerate_pivots += 1
                if degenerate > 10 * m:
                    bland = self.bland = True

            if t_own <= t_basic and math.isfinite(t_own):
                # Bound flip: j crosses to its other bound, basis unchanged.
                if status[j] == _AT_LO:
                    xval[j], status[j] = hi[j], _AT_UP
                else:
                    xval[j], status[j] = lo[j], _AT_LO
                self.direction[j] = -self.direction[j]
                np.multiply(u, t_own * sigma, out=num)
                np.subtract(xb, num, out=xb)
                xval[basis] = xb
                continue

            # t = t_basic is finite and rows with |u| <= _PIVOT_TOL have limit inf.
            np.less_equal(limits, t + 1e-10, out=tie)
            if bland:
                rows = np.flatnonzero(tie)
                r = int(rows[np.argmin(basis[rows])])
            else:
                rowscore.fill(-1.0)
                np.copyto(rowscore, au, where=tie)
                r = int(rowscore.argmax())
            self._pivot(j, r, u, t, sigma, xb)
            if self.iterations % 128 == 0:
                self.refresh_inverse()
                xb[:] = xval[basis]

    def _pivot(self, j: int, r: int, u: np.ndarray, t: float, sigma: float,
               xb: np.ndarray):
        """Swap j into the basis at row r, updating ``xb``, the basic values
        row by row, along with ``xval``."""
        basis, xval, status = self.basis, self.xval, self.status
        leaving = int(basis[r])
        enter_val = xval[j] + sigma * t
        np.multiply(u, t * sigma, out=self._step)
        np.subtract(xb, self._step, out=xb)
        xval[basis] = xb
        # The leaving variable snaps to the bound it reached.  In a forced
        # degenerate pivot (artificial drive-out) the ratio test did not pick
        # r, so fall back to whichever bound is finite.  A free variable never
        # leaves: its infinite limits never block the ratio test, and the
        # drive-out moves only artificials, which are bounded below by 0.
        lo_l, hi_l = self.lo[leaving], self.hi[leaving]
        if sigma * u[r] > 0.0:
            bound, st = (lo_l, _AT_LO) if math.isfinite(lo_l) else (hi_l, _AT_UP)
        else:
            bound, st = (hi_l, _AT_UP) if math.isfinite(hi_l) else (lo_l, _AT_LO)
        status[leaving] = st
        xval[leaving] = bound
        row = np.divide(self.binv[r], u[r], out=self._row)
        # The products u[i] * row[j] of np.outer: numpy's broadcast multiply
        # by a column runs row by row, so spread u first.
        np.copyto(self._outer, u[:, None])
        np.multiply(self._outer, row, out=self._outer)
        np.subtract(self.binv, self._outer, out=self.binv)
        self.binv[r] = row
        basis[r] = j
        status[j] = _BASIC
        xval[j] = xb[r] = enter_val

        self.direction[j] = 0.0
        if j in self.free:
            self.free.remove(j)
        if self.movable[leaving]:
            self.direction[leaving] = -1.0 if st == _AT_LO else 1.0
        self.lo_b[r], self.hi_b[r] = self.lo[j], self.hi[j]
        self.cost_b[r] = self.phase_cost[j]

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
                self._pivot(j, r, u, 0.0, 1.0, self.xval[self.basis])
            else:
                # Redundant row: pin the artificial at zero forever.
                self.lo[k] = self.hi[k] = 0.0

    def finish(self, status: str, message: str) -> LpSolution:
        if status == OPTIMAL:
            self.refresh_inverse()
            xb = self.xval[self.basis]
            excess = np.maximum(self.lo[self.basis] - xb, xb - self.hi[self.basis])
            if self.m and not excess.max() <= _END_FEAS_TOL:
                r = int(np.argmax(excess))
                raise _Stop(NUMERICAL_FAILURE, f"basic variable {self.basis[r]} ends "
                                               f"{excess[r]:.3e} past its bounds (scaled)")
        n = self.n
        x_scaled = self.xval[:n] * self.col_scale
        objective = float(self.lp.objective @ x_scaled)
        try:
            B = self.cols[:, self.basis]
            y = np.linalg.solve(B.T, self.cost[self.basis])
        except np.linalg.LinAlgError:
            y = self.cost[self.basis] @ self.binv
        duals = self.obj_sign * y * self.row_scale
        return LpSolution(
            status=status,
            x=x_scaled,
            objective=objective,
            duals=duals,
            iterations=self.iterations,
            message=message,
            phase1_iterations=(self.iterations if self.phase1_iterations is None
                               else self.phase1_iterations),
            degenerate_pivots=self.degenerate_pivots,
            bland=self.bland,
            refactorizations=self.refactorizations,
        )


class _Stop(Exception):
    """Ends a solve early; its args are the status and the message."""


def solve(lp: LinearProgram, max_iterations: int | None = None) -> LpSolution:
    """Solve an LP; returns an LpSolution whose status must be checked.

    Infeasible and unbounded problems raise (callers of the game pipeline
    guarantee neither can occur); an exceeded iteration cap, a singular basis
    or a final basic value more than 1e-8 (scaled) past its bounds is
    reported through ``status`` and ``message`` instead so the partial state
    remains inspectable.
    """
    sx = _Simplex(lp, max_iterations)
    try:
        sx.setup()
        phase1 = np.zeros_like(sx.cost)
        phase1[sx.n_real:] = 1.0
        if sx.cols.shape[1] > sx.n_real:
            sx.optimize(phase1)
            infeas = float(phase1 @ sx.xval)
            if infeas > _FEAS_TOL * max(1.0, float(np.abs(sx.b).max(initial=0.0))):
                raise InfeasibleError(
                    f"phase-1 optimum {infeas:.3e} exceeds feasibility tolerance"
                )
            sx.drive_out_artificials()
            sx.hi[sx.n_real:] = 0.0
            sx.xval[sx.n_real:] = 0.0
        sx.phase1_iterations = sx.iterations
        sx.optimize(sx.cost)
        return sx.finish(OPTIMAL, "")
    except _Stop as exc:
        return sx.finish(*exc.args)
