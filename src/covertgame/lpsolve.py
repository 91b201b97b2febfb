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

Dual multipliers are recomputed from the final basis by a direct solve, one
real per constraint row.  Sign convention follows the natural Lagrangian of
the stated sense: for a maximization, a binding "<=" row carries a
nonnegative multiplier; for a minimization it carries a nonpositive one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

_AT_LO, _AT_UP, _AT_FREE, _BASIC = 0, 1, 2, 3


class LpError(RuntimeError):
    """Base class for solver failures."""


class InfeasibleError(LpError):
    """The constraints admit no point within the variable bounds."""


class UnboundedError(LpError):
    """The objective improves without limit over the feasible set."""


@dataclass
class LinearProgram:
    """min or max of objective @ x subject to lhs @ x (<=, >=, =) rhs and bounds.

    Attributes:
        sense: "min" or "max".
        objective: length-n cost vector.
        lhs: (m, n) constraint matrix.
        rhs: length-m right-hand side.
        kinds: per-row relation, each "<=", ">=" or "=".
        bounds: per-variable (lo, hi); None means unbounded on that side.
    """

    sense: str
    objective: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    kinds: tuple[str, ...]
    bounds: tuple[tuple[float | None, float | None], ...]

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.lhs = np.asarray(self.lhs, dtype=float)
        self.rhs = np.asarray(self.rhs, dtype=float)
        self.kinds = tuple(self.kinds)
        self.bounds = tuple((lo, hi) for lo, hi in self.bounds)
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {self.sense!r}")
        m, n = self.lhs.shape
        if self.objective.shape != (n,) or self.rhs.shape != (m,):
            raise ValueError("objective/rhs shapes do not match lhs")
        if len(self.kinds) != m or any(k not in ("<=", ">=", "=") for k in self.kinds):
            raise ValueError("kinds must give '<=', '>=' or '=' per row")
        if len(self.bounds) != n:
            raise ValueError("one (lo, hi) bound pair per variable required")
        for lo, hi in self.bounds:
            if lo is not None and hi is not None and lo > hi:
                raise ValueError(f"empty bound interval ({lo}, {hi})")


@dataclass
class LpSolution:
    status: str
    x: np.ndarray
    objective: float
    duals: np.ndarray
    iterations: int
    message: str = ""
    basis: tuple[int, ...] = field(default=(), repr=False)


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

    def finish(self, status: str, message: str) -> LpSolution:
        if status == OPTIMAL:
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
        return LpSolution(
            status=status,
            x=x_scaled,
            objective=objective,
            duals=duals,
            iterations=self.iterations,
            message=message,
            basis=tuple(int(v) for v in self.basis),
        )


class _IterationCap(Exception):
    pass


class _NumericalFailure(Exception):
    pass


class _Unbounded(Exception):
    pass


def solve(lp: LinearProgram, max_iterations: int | None = None) -> LpSolution:
    """Solve an LP; returns an LpSolution whose status must be checked.

    Infeasible and unbounded problems raise (callers of the game pipeline
    guarantee neither can occur); an exceeded iteration cap or a pivot below
    tolerance is reported through ``status`` and ``message`` instead so the
    partial state remains inspectable.
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
        sx.optimize(sx.cost)
        return sx.finish(OPTIMAL, "")
    except _IterationCap as exc:
        return sx.finish(ITERATION_CAP, str(exc))
    except _NumericalFailure as exc:
        return sx.finish(NUMERICAL_FAILURE, str(exc))
    except _Unbounded as exc:
        raise UnboundedError(str(exc)) from exc
