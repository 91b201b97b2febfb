"""Command-line interface.

Subcommands: solve (one equilibrium), sweep (tradeoff curve across beta),
baseline (fixed-strategy comparisons), simulate (Monte Carlo check of the
analytic error model).  Every run writes its outputs plus a manifest.json
into --out; rerunning with the same inputs reproduces the data files byte
for byte (only the manifest timestamp differs).

Exit codes: 0 success, 2 usage or validation problems, 3 numerical failure
(any LP solver error or non-optimal status, or the Monte Carlo check missed
at three standard errors).  A run that ends in an error writes nothing, not
even the --out directory; a missed Monte Carlo check is a result, so it
still writes its report and manifest before exiting 3.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from datetime import datetime, timezone
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__, lpsolve
from .detection import MixedStrategy, error_rates
from .experiments import (
    TradeoffPoint,
    beta_sweep,
    constant_baseline,
    default_beta_grid,
    uniform_baseline,
)
from .matrixgame import GameSolveError, build_payoff, solve_game
from .model import (
    ScenarioError,
    apply_overrides,
    default_scenario,
    desk_scenario,
    load_scenario,
    prune_negative_rate,
    serialize_scenario,
)
from .simkit import N_SIGMA, estimate_detection

__all__ = ["main"]


def _fmt(v) -> str:
    """Floats to 12 significant digits, anything else through str()."""
    return format(float(v), ".12g") if isinstance(v, float) else str(v)


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(map(_fmt, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _key_values(mapping: dict) -> str:
    return "".join(f"{k} = {_fmt(v)}\n" for k, v in mapping.items())


def _parse_set(pairs: list[str]) -> dict[str, str]:
    overrides = {}
    for item in pairs:
        if "=" not in item:
            raise ScenarioError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        key, value = key.strip(), value.strip()
        if key in overrides:
            raise ScenarioError(f"--set repeats key {key!r}")
        overrides[key] = value
    return overrides


def _resolve_scenario(args):
    if args.scenario and (args.jammer or args.full_grid):
        raise ScenarioError("--jammer and --full-grid pick a preset; "
                            "they do not go with --scenario")
    if args.full_grid and not args.jammer:
        raise ScenarioError("--full-grid needs --jammer")
    if args.scenario:
        scenario = load_scenario(args.scenario)
        source = str(args.scenario)
    elif args.jammer:
        scenario = default_scenario(True) if args.full_grid else desk_scenario(True)
        source = "preset:jammer-full" if args.full_grid else "preset:jammer-desk"
    else:
        scenario = default_scenario(False)
        source = "preset:no-jammer"
    overrides = _parse_set(args.set or [])
    if overrides:
        scenario = apply_overrides(scenario, overrides)
    return scenario, source, overrides


def _write_run(args, scenario, source: str, overrides: dict, files: dict[str, str],
               extras: dict):
    """Write the data files, scenario.txt and a manifest.json that lists
    each file's sha256; the only place a run touches ``--out``."""
    text = serialize_scenario(scenario)
    files = {**files, "scenario.txt": text}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = {}
    for name, body in files.items():
        data = body.encode("utf-8")
        (out / name).write_bytes(data)
        outputs[name] = "sha256:" + hashlib.sha256(data).hexdigest()
    manifest = {
        "tool": {"name": "covertgame", "version": __version__},
        "subcommand": args.subcommand,
        "scenario": {"source": source, "overrides": overrides, "text": text},
        **extras,
        "outputs": outputs,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    data = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    (out / "manifest.json").write_bytes(data.encode("utf-8"))


# Strategy-file headers, written by solve and read back by simulate, and the
# scenario grid that each action column must lie on.
_ROW_HEADER = ("power_mw", "jam_mw", "probability")
_COL_HEADER = ("threshold_mw", "probability")
_COLUMN_GRID = {"power_mw": "power_grid", "jam_mw": "jam_grid", "threshold_mw": "threshold_grid"}


def _strategy_csv(header, strategy: MixedStrategy) -> str:
    return _csv(header, ((*np.ravel(strategy.actions[i]).tolist(), strategy.probs[i])
                         for i in strategy.support()))


def _cmd_solve(args, scenario):
    payoff = build_payoff(prune_negative_rate(scenario))
    solution = solve_game(payoff)
    point = TradeoffPoint.from_solution(payoff, solution)
    summary = {
        "game_value": point.game_value,
        "expected_rate": point.expected_rate,
        "pfa": point.pfa,
        "pm": point.pm,
        "dep": point.dep,
        "row_gap": solution.row_gap,
        "col_gap": solution.col_gap,
        "rows": len(solution.row_strategy.actions),
        "cols": len(solution.col_strategy.actions),
        "lp_iterations": solution.iterations,
    }
    files = {
        "row_strategy.csv": _strategy_csv(_ROW_HEADER, solution.row_strategy),
        "col_strategy.csv": _strategy_csv(_COL_HEADER, solution.col_strategy),
        "summary.txt": _key_values(summary),
    }
    message = (f"value {_fmt(solution.value)}  "
               f"row support {len(solution.row_strategy.support())}  "
               f"col support {len(solution.col_strategy.support())}")
    return files, {}, message, 0


def _parse_betas(text: str | None):
    """Explicit comma-separated weights, blank parts dropped; the default grid if none is left."""
    try:
        betas = tuple(float(b) for b in (text or "").split(",") if b.strip())
    except ValueError:
        raise ScenarioError(f"--betas expects comma-separated numbers, got {text!r}") from None
    return (betas, "explicit") if betas else (default_beta_grid(), "default")


def _cmd_sweep(args, scenario):
    betas, betas_source = _parse_betas(args.betas)
    points = beta_sweep(scenario, betas)
    table = _csv(["beta", "expected_rate", "pfa", "pm", "dep", "game_value"],
                 ((p.beta, p.expected_rate, p.pfa, p.pm, p.dep, p.game_value) for p in points))
    extras = {"betas": [float(_fmt(b)) for b in betas], "betas_source": betas_source}
    message = f"swept {len(points)} weights; dep {_fmt(points[0].dep)} .. {_fmt(points[-1].dep)}"
    return {"tradeoff.csv": table}, extras, message, 0


def _cmd_baseline(args, scenario):
    payoff = build_payoff(prune_negative_rate(scenario))
    grid = scenario.power_grid
    survivors = [p for p, j in payoff.actions if j == 0.0]  # in grid order
    if not survivors:
        raise ValueError("baselines need surviving zero-jam actions")
    # uniform(k) from the first k whose levels hold a surviving power
    first = max(2, grid.index(survivors[0]) + 1)
    results = [uniform_baseline(payoff, k) for k in range(first, len(grid) + 1)]
    results.extend(constant_baseline(payoff, p) for p in survivors)
    table = _csv(["label", "parameter", "best_threshold_mw", "expected_rate", "pfa", "pm", "dep"],
                 ((r.label, r.parameter, r.best_threshold, r.expected_rate, r.pfa, r.pm, r.dep)
                  for r in results))
    return {"baseline.csv": table}, {}, f"wrote {len(results)} baseline points", 0


def _nearest_grid_point(grid, column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of each value's nearest point of a sorted grid, and where the
    value lies farther than 1e-9 from it, and so from every grid point.

    The nearest point is one of the two around the value's place in the
    grid, so one binary search per value decides it.  NaN is off the grid.
    """
    grid = np.asarray(grid)
    right = np.minimum(np.searchsorted(grid, column), grid.size - 1)
    left = np.maximum(right - 1, 0)
    index = np.where(np.abs(grid[right] - column) < np.abs(grid[left] - column), right, left)
    return index, ~(np.abs(grid[index] - column) <= 1e-9)


def _load_strategy_csv(path: str, scenario, header) -> MixedStrategy:
    """A strategy file's mixture, with each action a distinct scenario grid point.

    A file holds at most one row per grid action (power x jam, or threshold),
    so a strategy pair's cell table stays within the scenario's MAX_CELLS.
    """
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if not lines:
        raise ScenarioError(f"{path}: empty strategy file")
    if tuple(lines[0].split(",")) != header:
        raise ScenarioError(f"{path}: expected header {','.join(header)}")
    grids = [getattr(scenario, _COLUMN_GRID[name]) for name in header[:-1]]
    size = math.prod(map(len, grids))
    if len(lines) - 1 > size:
        raise ScenarioError(f"{path}: {len(lines) - 1} actions, more than the {size} "
                            f"of the scenario grid")
    rows = []
    for line in lines[1:]:
        try:
            values = [float(p) for p in line.split(",")]
        except ValueError:
            values = []
        if len(values) != len(header):
            raise ScenarioError(f"{path}: malformed row {line!r}")
        rows.append(values)
    # Each action's grid point, numbered over the joint grid (power x jam).
    table = np.array(rows).reshape(-1, len(header))
    point = np.zeros(len(rows), dtype=np.int64)
    off = np.zeros(len(rows), dtype=bool)
    for grid, column in zip(grids, table.T):
        index, column_off = _nearest_grid_point(grid, column)
        point = point * len(grid) + index
        off |= column_off
    actions = [tuple(row[:-1]) if len(row) > 2 else row[0] for row in rows]
    bad = [a for a, o in zip(actions, off.tolist()) if o]
    if bad:
        raise ScenarioError(f"{path}: actions not on the scenario grid: {bad[:3]}")
    _, first = np.unique(point, return_index=True)
    if first.size < len(rows):
        again = np.setdiff1d(np.arange(len(rows)), first)
        raise ScenarioError(f"{path}: actions repeat a grid point of an earlier row: "
                            f"{[actions[i] for i in again[:3]]}")
    try:
        return MixedStrategy(tuple(actions), tuple(row[-1] for row in rows))
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def _cmd_simulate(args, scenario):
    if bool(args.row_strategy) != bool(args.col_strategy):
        raise ScenarioError("--row-strategy and --col-strategy must be given together")
    if args.row_strategy:
        joint = _load_strategy_csv(args.row_strategy, scenario, _ROW_HEADER)
        thr = _load_strategy_csv(args.col_strategy, scenario, _COL_HEADER)
        analytic_pfa, analytic_pm = error_rates(scenario, joint, thr)
    else:
        payoff = build_payoff(prune_negative_rate(scenario))
        point = TradeoffPoint.from_solution(payoff, solve_game(payoff))
        joint, thr = point.row_strategy, point.col_strategy
        analytic_pfa, analytic_pm = point.pfa, point.pm
    strategy_source = "files" if args.row_strategy else "solved"

    est = estimate_detection(scenario, joint, thr, blocks=args.blocks, seed=args.seed)
    ok = est.consistent_with(analytic_pfa, analytic_pm)
    pfa_z, pm_z = est.zscores(analytic_pfa, analytic_pm)
    report = _key_values({
        "blocks": est.blocks,
        "seed": est.seed,
        "strategies": strategy_source,
        "pfa_analytic": analytic_pfa,
        "pfa_empirical": est.pfa_hat,
        "pfa_stderr": est.pfa_stderr,
        "pfa_zscore": pfa_z,
        "pm_analytic": analytic_pm,
        "pm_empirical": est.pm_hat,
        "pm_stderr": est.pm_stderr,
        "pm_zscore": pm_z,
        "verdict": f"{'PASS' if ok else 'FAIL'} ({N_SIGMA:g} stderr)",
    })
    extras = {"options": {"blocks": args.blocks, "seed": args.seed,
                          "strategies": strategy_source}}
    return {"simulate.txt": report}, extras, report.rstrip("\n"), 0 if ok else 3


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--scenario", help="scenario file path (overrides presets)")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a scenario key (repeatable)")
    p.add_argument("--jammer", action="store_true",
                   help="use the jammer preset (coarse 0.05 mW grids)")
    p.add_argument("--full-grid", action="store_true",
                   help="with --jammer: the full 0.01 mW grids")
    p.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covertgame",
        description="Equilibrium strategies for covert communication "
                    "against an energy detector at finite blocklength.",
    )
    parser.add_argument("--version", action="version", version=f"covertgame {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("solve", help="solve one game and write the strategies")
    _add_common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sweep", help="trace the rate/detection tradeoff across beta")
    _add_common(p)
    p.add_argument("--betas", help="comma-separated weights (default: 25 log-spaced 0.1..20)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("baseline", help="uniform and constant-power baselines")
    _add_common(p)
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("simulate", help="Monte Carlo check of the analytic error model")
    _add_common(p)
    p.add_argument("--blocks", type=int, default=100000, help="blocks per hypothesis")
    p.add_argument("--seed", type=int, default=0, help="unsigned 64-bit stream seed")
    p.add_argument("--row-strategy", help="transmitter strategy CSV (with --col-strategy)")
    p.add_argument("--col-strategy", help="detector strategy CSV (with --row-strategy)")
    p.set_defaults(func=_cmd_simulate)
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building its four subparsers
    takes about 1 ms, and parsing leaves the parser unchanged (``--set``
    appends to a copy of its default)."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        scenario, source, overrides = _resolve_scenario(args)
        files, extras, message, code = args.func(args, scenario)
        _write_run(args, scenario, source, overrides, files, extras)
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GameSolveError, lpsolve.LpError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    print(message)
    return code


if __name__ == "__main__":
    sys.exit(main())
