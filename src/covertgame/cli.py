"""Command-line interface.

Subcommands: solve (one equilibrium), sweep (tradeoff curve across beta),
baseline (fixed-strategy comparisons), simulate (Monte Carlo check of the
analytic error model).  Every run writes its outputs plus a manifest.json
into --out; rerunning with the same inputs reproduces the data files byte
for byte (only the manifest timestamp differs).

Exit codes: 0 success, 2 usage or validation problems, 3 numerical failure
(any LP solver error or non-optimal status, or the Monte Carlo check missed
at three standard errors).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from datetime import datetime, timezone
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__, lpsolve
from .detection import SUPPORT_EPS, MixedStrategy, pfa, pm
from .experiments import (
    beta_sweep,
    constant_baseline,
    default_beta_grid,
    desk_scenario,
    uniform_baseline,
)
from .matrixgame import GameSolveError, build_payoff, solve_game
from .model import (
    ScenarioError,
    apply_overrides,
    default_scenario,
    load_scenario,
    prune_negative_rate,
    serialize_scenario,
)
from .simkit import estimate_detection

__all__ = ["main"]


def _fmt(v) -> str:
    return format(float(v), ".12g")


class _OutDir:
    """Collects written files so the manifest can fingerprint them."""

    def __init__(self, path: str):
        self.dir = Path(path)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.written: dict[str, str] = {}

    def write_text(self, name: str, text: str):
        data = text.encode("utf-8")
        (self.dir / name).write_bytes(data)
        self.written[name] = "sha256:" + hashlib.sha256(data).hexdigest()

    def write_csv(self, name: str, header: list[str], rows):
        lines = [",".join(header)]
        lines.extend(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row)
                     for row in rows)
        self.write_text(name, "\n".join(lines) + "\n")

    def finish(self, manifest: dict):
        manifest = dict(manifest)
        manifest["outputs"] = dict(sorted(self.written.items()))
        manifest["created_utc"] = datetime.now(timezone.utc).isoformat()
        data = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        (self.dir / "manifest.json").write_bytes(data.encode("utf-8"))


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


def _manifest(subcommand: str, source: str, overrides: dict, scenario) -> dict:
    return {
        "tool": {"name": "covertgame", "version": __version__},
        "subcommand": subcommand,
        "scenario": {
            "source": source,
            "overrides": overrides,
            "text": serialize_scenario(scenario),
        },
    }


def _strategy_rows(strategy: MixedStrategy, joint: bool):
    for action, prob in zip(strategy.actions, strategy.probs):
        if prob > SUPPORT_EPS:
            if joint:
                yield (float(action[0]), float(action[1]), float(prob))
            else:
                yield (float(action), float(prob))


def _write_solution(out: _OutDir, payoff, solution):
    out.write_csv("row_strategy.csv", ["power_mw", "jam_mw", "probability"],
                  _strategy_rows(solution.row_strategy, joint=True))
    out.write_csv("col_strategy.csv", ["threshold_mw", "probability"],
                  _strategy_rows(solution.col_strategy, joint=False))
    pfa_val, pm_val = payoff.error_rates(solution.row_strategy, solution.col_strategy)
    summary = {
        "game_value": solution.value,
        "expected_rate": payoff.expected_rate(solution.row_strategy),
        "pfa": pfa_val,
        "pm": pm_val,
        "dep": pfa_val + pm_val,
        "row_gap": solution.row_gap,
        "col_gap": solution.col_gap,
        "rows": len(solution.row_strategy.actions),
        "cols": len(solution.col_strategy.actions),
        "lp_iterations": solution.iterations,
    }
    out.write_text("summary.txt", "".join(
        f"{k} = {_fmt(v) if isinstance(v, float) else v}\n" for k, v in summary.items()
    ))
    return summary


def _cmd_solve(args) -> int:
    scenario, source, overrides = _resolve_scenario(args)
    out = _OutDir(args.out)
    payoff = build_payoff(prune_negative_rate(scenario))
    solution = solve_game(payoff)
    _write_solution(out, payoff, solution)
    out.write_text("scenario.txt", serialize_scenario(scenario))
    out.finish(_manifest("solve", source, overrides, scenario))
    print(f"value {_fmt(solution.value)}  "
          f"row support {len(solution.row_strategy.support())}  "
          f"col support {len(solution.col_strategy.support())}")
    return 0


def _parse_betas(text: str | None):
    """Explicit comma-separated weights, or the default grid when empty."""
    if text is None or not text.strip(","):
        return default_beta_grid(), "default"
    try:
        betas = tuple(float(b) for b in text.split(",") if b.strip())
    except ValueError:
        raise ScenarioError(f"--betas expects comma-separated numbers, got {text!r}") from None
    return betas, "explicit"


def _cmd_sweep(args) -> int:
    scenario, source, overrides = _resolve_scenario(args)
    betas, betas_source = _parse_betas(args.betas)
    out = _OutDir(args.out)
    points = beta_sweep(scenario, betas)
    out.write_csv(
        "tradeoff.csv",
        ["beta", "expected_rate", "pfa", "pm", "dep", "game_value"],
        ((p.beta, p.expected_rate, p.pfa, p.pm, p.dep, p.game_value) for p in points),
    )
    out.write_text("scenario.txt", serialize_scenario(scenario))
    manifest = _manifest("sweep", source, overrides, scenario)
    manifest["betas"] = [float(_fmt(b)) for b in betas]
    manifest["betas_source"] = betas_source
    out.finish(manifest)
    print(f"swept {len(points)} weights; dep {_fmt(points[0].dep)} .. {_fmt(points[-1].dep)}")
    return 0


def _cmd_baseline(args) -> int:
    scenario, source, overrides = _resolve_scenario(args)
    out = _OutDir(args.out)
    payoff = build_payoff(prune_negative_rate(scenario))
    results = [uniform_baseline(payoff, k)
               for k in range(2, len(scenario.power_grid) + 1)]
    survivors = [p for p, j in payoff.actions if j == 0.0]
    results.extend(constant_baseline(payoff, p) for p in survivors)
    out.write_csv(
        "baseline.csv",
        ["label", "parameter", "best_threshold_mw", "expected_rate", "pfa", "pm", "dep"],
        ((r.label, r.parameter, r.best_threshold, r.expected_rate, r.pfa, r.pm, r.dep)
         for r in results),
    )
    out.write_text("scenario.txt", serialize_scenario(scenario))
    out.finish(_manifest("baseline", source, overrides, scenario))
    print(f"wrote {len(results)} baseline points")
    return 0


def _off_grid(values: np.ndarray, grid) -> np.ndarray:
    """Whether each value lies farther than 1e-9 from every grid point."""
    return ~(np.abs(values[:, None] - np.asarray(grid)[None, :]) <= 1e-9).any(axis=1)


def _load_strategy_csv(path: str, scenario, joint: bool) -> MixedStrategy:
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if not lines:
        raise ScenarioError(f"{path}: empty strategy file")
    header = lines[0].split(",")
    want = ["power_mw", "jam_mw", "probability"] if joint else ["threshold_mw", "probability"]
    if header != want:
        raise ScenarioError(f"{path}: expected header {','.join(want)}")
    actions, probs = [], []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(want):
            raise ScenarioError(f"{path}: malformed row {line!r}")
        values = [float(p) for p in parts]
        if joint:
            actions.append((values[0], values[1]))
            probs.append(values[2])
        else:
            actions.append(values[0])
            probs.append(values[1])
    # The joint grid is the product of the power and jam grids.
    if joint:
        power, jam = np.array(actions).reshape(-1, 2).T
        off = _off_grid(power, scenario.power_grid) | _off_grid(jam, scenario.jam_grid)
    else:
        off = _off_grid(np.array(actions), scenario.threshold_grid)
    bad = [a for a, o in zip(actions, off.tolist()) if o]
    if bad:
        raise ScenarioError(f"{path}: actions not on the scenario grid: {bad[:3]}")
    try:
        return MixedStrategy(tuple(actions), tuple(probs))
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def _cmd_simulate(args) -> int:
    scenario, source, overrides = _resolve_scenario(args)
    if bool(args.row_strategy) != bool(args.col_strategy):
        raise ScenarioError("--row-strategy and --col-strategy must be given together")
    out = _OutDir(args.out)
    if args.row_strategy:
        joint = _load_strategy_csv(args.row_strategy, scenario, joint=True)
        thr = _load_strategy_csv(args.col_strategy, scenario, joint=False)
        strategy_source = "files"
        analytic_pfa, analytic_pm = pfa(scenario, joint, thr), pm(scenario, joint, thr)
    else:
        payoff = build_payoff(prune_negative_rate(scenario))
        solution = solve_game(payoff)
        joint, thr = solution.row_strategy, solution.col_strategy
        strategy_source = "solved"
        analytic_pfa, analytic_pm = payoff.error_rates(joint, thr)

    est = estimate_detection(scenario, joint, thr, blocks=args.blocks, seed=args.seed)
    ok = est.consistent_with(analytic_pfa, analytic_pm, n_sigma=3.0)
    z_pfa = (est.pfa_hat - analytic_pfa) / est.pfa_stderr if est.pfa_stderr else 0.0
    z_pm = (est.pm_hat - analytic_pm) / est.pm_stderr if est.pm_stderr else 0.0

    report = [
        f"blocks = {est.blocks}",
        f"seed = {est.seed}",
        f"strategies = {strategy_source}",
        f"pfa_analytic = {_fmt(analytic_pfa)}",
        f"pfa_empirical = {_fmt(est.pfa_hat)}",
        f"pfa_stderr = {_fmt(est.pfa_stderr)}",
        f"pfa_zscore = {_fmt(z_pfa)}",
        f"pm_analytic = {_fmt(analytic_pm)}",
        f"pm_empirical = {_fmt(est.pm_hat)}",
        f"pm_stderr = {_fmt(est.pm_stderr)}",
        f"pm_zscore = {_fmt(z_pm)}",
        f"verdict = {'PASS' if ok else 'FAIL'} (3 stderr)",
    ]
    out.write_text("simulate.txt", "\n".join(report) + "\n")
    out.write_text("scenario.txt", serialize_scenario(scenario))
    manifest = _manifest("simulate", source, overrides, scenario)
    manifest["options"] = {"blocks": args.blocks, "seed": args.seed,
                           "strategies": strategy_source}
    out.finish(manifest)
    print("\n".join(report))
    return 0 if ok else 3


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
        return args.func(args)
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GameSolveError, lpsolve.LpError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
