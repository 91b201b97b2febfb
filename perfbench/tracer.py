"""Per-module spans and counts, recorded from outside the package.

``Tracer`` wraps every function named in a layer module's ``__all__`` and
rebinds the wrapper at every ``covertgame.*`` attribute that holds the same
function object, so calls through ``from .x import f`` bindings are seen
too.  Each call becomes a span ``[layer, function, start_ns, end_ns,
parent]``; a few functions also add counts taken from their arguments and
return values.  Nothing under ``src/`` is edited, and every binding is put
back when the ``with`` block exits, even on error.

A layer's self time is the time inside its spans minus the time inside
their direct child spans.  Methods and classes are not wrapped, so their
time counts toward whichever wrapped function called them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

__all__ = ["LAYERS", "REQUIRED", "Tracer"]

PACKAGE = "covertgame"
LAYERS = ("specfun", "detection", "rate", "model", "matrixgame", "lpsolve",
          "experiments", "simkit", "cli")

# Functions whose arguments or results feed a layer's counts.  A layer that
# lacks one of them is reported as unmeasured instead of half counted.
REQUIRED = {
    "specfun": ("reg_gamma_q_grid",),
    "detection": ("pfa", "pm", "pfa_grid", "pm_grid"),
    "rate": (),
    "model": ("prune_negative_rate",),
    "matrixgame": ("build_payoff", "solve_game"),
    "lpsolve": ("solve",),
    "experiments": ("beta_sweep", "uniform_baseline", "constant_baseline", "frontier_rate"),
    "simkit": ("estimate_detection",),
    "cli": ("main",),
}

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Context manager that records spans and counts while it is active."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.unmeasured: dict[str, str] = {}
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._points: dict[int, list] = defaultdict(list)
        self.max_gap = 0.0

    # -- installing and removing the wrappers -------------------------------

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info):
        self._restore()

    def _install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer in LAYERS:
            qualname = f"{PACKAGE}.{layer}"
            try:
                module = importlib.import_module(qualname)
            except ImportError:
                self.unmeasured[layer] = f"module {qualname} not found"
                continue
            if module not in modules:
                modules.append(module)
            funcs = {}
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name, None)
                # Re-exports are wrapped in the module that defines them.
                if inspect.isfunction(fn) and fn.__module__ == qualname:
                    funcs[name] = fn
            missing = [name for name in REQUIRED[layer] if name not in funcs]
            if missing or not funcs:
                self.unmeasured[layer] = ("missing " + ", ".join(missing)) if missing \
                    else "no functions in __all__"
            for name, fn in funcs.items():
                wrapper = self._wrap(layer, name, fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._saved.append((m, attr, fn))
                            setattr(m, attr, wrapper)

    def _restore(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack
        hook = getattr(self, f"_on_{layer}_{name}", None)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [layer, name, clock(), 0, stack[-1] if stack else None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        """A span opened by the benchmark itself, e.g. around one op."""
        span = [layer, name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[3] = time.perf_counter_ns()
            self._stack.pop()

    # -- counts from arguments and results ----------------------------------

    def _on_specfun_reg_gamma_q_grid(self, args, kwargs, result):
        n = int(_arg(args, kwargs, 0, "n"))
        x = np.asarray(_arg(args, kwargs, 1, "x"), dtype=float)
        self.counts["specfun.points"] += x.size
        self.counts["specfun.terms"] += x.size * (n - 1)
        self._points[n].append(x)

    def _detection_cells(self, actions: int, thresholds: int, scales: int):
        self.counts["detection.cells"] += actions * thresholds
        self.counts["detection.actions"] += actions
        self.counts["detection.scales"] += scales

    def _on_detection_pfa_grid(self, args, kwargs, result):
        s, actions = _arg(args, kwargs, 0, "s"), _arg(args, kwargs, 1, "actions")
        self._detection_cells(len(actions), len(s.threshold_grid), len({j for _, j in actions}))

    def _on_detection_pm_grid(self, args, kwargs, result):
        s, actions = _arg(args, kwargs, 0, "s"), _arg(args, kwargs, 1, "actions")
        scales = {p + s.sigma_w_sq_mw + j for p, j in actions}
        self._detection_cells(len(actions), len(s.threshold_grid), len(scales))

    def _on_detection_pfa(self, args, kwargs, result):
        joint, thr = _arg(args, kwargs, 1, "joint"), _arg(args, kwargs, 2, "thr")
        # Mixed-strategy evaluation shares nothing: one scale per action.
        self._detection_cells(len(joint.actions), len(thr.actions), len(joint.actions))

    _on_detection_pm = _on_detection_pfa

    def _on_model_prune_negative_rate(self, args, kwargs, result):
        s = _arg(args, kwargs, 0, "s")
        self.counts["model.actions_in"] += len(s.power_grid) * len(s.jam_grid)
        self.counts["model.actions_kept"] += len(result.actions)

    def _on_matrixgame_solve_game(self, args, kwargs, result):
        self.counts["matrixgame.games"] += 1
        self.max_gap = max(self.max_gap, result.row_gap, result.col_gap)

    def _on_lpsolve_solve(self, args, kwargs, result):
        lp = _arg(args, kwargs, 0, "lp")
        self.counts["lpsolve.iterations"] += result.iterations
        self.counts["lpsolve.rows"] += len(lp.rhs)
        self.counts["lpsolve.nonoptimal"] += result.status != "optimal"

    def _on_experiments_beta_sweep(self, args, kwargs, result):
        self.counts["experiments.sweep_points"] += len(result)

    def _on_experiments_uniform_baseline(self, args, kwargs, result):
        self.counts["experiments.baselines"] += 1

    _on_experiments_constant_baseline = _on_experiments_uniform_baseline

    def _on_experiments_frontier_rate(self, args, kwargs, result):
        self.counts["experiments.frontier_levels"] += 1

    def _on_simkit_estimate_detection(self, args, kwargs, result):
        self.counts["simkit.blocks"] += int(_arg(args, kwargs, 3, "blocks"))

    def _on_cli_main(self, args, kwargs, result):
        argv = list(_arg(args, kwargs, 0, "argv") or ())
        if "--out" in argv:
            files = [p for p in Path(argv[argv.index("--out") + 1]).iterdir() if p.is_file()]
            self.counts["cli.files"] += len(files)
            self.counts["cli.bytes_written"] += sum(p.stat().st_size for p in files)

    # -- per-layer metrics ---------------------------------------------------

    def self_times(self) -> dict[tuple[str, str], int]:
        """Self nanoseconds per (layer, function)."""
        child = [0] * len(self.spans)
        for layer, fn, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[tuple[str, str], int] = defaultdict(int)
        for (layer, fn, start, end, parent), inner in zip(self.spans, child):
            out[(layer, fn)] += end - start - inner
        return out

    def layer_metrics(self, passes: int, max_abs_z: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per traced pass, as name -> (value, unit).

        Layers listed in ``unmeasured`` are left out.
        """
        selfs = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        for layer, *_ in self.spans:
            calls[layer] += 1
        layer_s = defaultdict(float)
        for (layer, fn), ns in selfs.items():
            layer_s[layer] += ns / 1e9
        c = self.counts

        def per(value):
            return value / passes

        def ratio(num, den):
            return num / den if den else 0.0

        gamma_ns = selfs.get(("specfun", "reg_gamma_q_grid"), 0)
        build_s = selfs.get(("matrixgame", "build_payoff"), 0) / 1e9
        metrics = {
            "specfun": {
                "specfun.s": (per(layer_s["specfun"]), "s"),
                "specfun.calls": (per(calls["specfun"]), "count"),
                "specfun.points": (per(c["specfun.points"]), "count"),
                "specfun.terms": (per(c["specfun.terms"]), "count"),
                "specfun.ns_per_term": (ratio(gamma_ns, c["specfun.terms"]), "ns"),
                "specfun.distinct_frac": (ratio(self._distinct_points(), c["specfun.points"]), "ratio"),
            },
            "detection": {
                "detection.s": (per(layer_s["detection"]), "s"),
                "detection.calls": (per(calls["detection"]), "count"),
                "detection.cells": (per(c["detection.cells"]), "count"),
                "detection.shared_frac": (ratio(c["detection.scales"], c["detection.actions"]), "ratio"),
            },
            "rate": {
                "rate.s": (per(layer_s["rate"]), "s"),
                "rate.calls": (per(calls["rate"]), "count"),
            },
            "model": {
                "model.s": (per(layer_s["model"]), "s"),
                "model.actions_in": (per(c["model.actions_in"]), "count"),
                "model.actions_kept": (per(c["model.actions_kept"]), "count"),
            },
            "matrixgame": {
                "matrixgame.build_s": (per(build_s), "s"),
                "matrixgame.solve_s": (per(layer_s["matrixgame"] - build_s), "s"),
                "matrixgame.games": (per(c["matrixgame.games"]), "count"),
                "matrixgame.max_gap": (self.max_gap, "payoff"),
            },
            "lpsolve": {
                "lpsolve.s": (per(layer_s["lpsolve"]), "s"),
                "lpsolve.calls": (per(calls["lpsolve"]), "count"),
                "lpsolve.iterations": (per(c["lpsolve.iterations"]), "count"),
                "lpsolve.ms_per_iter": (ratio(1e3 * layer_s["lpsolve"], c["lpsolve.iterations"]), "ms"),
                "lpsolve.rows": (per(c["lpsolve.rows"]), "count"),
                "lpsolve.nonoptimal": (per(c["lpsolve.nonoptimal"]), "count"),
            },
            "experiments": {
                "experiments.s": (per(layer_s["experiments"]), "s"),
                "experiments.sweep_points": (per(c["experiments.sweep_points"]), "count"),
                "experiments.baselines": (per(c["experiments.baselines"]), "count"),
                "experiments.frontier_levels": (per(c["experiments.frontier_levels"]), "count"),
            },
            "simkit": {
                "simkit.s": (per(layer_s["simkit"]), "s"),
                "simkit.blocks": (per(c["simkit.blocks"]), "count"),
                "simkit.blocks_per_s": (ratio(c["simkit.blocks"], layer_s["simkit"]), "1/s"),
                "simkit.max_abs_z": (max_abs_z, "sigma"),
            },
            "cli": {
                "cli.s": (per(layer_s["cli"]), "s"),
                "cli.files": (per(c["cli.files"]), "count"),
                "cli.bytes_written": (per(c["cli.bytes_written"]), "B"),
            },
        }
        return {name: value for layer, group in metrics.items()
                if layer not in self.unmeasured for name, value in group.items()}

    def _distinct_points(self) -> int:
        return sum(int(np.unique(np.concatenate([x.ravel() for x in xs])).size)
                   for xs in self._points.values() if xs)

