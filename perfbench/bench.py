"""Benchmark runner: set-up timing, closed-loop passes, correctness, result.

One client runs one pass at a time and starts the next only after the last
returns (a closed loop).  Every op and pass is timed on two clocks, wall
and this process's CPU time; the bounded metrics are CPU seconds, because on
a shared VM the wall time also holds the host's steal time.  Passes repeat until another would be expected to
end past ``--seconds``; there is always at least one.  With ``--trace 1``
untraced and traced passes alternate, and the traced ones give the
per-layer metrics.  The result is the last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import covertgame
import perfbench
from perfbench import THREAD_VARS, golden, workloads
from perfbench.tracer import Tracer
from perfbench.workloads import Timing

__all__ = ["main", "measure_setup", "run_correctness_phase", "run_passes", "environment"]

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_RUNS = 7
# A set-up child still running after this long is killed.
SETUP_TIMEOUT_S = 120


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))


def measure_setup() -> list[Timing]:
    """Times of fresh interpreters each importing and warming up.

    The CPU time is the child's user + system time.  The wait blocks until
    the child exits, and a timer kills a child that hangs.
    ``subprocess.run(timeout=...)`` is not used because it polls in sleeps
    of up to 50 ms, which rounded every wall sample to a 50 ms step.
    """
    env = _child_env()
    code = "from perfbench import workloads; workloads.warm_up()"
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        cpu0 = _children_cpu_s()
        with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL) as proc:
            watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                status = proc.wait()
            finally:
                watchdog.cancel()
                watchdog.join()
        wall = time.perf_counter() - t0
        if status != 0:
            raise subprocess.CalledProcessError(status, proc.args)
        times.append(Timing(wall, _children_cpu_s() - cpu0))
    return times


def _children_cpu_s() -> float:
    """User + system seconds of every child this process has waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_correctness_phase(work: Path) -> list[str]:
    """The golden commands, in a child interpreter; returns the mismatches.

    The golden hashes were recorded with the BLAS library's default thread
    count, and the bytes of ``solve --jammer`` change with the thread count,
    so this phase runs without the one-thread pin of the timed passes.
    """
    env = {k: v for k, v in _child_env().items() if k not in THREAD_VARS}
    proc = subprocess.run([sys.executable, "-m", "perfbench.golden", str(work)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        return [f"correctness phase exited with {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    return json.loads(proc.stdout.splitlines()[-1])


def _run_pass(ops, work: Path, tracer: Tracer | None):
    """Run one pass's ops in order; returns (Timing, [(kind, Timing|None, op)])."""
    work.mkdir(parents=True)
    results = []
    t0 = Timing.start()
    for op in ops:
        span = tracer.span("bench", op.kind) if tracer else contextlib.nullcontext()
        try:
            with span:
                results.append((op.kind, op(work), op))
        except (Exception, SystemExit) as exc:
            # One failed op must not end the run: count it and carry on.
            print(f"op {op.kind} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            results.append((op.kind, None, op))
    elapsed = t0.since()
    shutil.rmtree(work)
    return elapsed, results


def run_passes(build_pass, label: str, seed: int, seconds: float, tracer: Tracer | None,
               work: Path) -> dict:
    """Closed loop of passes for about ``seconds``; returns the raw samples.

    With a tracer, each round is one untraced pass then one traced pass, each
    with its own inputs.
    """
    samples = {"untraced": [], "traced": [], "ops": defaultdict(list),
               "attempted": 0, "failed": 0, "max_abs_z": 0.0}
    start = time.perf_counter()
    index = rounds = 0
    while True:
        for traced in ((False, True) if tracer else (False,)):
            ops = build_pass(random.Random(f"{label}/{seed}/{index}"))
            with tracer if traced else contextlib.nullcontext():
                elapsed, results = _run_pass(ops, work / f"pass{index}", tracer if traced else None)
            index += 1
            samples["traced" if traced else "untraced"].append(elapsed)
            for kind, timing, op in results:
                samples["attempted"] += 1
                if timing is None:
                    samples["failed"] += 1
                elif not traced:
                    samples["ops"][kind].append(timing)
                samples["max_abs_z"] = max(samples["max_abs_z"], op.observed.get("max_abs_z", 0.0))
        rounds += 1
        spent = time.perf_counter() - start
        if spent + spent / rounds > seconds:
            return samples


def environment() -> dict:
    """What a result depends on besides the code: machine and libraries."""
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "allocator": perfbench.ALLOCATOR,
    }


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not Path(covertgame.__file__).resolve().is_relative_to(src):
        print(f"perfbench: covertgame was imported from {covertgame.__file__}, not {src}",
              file=sys.stderr)
        return 1
    work = WORK / f"run-{os.getpid()}"
    env = environment()
    try:
        setup = None if args.trace else measure_setup()
        workloads.warm_up()
        tracer = Tracer() if args.trace else None
        samples = run_passes(workloads.WORKLOADS[args.workload], args.workload, args.seed,
                             args.seconds, tracer, work / "passes")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = run_correctness_phase(work / "golden")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = samples["untraced"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(untraced) + len(samples['traced'])} passes (medians: wall, CPU)")
    if setup:
        print(f"  setup_s = {_median(setup, 'wall_s'):.4f} s, {_median(setup, 'cpu_s'):.4f} s "
              f"(n={len(setup)})")
    for kind, times in [("pass", untraced), *samples["ops"].items()]:
        print(f"  {kind}_s.p50 = {_median(times, 'wall_s'):.4f} s, {_median(times, 'cpu_s'):.4f} s "
              f"(n={len(times)})")
    print(f"  ops_failed_frac = {samples['failed']}/{samples['attempted']}")
    print(f"  correctness phase: {len(golden.GOLDEN)} golden commands, "
          f"{'all match' if not problems else 'MISMATCH'}")
    for problem in problems:
        print(f"    {problem}")
    print("env " + json.dumps(env, sort_keys=True))

    if args.trace:
        traced = samples["traced"]
        layer = tracer.layer_metrics(len(traced), samples["max_abs_z"])
        layer["trace.overhead_frac"] = (
            _median(traced, "cpu_s") / _median(untraced, "cpu_s") - 1.0, "ratio")
        for name, reason in sorted(tracer.unmeasured.items()):
            print(f"  unmeasured: {name} ({reason})")
        _write_trace(args, env, tracer, layer)
        metrics = layer
    else:
        metrics = {
            "setup_s": (_median(setup, "cpu_s"), "s"),
            "pass_cpu_s.p50": (_median(untraced, "cpu_s"), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        if samples["ops"].get("solve"):
            metrics["solve_cpu_s.p50"] = (_median(samples["ops"]["solve"], "cpu_s"), "s")
    print(json.dumps({
        "correct": not problems and samples["failed"] == 0,
        "attempted": samples["attempted"],
        "failed": samples["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _median(timings: list[Timing], clock: str) -> float:
    return statistics.median(getattr(t, clock) for t in timings)


def _write_trace(args, env, tracer: Tracer, metrics):
    """Write every span once, at the end of the run."""
    origin = tracer.spans[0][2] if tracer.spans else 0
    WORK.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "env": env,
        "unmeasured": tracer.unmeasured,
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "span_fields": ["layer", "function", "start_ns", "end_ns", "parent"],
        "spans": [[layer, fn, start - origin, end - origin, parent]
                  for layer, fn, start, end, parent in tracer.spans],
    }
    path = WORK / f"trace-{args.workload}.json"
    path.write_text(json.dumps(record, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"  spans: {len(tracer.spans)} written to {path}")
