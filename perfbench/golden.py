"""Correctness phase: the golden CLI commands against their recorded hashes.

Each entry is a command on a default preset and the first 12 hex digits of
the sha256 that ``manifest.json`` records for its data files (the table in
ROADMAP.md).  A file also fails when its bytes on disk no longer hash to
what the manifest records, so a damaged output cannot pass on the strength
of its manifest alone.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import covertgame.cli
from perfbench import keep_heap

__all__ = ["GOLDEN", "run_entry", "check_outputs", "correctness_phase"]

GOLDEN = (
    ("solve", ("solve",), {
        "row_strategy.csv": "17d180d24615",
        "col_strategy.csv": "5bd20d53b7c0",
        "summary.txt": "d7f14fbe0c2c",
    }),
    ("solve-jammer", ("solve", "--jammer"), {
        "row_strategy.csv": "eb43f117a0ca",
        "col_strategy.csv": "ba1c67dd12a8",
        "summary.txt": "b5464f4f4651",
    }),
    ("sweep", ("sweep",), {"tradeoff.csv": "b8b74903b095"}),
    ("baseline", ("baseline",), {"baseline.csv": "e38aa4757b16"}),
    ("simulate", ("simulate", "--blocks", "100000", "--seed", "0"), {
        "simulate.txt": "738b61c74886",
    }),
)


def check_outputs(out: Path, expected: dict[str, str]) -> list[str]:
    """Mismatches between the files in ``out`` and their golden prefixes."""
    try:
        recorded = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["outputs"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"{out.name}: unreadable manifest ({exc})"]
    problems = []
    for name, prefix in expected.items():
        digest = recorded.get(name, "")
        try:
            actual = "sha256:" + hashlib.sha256((out / name).read_bytes()).hexdigest()
        except OSError as exc:
            problems.append(f"{out.name}/{name}: {exc}")
            continue
        if actual != digest:
            problems.append(f"{out.name}/{name}: bytes on disk do not match the manifest")
        if digest[len("sha256:"):][:12] != prefix:
            problems.append(f"{out.name}/{name}: manifest {digest[7:19] or 'missing'}, golden {prefix}")
    return problems


def run_entry(entry, work: Path) -> list[str]:
    """Run one golden command into ``work/<name>`` and check its outputs."""
    name, argv, expected = entry
    out = work / name
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = covertgame.cli.main([*argv, "--out", str(out)])
    except (Exception, SystemExit) as exc:
        return [f"{name}: raised {type(exc).__name__}: {exc}"]
    if code != 0:
        return [f"{name}: exit code {code}"]
    return check_outputs(out, expected)


def correctness_phase(work: Path) -> list[str]:
    """Run every golden command; returns the mismatches (empty means pass)."""
    problems = []
    for entry in GOLDEN:
        problems.extend(run_entry(entry, work))
    return problems


if __name__ == "__main__":
    keep_heap()
    print(json.dumps(correctness_phase(Path(sys.argv[1]))))
