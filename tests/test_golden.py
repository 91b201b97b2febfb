"""Byte-identity pins: the default CLI commands against recorded hashes.

Each command runs on a default preset (``solve-n2000`` and
``solve-n10000`` with 2000- and 10^4-use blocks, where the long-block
kernel (Temme's expansion near x = n, the recurrence elsewhere), the P_M
cells set to 1.0 unevaluated and the Q cells proven to round to 1.0
matter; ``simulate-files`` reads the strategy files that the
``solve`` command writes first) and every data file it writes
must hash to the recorded sha256 prefix (first 12 hex digits, the table in
ROADMAP.md).  Refactors of the cell table, the solver or the CLI must keep
these bytes unless a change says otherwise and re-pins them.

The ``solve --jammer`` bytes hold at the library-default BLAS thread count:
with OpenBLAS pinned to one thread its row strategy and summary differ in
the last digits, so this test must not run under a one-thread BLAS setting.
That defect, and the bytes' dependence on numpy's SIMD loops and on
OpenBLAS's kernel choice, are pinned as strict xfails below: a fix makes
them pass, and strict turns that into a failure until the mark is removed.
The long-block solves already hold without AVX-512 and run there as plain
cases.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import covertgame
from covertgame.cli import main

GOLDEN = {
    "solve": (("solve",), {
        "row_strategy.csv": "17d180d24615",
        "col_strategy.csv": "5bd20d53b7c0",
        "summary.txt": "d7f14fbe0c2c",
    }),
    # Zero jamming leaves the SNR at P/sigma_b^2 even where alpha^2 overflows.
    "solve-alpha-1e200": (("solve", "--set", "alpha=1e200"), {
        "row_strategy.csv": "17d180d24615",
        "col_strategy.csv": "5bd20d53b7c0",
        "summary.txt": "d7f14fbe0c2c",
    }),
    "solve-jammer": (("solve", "--jammer"), {
        "row_strategy.csv": "eb43f117a0ca",
        "col_strategy.csv": "ba1c67dd12a8",
        "summary.txt": "b5464f4f4651",
    }),
    "sweep": (("sweep",), {"tradeoff.csv": "b8b74903b095"}),
    "baseline": (("baseline",), {"baseline.csv": "e38aa4757b16"}),
    "simulate": (("simulate", "--blocks", "100000", "--seed", "0"), {
        "simulate.txt": "738b61c74886",
    }),
    # The benchmark's simulate path: the strategy files of the ``solve`` pin,
    # read back (2 actions a side).
    "simulate-files": (("simulate", "--blocks", "100000", "--seed", "0",
                        "--row-strategy", "{solve}/row_strategy.csv",
                        "--col-strategy", "{solve}/col_strategy.csv"), {
        "simulate.txt": "6c41a5d04b7d",
    }),
    # Supports of 14 actions a side.
    "simulate-jammer": (("simulate", "--jammer", "--blocks", "100000", "--seed", "0"), {
        "simulate.txt": "06d04eafabb4",
    }),
    # Its summary.txt reads row_gap -2.2e-16 and col_gap 4.4e-16.
    "solve-n2000": (("solve", "--set", "blocklength_n=2000"), {
        "row_strategy.csv": "984670858a0a",
        "col_strategy.csv": "3af9b86edc6d",
        "summary.txt": "a8e1e7692c5a",
    }),
    # Most Q cells of a 10^4-use block are proven below 2^-54 (P_M = 1.0) or
    # to round to 1.0 (P_FA = 1.0, P_M = 0.0), and are not summed.  Its
    # summary.txt reads row_gap 2.2e-16 and col_gap 0 after 10 LP iterations.
    "solve-n10000": (("solve", "--set", "blocklength_n=10000"), {
        "row_strategy.csv": "363cda50b61e",
        "col_strategy.csv": "2997f539be16",
        "summary.txt": "63706bd4c40a",
    }),
}


def _run(argv, out):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--out", str(out)]) == 0


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output_hashes(name, tmp_path):
    argv, expected = GOLDEN[name]
    if any("{solve}" in arg for arg in argv):
        _run(GOLDEN["solve"][0], tmp_path / "solve")
        argv = [arg.format(solve=tmp_path / "solve") for arg in argv]
    out = tmp_path / name
    _run(argv, out)
    recorded = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["outputs"]
    for filename, prefix in expected.items():
        digest = hashlib.sha256((out / filename).read_bytes()).hexdigest()
        assert recorded[filename] == "sha256:" + digest
        assert digest[:12] == prefix, filename


def _cpu_has(feature: str) -> bool:
    core = getattr(np, "_core", None) or np.core
    return bool(core._multiarray_umath.__cpu_features__.get(feature, False))


# A pinned command in a fresh interpreter with one environment variable set.
ENVIRONMENT_DEFECTS = [
    pytest.param("solve", "NPY_DISABLE_CPU_FEATURES", "X86_V4 AVX512_ICL AVX512_SPR", marks=[
        pytest.mark.skipif(not _cpu_has("X86_V4"), reason="numpy reports no X86_V4 here"),
        pytest.mark.xfail(strict=True, raises=AssertionError,
                          reason="the gamma kernel's exp/log/log1p loops below AVX-512 give "
                                 "other last bits (summary.txt 0302675e05ed)"),
    ], id="solve-below-avx512"),
    pytest.param("solve-jammer", "OPENBLAS_NUM_THREADS", "1", marks=[
        pytest.mark.xfail(strict=True, raises=AssertionError,
                          reason="one BLAS thread moves the jammer game's strategy "
                                 "(row_strategy.csv 55fbb11835b3)"),
    ], id="solve-jammer-one-blas-thread"),
    pytest.param("solve", "OPENBLAS_CORETYPE", "Haswell", marks=[
        pytest.mark.skipif(not _cpu_has("X86_V3"), reason="numpy reports no X86_V3 here"),
        pytest.mark.xfail(strict=True, raises=AssertionError,
                          reason="OpenBLAS's AVX2 kernels move the LP's last bits and the "
                                 "printed row_gap (summary.txt 04edea64a65b)"),
    ], id="solve-openblas-haswell"),
    # Above n = 200 the cells near x = n come from Temme's expansion, whose
    # exp and erfc are taken from ``math``, and the rest from the recurrence:
    # every pinned byte holds with numpy's AVX-512 loops disabled.
    *(pytest.param(name, "NPY_DISABLE_CPU_FEATURES", "X86_V4 AVX512_ICL AVX512_SPR", marks=[
        pytest.mark.skipif(not _cpu_has("X86_V4"), reason="numpy reports no X86_V4 here"),
    ], id=f"{name}-below-avx512") for name in ("solve-n2000", "solve-n10000")),
]


@pytest.mark.parametrize("name, variable, value", ENVIRONMENT_DEFECTS)
def test_golden_bytes_hold_under_environment(name, variable, value, tmp_path):
    argv, expected = GOLDEN[name]
    src = str(Path(covertgame.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]), **{variable: value})
    subprocess.run([sys.executable, "-m", "covertgame.cli", *argv, "--out", str(tmp_path)],
                   env=env, capture_output=True, check=True, timeout=300)
    for filename, prefix in expected.items():
        assert hashlib.sha256((tmp_path / filename).read_bytes()).hexdigest()[:12] == prefix, \
            filename
