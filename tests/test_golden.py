"""Byte-identity pins: the default CLI commands against recorded hashes.

Each command runs on a default preset (``solve-n2000`` with a 2000-use
block, where the long-block windows matter) and every data file it writes
must hash to the recorded sha256 prefix (first 12 hex digits, the table in
ROADMAP.md).  Refactors of the cell table, the solver or the CLI must keep
these bytes unless a change says otherwise and re-pins them.

The ``solve --jammer`` bytes hold at the library-default BLAS thread count:
with OpenBLAS pinned to one thread its row strategy and summary differ in
the last digits, so this test must not run under a one-thread BLAS setting.
"""

import contextlib
import hashlib
import io
import json

import pytest

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
    "solve-n2000": (("solve", "--set", "blocklength_n=2000"), {
        "row_strategy.csv": "984670858a0a",
        "col_strategy.csv": "3af9b86edc6d",
        "summary.txt": "3bf3c0d3f8e6",
    }),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output_hashes(name, tmp_path):
    argv, expected = GOLDEN[name]
    out = tmp_path / name
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--out", str(out)]) == 0
    recorded = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["outputs"]
    for filename, prefix in expected.items():
        digest = hashlib.sha256((out / filename).read_bytes()).hexdigest()
        assert recorded[filename] == "sha256:" + digest
        assert digest[:12] == prefix, filename
