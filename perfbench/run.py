"""Run the covertgame benchmark from the repository root.

    python3 perfbench/run.py --workload tradeoff --seed 1 --seconds 20 --trace 0

BLAS and OpenMP are pinned to one thread before numpy is first imported:
the program is single-threaded Python around small dense numpy kernels, and
on a 2-core machine a second BLAS thread made it slower and its timings far
less steady.  The allocator keeps its heap (perfbench.keep_heap), so
timings measure the program's work rather than the VM's page faults.  See
perfbench/README.md for the workloads and metrics.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    if not (ROOT / "src" / "covertgame" / "__init__.py").is_file():
        print(f"perfbench: no covertgame sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import THREAD_VARS, keep_heap
    for var in THREAD_VARS:
        os.environ[var] = "1"
    keep_heap()
    from perfbench import bench
    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
