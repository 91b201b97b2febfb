"""Benchmark for covertgame; run it with ``python3 perfbench/run.py``."""

import ctypes

# Pinned to one thread for the timed passes (see run.py) and left at the
# library default for the correctness phase (see bench.run_correctness_phase).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# glibc mallopt parameters, from <malloc.h>.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
# Blocks below this come from the heap, and the heap keeps this much free.
KEEP_HEAP_BYTES = 1 << 30
# What keep_heap() did, for the run's env line.
ALLOCATOR = "default"


def keep_heap() -> None:
    """Serve large blocks from a heap that is not given back to the kernel.

    By default glibc maps every block above its mmap threshold afresh and
    unmaps it on free, so each numpy temporary of a solve costs new page
    faults.  On a VM those faults were about 40 % of a no-jammer solve's
    wall time and most of its run-to-run spread.  With both thresholds
    raised, freed blocks are reused.  Outside glibc it does nothing.
    """
    global ALLOCATOR
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None and mallopt(M_MMAP_THRESHOLD, KEEP_HEAP_BYTES) and \
            mallopt(M_TRIM_THRESHOLD, KEEP_HEAP_BYTES):
        ALLOCATOR = f"glibc mmap/trim thresholds {KEEP_HEAP_BYTES} B"
