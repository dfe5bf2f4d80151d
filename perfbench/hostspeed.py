"""Host speed reference: a fixed pure-Python kernel that uses nothing from
ramseyforge.

The measuring host's vCPUs run at a speed that changes by up to 2x over
seconds to minutes (see NOTES.md, "Noise").  The benchmark times this kernel
just before each set-up and each pass, in the same process, and reports its
times at the reference speed: a measured time t becomes t * REF_S / r, where
r is the kernel's time taken just before (for the passes of the numpy and
memory-bound workloads t * (REF_S / r) ** 0.5).  The kernel never changes
with the program under test, so a change to the program moves the reported
times by the same share as the measured ones.

The kernel does integer, bitset and dict work of the kind the program's
branch and bound, pattern search and subset scans do.  The garbage collector
is off while it runs, so the size of the program's heap does not change the
kernel's time.
"""

from __future__ import annotations

import gc
import statistics
import time

# The kernel's usual time on the measuring host (shared 2-vCPU Xeon VM,
# 2.0 GHz, Python 3.11); reported times are seconds at this speed.
REF_S = 0.020
REPEATS = 5

_MASK = (1 << 64) - 1
_N = 64


def kernel() -> int:
    x, rows = 0x9E3779B97F4A7C15, [0] * _N
    for u in range(_N):
        for v in range(u + 1, _N):
            x = (x * 6364136223846793005 + 1442695040888963407) & _MASK
            if x >> 63:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    common: dict[tuple[int, int], int] = {}
    for _ in range(30):
        for u in range(_N):
            ru = rows[u]
            for v in range(u + 1, _N):
                common[u, v] = (ru & rows[v]).bit_count()
    return sum(common.values())


def sample() -> float:
    """The median time of REPEATS kernel calls, taken now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)
