"""Machine fingerprint recorded with every benchmark result.

Prints one JSON object: interpreter and library versions, CPU count,
last-level cache size and a measured memory-copy bandwidth. The copy runs
on two float64 arrays of at least four times the last-level cache each
(bytes counted once read and once written), unless that would take more
than 40% of the free memory, in which case the arrays shrink to fit and
``bandwidth_meets_4x_llc`` says so.
"""

from __future__ import annotations

import json
import os
import platform
import time

_SC_LEVEL3_CACHE_SIZE = 194  # glibc's sysconf name, missing from os.sysconf_names


def _llc_bytes() -> int:
    try:
        size = os.sysconf(_SC_LEVEL3_CACHE_SIZE)
    except (ValueError, OSError):
        size = 0
    return size if size > 0 else 32 * 2**20


def copy_bandwidth(llc: int) -> dict:
    import numpy as np

    want = 4 * llc
    free = os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    nbytes = min(want, int(0.2 * free)) // 8 * 8
    src = np.ones(nbytes // 8)
    dst = np.zeros_like(src)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t0)
    return {
        "bandwidth_gb_s": 2.0 * nbytes / best / 1e9,
        "bandwidth_array_bytes": nbytes,
        "bandwidth_meets_4x_llc": nbytes >= want,
    }


def main() -> None:
    import numpy
    import scipy

    llc = _llc_bytes()
    info = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "llc_bytes": llc,
        "machine": platform.machine(),
    }
    info.update(copy_bandwidth(llc))
    print(json.dumps(info))


if __name__ == "__main__":
    main()
