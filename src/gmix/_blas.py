"""Run numpy's BLAS on the calling thread when a training step gains nothing from more.

``pipeline.run`` calls ``limit_threads``; importing gmix leaves the host
process's BLAS alone. A product above OpenBLAS's one-thread limit (such as
the lift in ``datasets.generate`` or a 512-row embed block of an
evaluation) wakes its worker thread, which then busy-waits for work for
about 130 ms, often on the core the training step runs on. When every
product of a training step is under the limit, as at the default shapes,
the worker only costs time and memory, so ``run`` asks for one thread; a
sweep uses more cores through its worker processes instead. When a step's
products are above it, the second thread splits them and pays: on the
2-vCPU host this was measured on, a step was 24 % slower on one thread
at ``ssl.labeled_batch = 32`` and 14 % at 64. So there ``run`` puts back
the count the library had before gmix first set it. The thread count
changes how the output matrix is split, not any entry of it, so results
stay bit for bit the same.
"""

from __future__ import annotations

import ctypes
import os
from pathlib import Path

import numpy as np

# OpenBLAS 0.3.31 (Haswell kernels) keeps every product form a training
# step uses on the calling thread below this M·N·K. `g @ w.T` woke the
# worker at 128×64×64 = 2^19 but not at 127×64×64, 64×90×90 or 100×72×72;
# `x @ w` and `h.T @ g` stayed there up to 10^6. Other builds and CPUs may
# split smaller products.
ONE_THREAD_LIMIT = 2**19

# numpy 2.x wheels first, then older wheels' ILP64 and plain OpenBLAS builds.
_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)

# Each library's thread count before gmix first set it, by path.
_FIRST_COUNT: dict[str, int] = {}


def _blas_libraries() -> list[str]:
    """Paths of the BLAS libraries mapped into this process, else numpy's bundled ones."""
    try:
        with open("/proc/self/maps") as f:
            paths = [parts[5].strip() for parts in (line.split(maxsplit=5) for line in f)
                     if len(parts) == 6]
    except OSError:
        paths = []
    found = [p for p in dict.fromkeys(paths) if "blas" in os.path.basename(p).lower()]
    if found:
        return found
    root = Path(np.__file__).resolve().parent
    return [str(p) for d in (root.parent / "numpy.libs", root / ".dylibs")
            if d.is_dir() for p in sorted(d.glob("*blas*"))]


def limit_threads(one: bool) -> bool:
    """Set every BLAS library found to one thread, or back to its count before gmix set it.

    Maps list libraries by address, not load order, so a second OpenBLAS
    (another package's wheel) may come before numpy's; each one is set.
    False when no library has a known setter and getter.
    """
    found = False
    for path in _blas_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        name = next((n for n in _SETTERS
                     if hasattr(lib, n) and hasattr(lib, n.replace("_set_", "_get_"))), None)
        if name is None:
            continue
        count = getattr(lib, name.replace("_set_", "_get_"))()
        first = _FIRST_COUNT.setdefault(path, count)
        if count != (1 if one else first):
            getattr(lib, name)(1 if one else first)
        found = True
    return found
