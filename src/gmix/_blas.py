"""Run numpy's BLAS on the calling thread when a product gains nothing from more.

``pipeline.run`` calls ``limit_threads``; ``datasets.generate`` runs its
lift inside ``one_thread``; importing gmix leaves the host process's BLAS
alone. A product above OpenBLAS's one-thread limit (such as a 512-row
embed block of an evaluation) wakes its worker thread, which then
busy-waits for work for about 130 ms, often on the core the training step
runs on, and keeps its packing buffers mapped. When every product of a
training step is under the limit, as at the default shapes, the worker
only costs time and memory, so ``run`` asks for one thread; a sweep uses
more cores through its worker processes instead. When a step's products
are above it, the second thread splits them and pays: on the 2-vCPU host
this was measured on, a step was 24 % slower on one thread at
``ssl.labeled_batch = 32`` and 14 % at 64. So there ``run`` puts back the
count the library had before gmix first set it. The lift in
``datasets.generate`` (8,000×16×16 at the default spec) may come before
any run has set a count, and a second thread saved only about 0.1 ms on
it, so ``one_thread`` keeps it on the calling thread in every process and
then puts back the count each library had. The thread count changes how
the output matrix is split, not any entry of it, so results stay bit for
bit the same.

Each library's getter, setter and first count are resolved once per
process, on first use; a BLAS library loaded after that is left alone.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
from collections.abc import Callable, Iterator
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

# A library's getter, its setter and its count before gmix first set it.
_Library = tuple[Callable[[], int], Callable[[int], None], int]

# Every mapped library's; None until the first call that needs them.
_LIBRARIES: list[_Library] | None = None


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


def _libraries() -> list[_Library]:
    """Every library with a known setter and getter, resolved on the first call.

    Maps list libraries by address, not load order, so a second OpenBLAS
    (another package's wheel) may come before numpy's; each one is kept.
    """
    global _LIBRARIES
    if _LIBRARIES is None:
        found = []
        for path in _blas_libraries():
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            name = next((n for n in _SETTERS
                         if hasattr(lib, n) and hasattr(lib, n.replace("_set_", "_get_"))), None)
            if name is not None:
                get = getattr(lib, name.replace("_set_", "_get_"))
                found.append((get, getattr(lib, name), get()))
        _LIBRARIES = found
    return _LIBRARIES


def _set(counts: list[int]) -> None:
    """Set each library to its count in ``counts``, only where it reads another."""
    for (get, set_count, _), count in zip(_libraries(), counts):
        if get() != count:
            set_count(count)


def limit_threads(one: bool) -> None:
    """Set every BLAS library found to one thread, or back to its count before gmix set it."""
    _set([1 if one else first for _, _, first in _libraries()])


@contextlib.contextmanager
def one_thread() -> Iterator[None]:
    """Run the body with every BLAS library found on one thread, then put back each one's count.

    The counts are put back also when the body raises. A library already
    at the wanted count is not set.
    """
    entry = [get() for get, _, _ in _libraries()]
    _set([1] * len(entry))
    try:
        yield
    finally:
        _set(entry)
