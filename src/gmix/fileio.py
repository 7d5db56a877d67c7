"""Run artifacts written whole or not at all."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Open a temporary file beside ``path``; on success rename it over ``path``.

    If the body raises, the temporary file is removed and whatever was at
    ``path`` before is left unchanged, so a crash part-way through a write
    never leaves a truncated artifact under its final name.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
