"""Parameter checkpoint files.

Plain binary layout, little-endian throughout:

    8 bytes   magic b"GMIXCKPT"
    uint32    format version (currently 1)
    uint32    tensor count
    per tensor:
        uint32      name length in bytes
        bytes       name, utf-8
        uint32      number of dimensions
        uint64[nd]  extents
        float64[n]  payload, row-major

Tensors round-trip bit-exactly; readers reject unknown magic/version.
The reader checks every declared length against the bytes left in the
file before reading, so a corrupt length or extent is reported as a
truncated checkpoint, never allocated. The file is written to a
temporary name and renamed into place.
"""

from __future__ import annotations

import functools
import math
import os
import struct

import numpy as np

from .fileio import atomic_write

MAGIC = b"GMIXCKPT"
VERSION = 1


def save_checkpoint(path, named_arrays: dict[str, np.ndarray]) -> None:
    with atomic_write(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", VERSION, len(named_arrays)))
        for name, arr in named_arrays.items():
            arr = np.ascontiguousarray(arr, dtype=np.float64)
            encoded = name.encode("utf-8")
            f.write(struct.pack("<I", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            f.write(arr.tobytes(order="C"))


def _read(f, n: int, what: str, end: int) -> bytes:
    """The next ``n`` bytes of ``f``, whose size is ``end``, checked before reading."""
    left = end - f.tell()
    if n > left:
        raise ValueError(f"truncated checkpoint: {what} needs {n} bytes, {left} left")
    return f.read(n)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        end = os.fstat(f.fileno()).st_size
        read = functools.partial(_read, f, end=end)
        magic = read(len(MAGIC), "magic")
        if magic != MAGIC:
            raise ValueError(f"not a checkpoint file (bad magic {magic!r})")
        version, count = struct.unpack("<II", read(8, "header"))
        if version != VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        out: dict[str, np.ndarray] = {}
        for i in range(count):
            (name_len,) = struct.unpack("<I", read(4, f"tensor {i} name length"))
            name = read(name_len, f"tensor {i} name").decode("utf-8")
            (ndim,) = struct.unpack("<I", read(4, f"ndim of tensor {name!r}"))
            shape = struct.unpack(f"<{ndim}Q", read(8 * ndim, f"shape of tensor {name!r}"))
            payload = read(8 * math.prod(shape), f"payload of tensor {name!r}")
            out[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    return out


def model_arrays(backbone, head) -> dict[str, np.ndarray]:
    """Named parameter values of a backbone + head pair, in stable order."""
    return {p.name: p.value for p in backbone.parameters() + head.parameters()}


def load_model(path, backbone, head) -> None:
    """Restore parameters in place, validating names and shapes."""
    arrays = load_checkpoint(path)
    params = {p.name: p for p in backbone.parameters() + head.parameters()}
    if set(arrays) != set(params):
        raise ValueError(
            f"checkpoint tensors {sorted(arrays)} do not match model "
            f"parameters {sorted(params)}"
        )
    for name, arr in arrays.items():
        p = params[name]
        if arr.shape != p.value.shape:
            raise ValueError(
                f"shape mismatch for {name!r}: checkpoint {arr.shape}, "
                f"model {p.value.shape}"
            )
        p.value[...] = arr
