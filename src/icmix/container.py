"""Flat binary container for float64 arrays.

Used for model checkpoints. Layout, all integers little-endian:

    offset  size            field
    0       8               magic  b"ICMXBIN\\x00"
    8       u32             format version (currently 1)
    12      u32             kind (1 = model checkpoint)
    16      2 x u64         kind-specific metadata
    32      u32             n_arrays
    36      per array:      ndim u32, then ndim x u64 dims
    ...     payload         each array as float64 little-endian, C row-major,
                            concatenated in table order

The file length must match the header exactly; trailing or missing bytes are
rejected. Array sizes are exact integer products, so no dims overflow the check.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"ICMXBIN\x00"
VERSION = 1
KIND_CHECKPOINT = 1


def write_container(path, kind: int, meta: tuple[int, int], arrays: list[np.ndarray]) -> None:
    parts = [MAGIC, struct.pack("<II", VERSION, kind), struct.pack("<QQ", meta[0], meta[1])]
    parts.append(struct.pack("<I", len(arrays)))
    payload = []
    for arr in arrays:
        arr = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        payload.append(arr.astype("<f8", copy=False).tobytes())
    Path(path).write_bytes(b"".join(parts) + b"".join(payload))


def read_container(path) -> tuple[int, tuple[int, int], list[np.ndarray]]:
    raw = Path(path).read_bytes()
    if len(raw) < 36 or raw[:8] != MAGIC:
        raise ValueError(f"{path}: not a container file (bad magic or truncated header)")
    version, kind = struct.unpack_from("<II", raw, 8)
    if version != VERSION:
        raise ValueError(f"{path}: unsupported container version {version}")
    meta = struct.unpack_from("<QQ", raw, 16)
    (n_arrays,) = struct.unpack_from("<I", raw, 32)
    offset = 36
    shapes = []
    for _ in range(n_arrays):
        if offset + 4 > len(raw):
            raise ValueError(f"{path}: truncated shape table")
        (ndim,) = struct.unpack_from("<I", raw, offset)
        offset += 4
        if offset + 8 * ndim > len(raw):
            raise ValueError(f"{path}: truncated shape table")
        dims = struct.unpack_from(f"<{ndim}Q", raw, offset)
        offset += 8 * ndim
        shapes.append(tuple(int(d) for d in dims))
    expected = offset + sum(8 * math.prod(s) for s in shapes)
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, found {len(raw)}")
    arrays = []
    for shape in shapes:
        count = math.prod(shape)
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=offset).reshape(shape)
        arrays.append(arr.astype(np.float64))
        offset += 8 * count
    return kind, (int(meta[0]), int(meta[1])), arrays
