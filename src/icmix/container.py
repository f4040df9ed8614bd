"""Flat binary container for float64 arrays.

Used for model checkpoints; :func:`write_atomic` writes every artifact
file of a run. Layout, all integers little-endian:

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
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"ICMXBIN\x00"
VERSION = 1
KIND_CHECKPOINT = 1


def write_container(path, kind: int, meta: tuple[int, int], arrays: list[np.ndarray]) -> None:
    """Write ``arrays`` as one container file, the payload straight from each array's buffer.

    An array that is already C-contiguous little-endian float64 is written
    without a copy; any other is converted to that layout first.
    """
    header = [MAGIC, struct.pack("<II", VERSION, kind), struct.pack("<QQ", meta[0], meta[1])]
    header.append(struct.pack("<I", len(arrays)))
    payload = []
    for arr in arrays:
        arr = np.asarray(arr, dtype="<f8", order="C")  # keeps a 0-d array 0-d
        header.append(struct.pack("<I", arr.ndim))
        header.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        payload.append(arr)
    write_atomic(path, [b"".join(header), *payload])


def write_atomic(path, data) -> None:
    """Write ``data`` to ``path`` all at once or not at all.

    ``data`` is ``bytes`` or a sequence of C-contiguous buffers (``bytes``,
    numpy arrays, ...), written one after another with no staging copy. The
    bytes go to a temporary file in the same directory, which is then
    renamed over ``path``; if writing fails, the temporary file is removed
    and ``path`` is left as it was. The file is not fsynced, so this guards
    against a failed write or a killed process, not against power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            for part in [data] if isinstance(data, bytes) else data:
                f.write(part)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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
