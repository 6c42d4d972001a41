"""Versioned binary tensor container for reproducible fixtures.

Layout (all integers little-endian):
    magic    8 bytes  b"SLIMWT1\\0"
    count    uint32   number of tensors
per tensor:
    name_len uint16
    name     utf-8 bytes
    rows     uint32
    cols     uint32
    payload  rows*cols float32, row-major
"""

from __future__ import annotations

import os
import struct
from collections.abc import Iterable
from pathlib import Path

import numpy as np

MAGIC = b"SLIMWT1\x00"


def write_tensors(path, tensors: Iterable[tuple[str, np.ndarray]], count: int) -> None:
    """Write ``count`` named 2-D arrays, given as (name, array) pairs;
    float64 inputs are narrowed to float32. Each pair is checked, narrowed
    and written as it arrives, so a caller can hand over each tensor as soon
    as it is made, and no copy of the whole file is built. The file is
    written beside ``path`` and renamed to it once all ``count`` are
    written: a pair that is not 2-D or a count that does not match
    (ValueError), or an exception from ``tensors``, leaves no file at
    ``path``."""
    path = Path(path)
    part = path.with_name(path.name + ".part")
    try:
        with open(part, "wb") as f:
            f.write(MAGIC + struct.pack("<I", count))
            written = 0
            for name, arr in tensors:
                if written == count:
                    raise ValueError(f"more than the {count} tensors declared")
                if np.ndim(arr) != 2:
                    raise ValueError(f"tensor {name!r} must be 2-D, got ndim={np.ndim(arr)}")
                nb = name.encode("utf-8")
                f.write(struct.pack("<H", len(nb)) + nb + struct.pack("<II", *np.shape(arr)))
                f.write(np.ascontiguousarray(arr, dtype="<f4"))
                written += 1
            if written != count:
                raise ValueError(f"{written} tensors given, {count} declared")
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def read_tensors(path) -> dict[str, np.ndarray]:
    """Read a container written by ``write_tensors``: each tensor is a
    read-only float32 view of its payload, at its offset in the file's
    bytes. A malformed file (bad magic, truncated anywhere, trailing bytes,
    a name that is not UTF-8) raises ValueError."""
    data = Path(path).read_bytes()
    if data[: len(MAGIC)] != MAGIC:
        raise ValueError(f"{path}: bad magic, not a SLIMWT1 container")
    off = len(MAGIC)
    out: dict[str, np.ndarray] = {}
    try:
        (count,) = struct.unpack_from("<I", data, off)
        off += 4
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", data, off)
            off += 2
            name = data[off : off + name_len].decode("utf-8")
            off += name_len
            rows, cols = struct.unpack_from("<II", data, off)
            off += 8
            n = rows * cols * 4
            if off + n > len(data):
                raise ValueError(f"{path}: truncated SLIMWT1 container ({name!r} needs "
                                 f"{n} bytes at offset {off}, "
                                 f"actual buffer size is {len(data)})")
            out[name] = np.frombuffer(data, "<f4", rows * cols, off).reshape(rows, cols)
            off += n
    except struct.error as exc:
        raise ValueError(f"{path}: truncated SLIMWT1 container ({exc})") from exc
    if off != len(data):
        raise ValueError(f"{path}: {len(data) - off} trailing bytes")
    return out
