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

import struct
from pathlib import Path

import numpy as np

MAGIC = b"SLIMWT1\x00"


def write_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    """Write named 2-D arrays; float64 inputs are narrowed to float32."""
    buf = bytearray(MAGIC)
    buf += struct.pack("<I", len(tensors))
    for name, arr in tensors.items():
        a = np.ascontiguousarray(arr, dtype=np.float32)
        if a.ndim != 2:
            raise ValueError(f"tensor {name!r} must be 2-D, got ndim={a.ndim}")
        nb = name.encode("utf-8")
        buf += struct.pack("<H", len(nb)) + nb
        buf += struct.pack("<II", a.shape[0], a.shape[1])
        buf += a.tobytes(order="C")
    Path(path).write_bytes(bytes(buf))


def read_tensors(path) -> dict[str, np.ndarray]:
    """Read a container written by ``write_tensors`` as float64 arrays; a
    malformed file (bad magic, truncated anywhere, trailing bytes, a name
    that is not UTF-8) raises ValueError."""
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
            arr = np.frombuffer(data[off : off + n], dtype="<f4").reshape(rows, cols)
            off += n
            out[name] = arr.astype(np.float64)
    except struct.error as exc:
        raise ValueError(f"{path}: truncated SLIMWT1 container ({exc})") from exc
    if off != len(data):
        raise ValueError(f"{path}: {len(data) - off} trailing bytes")
    return out
