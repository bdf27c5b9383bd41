"""Flat binary checkpoint for named parameter arrays.

Layout (all integers little-endian):

    bytes 0-3   magic "QHD1"
    u32         format version (currently 1)
    u32         metadata byte length, then that many UTF-8 bytes
    u32         number of arrays
    per array   u16 name length, name bytes, u32 ndim, ndim x u32 dims
    data        float64 little-endian values, C order, arrays concatenated
                in header order

The metadata string carries the run's config mapping as given, so every
checkpoint is self-describing.
"""
from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import DataFormatError, decode_utf8

MAGIC = b"QHD1"
VERSION = 1


def save_checkpoint(path, arrays: dict[str, np.ndarray], meta: str = "") -> None:
    """Write named float64 arrays plus a metadata string."""
    meta_bytes = meta.encode("utf-8")
    parts = [MAGIC, struct.pack("<I", VERSION)]
    parts.append(struct.pack("<I", len(meta_bytes)))
    parts.append(meta_bytes)
    parts.append(struct.pack("<I", len(arrays)))
    payload = []
    for name, arr in arrays.items():
        name_bytes = name.encode("utf-8")
        if len(name_bytes) > 0xFFFF:
            raise DataFormatError(f"array name too long: {name[:32]}...")
        arr = np.asarray(arr, dtype=np.float64)
        parts.append(struct.pack("<H", len(name_bytes)))
        parts.append(name_bytes)
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b"")
        payload.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    Path(path).write_bytes(b"".join(parts) + b"".join(payload))


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, count: int, what: str) -> bytes:
        if self.pos + count > len(self.blob):
            raise DataFormatError(
                f"truncated checkpoint: needed {count} bytes for {what} at byte "
                f"{self.pos}, only {len(self.blob) - self.pos} remain"
            )
        out = self.blob[self.pos : self.pos + count]
        self.pos += count
        return out

    def text(self, count: int, what: str) -> str:
        start = self.pos
        return decode_utf8(self.take(count, what), DataFormatError, what, start)

    def u16(self, what: str) -> int:
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], str]:
    """Read named arrays and the metadata string back."""
    rd = _Reader(Path(path).read_bytes())
    magic = rd.take(4, "magic")
    if magic != MAGIC:
        raise DataFormatError(f"bad magic {magic!r} at byte 0, expected {MAGIC!r}")
    version = rd.u32("version")
    if version != VERSION:
        raise DataFormatError(f"unsupported checkpoint version {version} at byte 4")
    meta = rd.text(rd.u32("metadata length"), "metadata")
    shapes: list[tuple[str, tuple[int, ...]]] = []
    for _ in range(rd.u32("array count")):
        name = rd.text(rd.u16("name length"), "array name")
        ndim = rd.u32("ndim")
        dims = tuple(rd.u32("dimension") for _ in range(ndim))
        shapes.append((name, dims))
    arrays: dict[str, np.ndarray] = {}
    for name, dims in shapes:
        count = math.prod(dims)  # exact: a fixed-width product can wrap
        raw = rd.take(8 * count, f"data of {name!r}")
        arrays[name] = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(dims)
    if rd.pos != len(rd.blob):
        raise DataFormatError(
            f"checkpoint has {len(rd.blob) - rd.pos} trailing bytes at byte {rd.pos}"
        )
    return arrays, meta
