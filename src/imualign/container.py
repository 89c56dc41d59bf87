"""Versioned binary container used by the window cache and checkpoints.

Layout: 4-byte magic, 1 version byte, 8-byte little-endian header length,
UTF-8 JSON header, then the raw float64 payload of every array in header
order. Serialization is fully deterministic (sorted JSON keys, C-order
buffers), so save -> load -> save round-trips bit-exactly.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError

_LEN = struct.Struct("<Q")


def write_container(
    path, magic: bytes, version: int, header: dict, arrays: list[tuple[str, np.ndarray]]
) -> None:
    if len(magic) != 4:
        raise ValueError("magic must be 4 bytes")
    header = dict(header)
    header["arrays"] = [{"name": n, "shape": list(a.shape)} for n, a in arrays]
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    # write-then-rename keeps concurrent writers exclusive per path and
    # readers from ever seeing a partial file
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    with open(tmp, "wb") as fh:
        fh.write(magic)
        fh.write(bytes([version]))
        fh.write(_LEN.pack(len(blob)))
        fh.write(blob)
        for _, a in arrays:
            fh.write(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    os.replace(tmp, path)


def read_container(path, magic: bytes, version: int) -> tuple[dict, dict[str, np.ndarray]]:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 13:
        raise FormatError(f"{path}: truncated container (only {len(raw)} bytes)")
    if raw[:4] != magic:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}, expected {magic!r}")
    if raw[4] != version:
        raise FormatError(f"{path}: format version {raw[4]} unsupported (expected {version})")
    (hlen,) = _LEN.unpack(raw[5:13])
    if 13 + hlen > len(raw):
        raise FormatError(f"{path}: truncated header ({hlen} bytes declared)")
    try:
        header = json.loads(raw[13 : 13 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header is not a JSON object")
    arrays: dict[str, np.ndarray] = {}
    offset = 13 + hlen
    for meta in header.get("arrays", []):
        shape = tuple(int(s) for s in meta["shape"])
        nbytes = int(np.prod(shape, dtype=np.int64)) * 8
        if offset + nbytes > len(raw):
            raise FormatError(f"{path}: truncated payload for array {meta['name']!r}")
        arrays[meta["name"]] = np.frombuffer(
            raw, dtype="<f8", count=nbytes // 8, offset=offset
        ).reshape(shape).copy()
        offset += nbytes
    if offset != len(raw):
        raise FormatError(f"{path}: {len(raw) - offset} trailing bytes after payload")
    return header, arrays
