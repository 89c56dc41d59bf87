"""Versioned binary container used by the window cache and checkpoints.

Layout: 4-byte magic, 1 version byte, 8-byte little-endian header length,
UTF-8 JSON header, then the raw float64 payload of every array in header
order. Serialization is fully deterministic (sorted JSON keys, C-order
buffers), so save -> load -> save round-trips bit-exactly.
"""

from __future__ import annotations

import json
import math
import os
import struct
import threading
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
    # write-then-rename via a temp file per process and thread keeps concurrent
    # writers exclusive per path and readers from ever seeing a partial file
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}-{threading.get_ident()}")
    try:
        with open(tmp, "wb") as fh:
            fh.write(magic)
            fh.write(bytes([version]))
            fh.write(_LEN.pack(len(blob)))
            fh.write(blob)
            for _, a in arrays:
                fh.write(np.ascontiguousarray(a, dtype=np.float64).tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _valid_array_meta(meta) -> bool:
    """An `arrays` entry: an object with a string name and a shape that is a
    list of non-negative integers."""
    return (isinstance(meta, dict) and isinstance(meta.get("name"), str)
            and isinstance(meta.get("shape"), list)
            and all(type(d) is int and d >= 0 for d in meta["shape"]))


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
    metas = header.get("arrays", [])
    if not isinstance(metas, list) or not all(map(_valid_array_meta, metas)):
        raise FormatError(f"{path}: malformed arrays metadata in header")
    arrays: dict[str, np.ndarray] = {}
    offset = 13 + hlen
    for meta in metas:
        name, shape = meta["name"], meta["shape"]
        if name in arrays:
            raise FormatError(f"{path}: malformed arrays metadata in header: array {name!r} repeated")
        nbytes = math.prod(shape) * 8
        if offset + nbytes > len(raw):
            raise FormatError(f"{path}: truncated payload for array {name!r}")
        values = np.frombuffer(raw, dtype="<f8", count=nbytes // 8, offset=offset)
        try:
            arrays[name] = values.reshape(shape).copy()
        except ValueError as exc:  # an empty array with a dimension numpy cannot hold
            raise FormatError(f"{path}: array {name!r} has unsupported shape {shape}") from exc
        offset += nbytes
    if offset != len(raw):
        raise FormatError(f"{path}: {len(raw) - offset} trailing bytes after payload")
    return header, arrays
