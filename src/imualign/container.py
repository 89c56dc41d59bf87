"""Versioned binary container used by the window cache and checkpoints.

Layout: 4-byte magic, 1 version byte, 8-byte little-endian header length,
UTF-8 JSON header, then the raw float64 payload of every array in header
order. Serialization is fully deterministic (sorted JSON keys, C-order
buffers), so save -> load -> save round-trips bit-exactly.

`read_container` checks that structure; each loader then declares its arrays
(`checked_arrays`) and its header fields' JSON types (`header_field`, `header_config`).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
import threading
from pathlib import Path

import numpy as np

from .errors import DataError, FormatError

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
    """An `arrays` entry: an object with a string name and a list of non-negative int sizes."""
    return (type(meta) is dict and json_is(meta.get("name"), str)
            and json_is(meta.get("shape"), list[int]) and min(meta["shape"], default=0) >= 0)


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
    except (ValueError, RecursionError) as exc:  # also ints past 4,300 digits and deep nesting
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


_JSON_NAMES = {int: "an integer", float: "a number", str: "a string", list: "a list", dict: "an object"}


def json_is(value, kind) -> bool:
    """Whether parsed JSON is a `kind` or ``list[kind]``; a bool is never a number, an int is a float."""
    if type(kind) is type:
        return type(value) is kind or (kind is float and type(value) is int)
    return type(value) is list and all(json_is(v, kind.__args__[0]) for v in value)


def header_field(path, header: dict, key: str, kind):
    """``header[key]``, refused with `FormatError` unless it is a JSON `kind`."""
    if not json_is(header.get(key), kind):
        name = _JSON_NAMES.get(kind) or f"a list of {_JSON_NAMES[kind.__args__[0]].split()[1]}s"
        raise FormatError(f"{path}: header field {key!r} is missing or not {name}")
    return header[key]


def header_config(path, header: dict, key: str, cls):
    """``header[key]`` as dataclass `cls`: exactly its fields, each of its default's JSON type."""
    record, fields = header_field(path, header, key, dict), dataclasses.fields(cls)
    if record.keys() != {f.name for f in fields}:
        raise FormatError(f"{path}: {key} has fields {sorted(record)}, expected {sorted(f.name for f in fields)}")
    for f in fields:
        header_field(f"{path}: {key}", record, f.name,
                     list[type(f.default[0])] if isinstance(f.default, tuple) else type(f.default))
    try:
        return cls(**record)
    except DataError as exc:
        raise FormatError(f"{path}: {key}: {exc}") from exc


def checked_arrays(path, arrays: dict[str, np.ndarray], shapes: dict[str, tuple]) -> dict[str, np.ndarray]:
    """`arrays`, unless they are not exactly `shapes`' names, ranks and sizes (``None``: any)."""
    missing, extra = sorted(shapes.keys() - arrays.keys()), sorted(arrays.keys() - shapes.keys())
    if missing or extra:
        raise FormatError(f"{path}: missing arrays {missing}, unexpected arrays {extra}")
    for name, shape in shapes.items():
        got = arrays[name].shape
        if len(got) != len(shape) or any(d is not None and g != d for g, d in zip(got, shape)):
            raise FormatError(f"{path}: array {name!r} has shape {got}, expected {shape}")
    return arrays
