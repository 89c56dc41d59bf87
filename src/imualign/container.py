"""Versioned binary container used by the window cache and checkpoints.

Layout: 4-byte magic, 1 version byte, 8-byte little-endian header length,
UTF-8 JSON header, then the raw float64 payload of every array in header
order. Serialization is fully deterministic (sorted JSON keys, C-order
buffers), so save -> load -> save round-trips bit-exactly.

`read_container` checks that structure as it reads: the prefix and the
header first, then each array, whose size is checked against the file's
size before it is allocated and read from the file straight into its own
buffer. The file is never held whole, so each payload byte is copied once.
A pipe has no size to check against and is read whole first. Each loader
then declares its arrays (`checked_arrays`) and its header fields' JSON
types (`header_field`, `header_config`).
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import os
import stat
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
                fh.write(np.ascontiguousarray(a, dtype=np.float64).data)  # the buffer itself, no bytes copy
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
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode):
            return _parse(path, fh, info.st_size, magic, version)
        raw = fh.read()  # a pipe has no size to check against before it is read
    return _parse(path, io.BytesIO(raw), len(raw), magic, version)


def _parse(path: Path, fh, size: int, magic: bytes, version: int) -> tuple[dict, dict[str, np.ndarray]]:
    """The container in `fh`, positioned at its start and `size` bytes long."""
    prefix = fh.read(13)
    if len(prefix) < 13:
        raise FormatError(f"{path}: truncated container (only {len(prefix)} bytes)")
    if prefix[:4] != magic:
        raise FormatError(f"{path}: bad magic {prefix[:4]!r}, expected {magic!r}")
    if prefix[4] != version:
        raise FormatError(f"{path}: format version {prefix[4]} unsupported (expected {version})")
    (hlen,) = _LEN.unpack(prefix[5:13])
    if 13 + hlen > size or len(blob := fh.read(hlen)) < hlen:
        raise FormatError(f"{path}: truncated header ({hlen} bytes declared)")
    try:
        header = json.loads(blob.decode("utf-8"))
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
        if offset + nbytes > size:  # checked before anything is allocated from the header's sizes
            raise FormatError(f"{path}: truncated payload for array {name!r}")
        try:
            values = np.empty(shape, dtype="<f8")
        except ValueError as exc:  # an empty array with a dimension numpy cannot hold
            raise FormatError(f"{path}: array {name!r} has unsupported shape {shape}") from exc
        if fh.readinto(values.data) < nbytes:  # the file shrank since its size was taken
            raise FormatError(f"{path}: truncated payload for array {name!r}")
        arrays[name] = values
        offset += nbytes
    if offset != size:
        raise FormatError(f"{path}: {size - offset} trailing bytes after payload")
    return header, arrays


_JSON_NAMES = {int: "an integer", float: "a number", str: "a string", list: "a list", dict: "an object"}


def _python_types(kind) -> set:
    """The Python types of parsed JSON that count as a `kind`."""
    return {float, int} if kind is float else {kind}


def json_is(value, kind) -> bool:
    """Whether parsed JSON is a `kind` or ``list[kind]``; a bool is never a number, an int is a float."""
    if type(kind) is type:
        return type(value) in _python_types(kind)
    return type(value) is list and set(map(type, value)) <= _python_types(kind.__args__[0])  # one C pass


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
