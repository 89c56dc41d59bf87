"""Ingest raw IMU streams and frozen anchor embeddings into aligned windows.

File formats:
  * IMU CSV: header ``t,ax,ay,az,gx,gy,gz``; seconds, m/s^2, rad/s. Fields
    are ASCII decimals (no ``1_0``, no non-ASCII digits), parsed in one numpy
    pass; ``inf``/``nan`` are refused as non-finite, blank lines are skipped
    and errors name ``path:line``. The `ImuStream` constructor then refuses,
    naming the path, a file with no samples, timestamps that do not strictly
    increase and a span that is no finite duration, as it does any stream.
  * Anchor JSONL: ``{"window_id": str, "modality": "video"|"text", "vector": [number, ...]}``.
  * Labels JSONL: header record ``{"classes": [str, ...]}`` then
    ``{"window_id": str, "label": str}`` lines. Record fields are read by their
    JSON kind (`container.header_field`), vectors made unit a block at a time.
    Both JSONL writers refuse what their loaders refuse before they open the file.
  * Window cache: versioned binary (magic ``IMUC``, version 2): one (n, 6, T)
    float64 ``signals`` array and the header columns ``ids``, ``source_ids``,
    ``start_s`` and ``duration_s``; refuses other versions. The loader hands
    the columns to the `WindowSet` constructor, which checks every set.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np
import orjson

from .container import JSON_NAMES, checked_arrays, header_field, json_is, read_container, write_container
from .errors import CoverageError, DataError, FormatError

CSV_HEADER = "t,ax,ay,az,gx,gy,gz"
CACHE_MAGIC = b"IMUC"
CACHE_VERSION = 2

# activity-name palette for synthetic corpora; extended on demand
_ACTIVITY_NAMES = (
    "walking", "running", "biking", "hiking",
    "sitting", "standing", "jumping", "climbing",
)


class ImuStream:
    """A recording: float64 `timestamps` (n,) in seconds and `values` (n, 6), ax ay az gx gy gz.

    The constructor is the one place a stream is checked. It refuses (DataError naming `where`, by
    default ``stream <source_id>``), in this order: values not (n, 6) with n >= 1, timestamps not
    (n,), a NaN or an inf, timestamps that do not strictly increase and a span no finite duration.
    """

    def __init__(self, source_id: str, sample_rate_hz: float, timestamps, values, where=None):
        where = where or f"stream {source_id}"
        self.source_id, self.sample_rate_hz = source_id, sample_rate_hz
        self.timestamps = timestamps = np.asarray(timestamps, dtype=np.float64)
        self.values = values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != 6:
            raise DataError(f"{where}: expected (n, 6) values, got {values.shape}")
        if not len(values):
            raise DataError(f"{where}: no samples")
        if timestamps.shape != values.shape[:1]:
            raise DataError(f"{where}: expected ({len(values)},) timestamps, got {timestamps.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            total = timestamps.sum() + values.sum()  # finite only if every entry is; allocates nothing
        if not math.isfinite(total):  # a NaN, an inf, or a sum of finite entries that overflowed
            finite = np.isfinite(timestamps) & np.isfinite(values).all(axis=1)
            if not finite.all():
                raise DataError(f"{where}: non-finite value at sample index {int(np.argmin(finite))}")
        bad = np.nonzero(timestamps[1:] <= timestamps[:-1])[0]  # compared, not subtracted: no overflow
        if bad.size:
            raise DataError(f"{where}: timestamps not strictly increasing at sample index {int(bad[0]) + 1}")
        first, last = float(timestamps[0]), float(timestamps[-1])
        if not math.isfinite(last - first):  # Python floats: an overflow gives inf, not a warning
            raise DataError(f"{where}: timestamps from {first!r} to {last!r} span no finite duration")

    @property
    def n_samples(self) -> int:
        return int(self.timestamps.shape[0])

    @property
    def duration_s(self) -> float:
        return float(self.timestamps[-1] - self.timestamps[0])


@dataclass(eq=False)
class ImuWindow:
    """A plain record of one window, channel order ax ay az gx gy gz; a `WindowSet` checks its rows."""

    window_id: str
    source_id: str
    start_s: float
    duration_s: float
    signal: np.ndarray  # (6, T)

    @property
    def n_samples(self) -> int:
        return int(self.signal.shape[1])


def _refuse_non_finite(signals: np.ndarray, window_ids) -> None:
    """Refuse (n, 6, T) signals holding a NaN or an inf, naming the first such window in row order."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = signals.sum()  # finite only if every value is; allocates nothing
    if not math.isfinite(total):  # a NaN, an inf, or a sum of finite values that overflowed
        finite = np.isfinite(signals).all(axis=(1, 2))
        if not finite.all():
            raise DataError(f"window {window_ids[int(np.argmin(finite))]}: non-finite signal values")


# the window cache header's columns and its other fields, each with the JSON kind `json_is` holds it to
_COLUMNS = {"ids": list[str], "source_ids": list[str], "start_s": list[float], "duration_s": list[float]}
_CACHE_FIELDS = {"sample_rate_hz": float, "window_s": float, "stride_s": float, "content_hash": str}


class WindowSet:
    """IMU windows as columns: the lists `ids`, `source_ids`, `start_s` and
    `duration_s`, one entry per row of the float64 (n, 6, T) array `signals`.

    Indexing by int gives an `ImuWindow` whose `signal` is a view of its row,
    and so does iteration; a slice is again a set whose `signals` is a view.
    The constructor is the one place that checks a set. It refuses (`error`,
    naming `where`), in this order: `signals` that are not a float64 (n, 6, T)
    array; a column `container.json_is` does not take as a list of strings
    (ids) or numbers (times); a column of other than n entries; an empty id;
    a non-finite signal value (DataError naming the first such window); and
    a repeated id. So no set holds any of these, however it was built.
    """

    __slots__ = (*_COLUMNS, "signals")

    def __init__(self, ids: list[str], source_ids: list[str], start_s: list[float],
                 duration_s: list[float], signals: np.ndarray, where="WindowSet", error=DataError):
        if not (isinstance(signals, np.ndarray) and signals.dtype == np.float64 and signals.ndim == 3
                and signals.shape[1] == 6):
            got = f"{signals.dtype} {signals.shape}" if isinstance(signals, np.ndarray) else type(signals).__name__
            raise error(f"{where}: signals must be a float64 (n, 6, T) array, got {got}")
        columns = dict(zip(_COLUMNS, (ids, source_ids, start_s, duration_s)))
        for key, column in columns.items():
            if not json_is(column, _COLUMNS[key]):
                raise error(f"{where}: column {key!r} is not {JSON_NAMES[_COLUMNS[key]]}")
        for key, column in columns.items():
            if len(column) != len(signals):
                raise error(f"{where}: column {key!r} has {len(column)} entries for {len(signals)} signal rows")
        if "" in ids:
            raise error(f"{where}: column 'ids' holds an empty window id")
        _refuse_non_finite(signals, ids)
        if len(set(ids)) < len(ids):
            repeated = [wid for wid, n in Counter(ids).items() if n > 1]
            raise error(f"{where}: repeated window ids: {', '.join(repeated[:20])}")
        self.ids, self.source_ids, self.start_s, self.duration_s = ids, source_ids, start_s, duration_s
        self.signals = signals

    @classmethod
    def concat(cls, sets: list["WindowSet"], where="windows") -> "WindowSet":
        """The windows of `sets` in order, their signals copied into one
        C-order array; refuses mixed lengths and repeated ids (DataError
        naming `where`)."""
        sets = [s for s in sets if len(s)]  # an empty set's length is no constraint
        lens = {s.n_samples for s in sets}
        if len(lens) > 1:
            raise DataError(f"{where}: mixed window lengths {sorted(lens)}")
        # np.concatenate alone keeps the layout of transposed views; C order is written with no second copy
        signals = np.empty((sum(map(len, sets)), 6, lens.pop() if lens else 0))
        if sets:
            np.concatenate([s.signals for s in sets], out=signals)
        return cls(*([x for s in sets for x in getattr(s, key)] for key in _COLUMNS), signals, where)

    @property
    def n_samples(self) -> int:
        """T, the length every window shares."""
        return int(self.signals.shape[2])

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return WindowSet(*(getattr(self, k)[key] for k in _COLUMNS), self.signals[key])
        i = range(len(self.ids))[key]  # an int, from either end; IndexError past both
        return ImuWindow(self.ids[i], self.source_ids[i], self.start_s[i], self.duration_s[i], self.signals[i])

    def __iter__(self):
        return map(ImuWindow, self.ids, self.source_ids, self.start_s, self.duration_s, self.signals)

    def __repr__(self) -> str:
        return f"WindowSet({len(self)} windows of {self.n_samples} samples)"

    def take(self, rows) -> "WindowSet":
        """The windows at `rows`, in that order, their signals copied; a take
        of every row in order is the set itself. Refuses a row taken twice."""
        rows = list(rows)
        if rows == list(range(len(self))):
            return self
        return WindowSet(*([getattr(self, key)[i] for i in rows] for key in _COLUMNS),
                         self.signals[rows], "WindowSet.take")

    def having(self, ids) -> "WindowSet":
        """The windows whose id is in `ids` (a set or a dict), in this set's order."""
        return self.take([i for i, wid in enumerate(self.ids) if wid in ids])


@dataclass(eq=False)
class AnchorEmbedding:
    """A frozen unit-norm vector in the joint space, tagged with modality."""

    window_id: str
    modality: str  # "video" | "text"
    vector: np.ndarray

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=np.float64)


@dataclass
class ParallelDataset:
    """Aligned (IMU window, video anchor, optional text anchor, optional label)
    triples; `windows` is a `WindowSet`, so its ids are unique."""

    windows: WindowSet
    video_anchors: dict[str, AnchorEmbedding]
    text_anchors: dict[str, AnchorEmbedding] | None = None
    labels: dict[str, str] | None = None
    class_names: list[str] | None = None

    def __len__(self) -> int:
        return len(self.windows)

    def anchors(self, modality: str) -> dict[str, AnchorEmbedding]:
        if modality == "video":
            table = self.video_anchors
        elif modality == "text":
            table = self.text_anchors
        else:
            raise DataError(f"unknown modality {modality!r}")
        if table is None:
            raise DataError(f"dataset has no {modality} anchors")
        return table

    def anchor_matrix(self, ids: list[str], modality: str) -> np.ndarray:
        table = self.anchors(modality)
        return np.stack([table[i].vector for i in ids])

    def anchor_checksum(self) -> str:
        """Digest over every anchor vector; used to assert the frozen contract."""
        digest = hashlib.sha256()
        for table in (self.video_anchors, self.text_anchors or {}):
            for wid in sorted(table):
                digest.update(wid.encode())
                digest.update(table[wid].vector.tobytes())
        return digest.hexdigest()


# ---------------------------------------------------------------------------
# IMU CSV


def _parse_rows(lines: list[str]) -> np.ndarray:
    """The float64 rows of comma-separated lines in one C-level parse; ValueError
    for a field that is not an ASCII decimal, ``inf`` or ``nan``."""
    text = "\n".join(lines)
    if any(c in text for c in "\x1c\x1d\x1e\x1f"):  # float() refuses them, numpy skips them
        raise ValueError("control character U+001C..U+001F in a field")
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=np.float64)


def _first_bad_field(line: str) -> tuple[int, str]:
    """The 1-based number and the text of the first field of a line that
    `_parse_rows` refuses."""
    for k, field in enumerate(line.split(","), start=1):
        try:
            if field.strip() and _parse_rows([field]).shape == (1, 1):
                continue
        except ValueError:
            pass
        return k, field
    raise ValueError(f"every field of {line!r} parses")


def load_imu_stream(path) -> ImuStream:
    """Parse one IMU CSV in one numpy pass, naming the first bad or NaN/Inf line; the `ImuStream`
    constructor checks the rest, naming the path. The rate is the mean rate (0.0 for one sample)."""
    path = Path(path)
    # bytes that are not UTF-8 become U+FFFD, which no field parses
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise DataError(f"{path}: bad header {header!r}, expected {CSV_HEADER!r}")
        kept = [(lineno, s) for lineno, line in enumerate(fh, start=2) if (s := line.strip())]
    try:
        data = _parse_rows([s for _, s in kept]) if kept else np.empty((0, 7))
        ok = data.shape[1] == 7 and np.isfinite(data).all()
    except ValueError:
        ok = False
    for lineno, line in [] if ok else kept:  # name the first bad line
        if line.count(",") != 6:
            raise DataError(f"{path}:{lineno}: expected 7 fields, got {line.count(',') + 1}")
        try:
            row = _parse_rows([line])
        except ValueError as exc:
            k, field = _first_bad_field(line)
            raise DataError(f"{path}:{lineno}: unparseable value: field {k} is {field!r}") from exc
        if not np.isfinite(row).all():
            raise DataError(f"{path}:{lineno}: non-finite value")
    stream = ImuStream(path.stem, 0.0, data[:, 0], data[:, 1:], where=path)
    if stream.n_samples > 1:  # a checked stream's duration is finite and > 0
        stream.sample_rate_hz = (stream.n_samples - 1) / stream.duration_s
    return stream


def write_imu_stream(stream: ImuStream, path) -> None:
    """Inverse of load_imu_stream: float repr loads every stream back to the same bits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for t, row in zip(stream.timestamps, stream.values):
            fh.write(",".join(repr(float(v)) for v in (t, *row)) + "\n")


def resample(stream: ImuStream, target_hz: float) -> ImuStream:
    """Linear interpolation onto a uniform grid spanning the stream; a grid whose times repeat is refused."""
    if not 0 < target_hz < math.inf:
        raise DataError(f"resample: target_hz must be > 0 and finite, got {target_hz}")
    if stream.n_samples < 2:
        raise DataError(f"resample: stream {stream.source_id} has {stream.n_samples} sample(s), need >= 2")
    intervals = stream.duration_s * target_hz
    try:
        n = int(math.floor(intervals + 1e-9)) + 1
        grid = stream.timestamps[0] + np.arange(n) / target_hz
    except (OverflowError, ValueError, MemoryError) as exc:  # inf, or too many for numpy
        raise DataError(f"resample: stream {stream.source_id} needs {intervals + 1:.6g} samples at "
                        f"{target_hz} Hz, more than numpy can allocate") from exc
    values = np.column_stack(
        [np.interp(grid, stream.timestamps, stream.values[:, c]) for c in range(6)]
    )
    return ImuStream(stream.source_id, float(target_hz), grid, values,
                     where=f"resample: stream {stream.source_id} at {target_hz} Hz")


def make_windows(stream: ImuStream, window_s: float, stride_s: float) -> WindowSet:
    """Slice a uniform-rate stream into equal-sized windows.

    The trailing partial window is dropped; a stream shorter than one window
    yields an empty set. Window ids are ``source_id:<start sample index>``.
    """
    if not (0 < window_s < math.inf and 0 < stride_s < math.inf):
        raise DataError(f"make_windows: window_s/stride_s must be finite and > 0, got {window_s}/{stride_s}")
    hz = stream.sample_rate_hz
    if not max(window_s, stride_s) * hz < math.inf:
        raise DataError(f"make_windows: window_s/stride_s of {window_s}/{stride_s}s at {hz}Hz overflow a sample count")
    t_win = int(round(window_s * hz))
    t_stride = max(1, int(round(stride_s * hz)))
    if t_win < 1:
        raise DataError(f"make_windows: window of {window_s}s at {hz}Hz has no samples")
    starts = range(0, stream.n_samples - t_win + 1, t_stride)
    if not starts:
        return WindowSet([], [], [], [], np.empty((0, 6, 0)))
    # window k is the view values[start : start + t_win].T, so only its own samples are checked
    signals = np.lib.stride_tricks.sliding_window_view(stream.values, t_win, axis=0, writeable=True)[::t_stride]
    src = stream.source_id
    return WindowSet([f"{src}:{s}" for s in starts], [src] * len(starts), stream.timestamps[starts].tolist(),
                     [t_win / hz] * len(starts), signals)


# ---------------------------------------------------------------------------
# anchors and labels


# Two kinds of line go to json.loads: lines orjson refuses (NaN, ±Infinity, numbers past float's
# range, ints past 4,300 digits, lone surrogates, a BOM, raw control characters) and lines with more
# than 256 `[` and `{` (orjson has no depth limit and overflows the C stack). orjson reads an int
# outside [-2**63, 2**64) as float(int), json.loads as the int; no loader result tells them apart,
# as a number field takes both and no refusal quotes a number.
_ORJSON_MAX_BRACKETS = 256


def _json_value(text: str, where: str):
    """`text` parsed by orjson, or by json.loads where the two differ by more than an int's type;
    bad JSON is a DataError naming `where`."""
    try:
        if text.count("[") + text.count("{") <= _ORJSON_MAX_BRACKETS:
            return orjson.loads(text)
    except orjson.JSONDecodeError:
        pass
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, >4300-digit ints, deep nesting
        raise DataError(f"{where}: bad JSON: {exc}") from exc


def _jsonl_records(path):
    """Yield ("path:line", record) for each non-blank line; each record is a JSON object."""
    # bytes that are not UTF-8 decode to lone surrogates, so the line that holds them can be named
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    raise DataError(f"{where}: bytes that are not UTF-8") from exc
            rec = _json_value(line, where)
            if not isinstance(rec, dict):
                raise DataError(f"{where}: expected a JSON object")
            yield where, rec


# each JSONL record kind's fields, in the order they are checked, and the JSON kind `json_is` holds each to
_ANCHOR_FIELDS = {"window_id": str, "modality": str, "vector": list[float]}
_LABEL_FIELDS = {"window_id": str, "label": str}
_CLASSES_FIELDS = {"classes": list[str]}
_QUERY_FIELDS = {"vector": list[float]}
_UNIT_BLOCK = 16  # the most checked vectors made unit at once; each is a list of Python floats until then


def _fields(rec: dict, kinds: dict, where: str) -> list:
    """The values of `rec`'s fields `kinds`, each refused (DataError naming `where`) unless of its kind."""
    return [header_field(where, rec, key, kind, DataError) for key, kind in kinds.items()]


def _check_record_id(wid: str, seen, where: str) -> None:
    """A JSONL record's window_id string: non-empty and not seen before in its file."""
    if wid == "":
        raise DataError(f"{where}: window_id must be a non-empty string, got ''")
    if wid in seen:
        raise DataError(f"{where}: duplicate window_id {wid!r}")


def _nonzero(vector: list, where: str) -> list:
    """A record's vector, refused if every entry is 0, as no norm scales it to unit length."""
    if not any(vector):
        raise DataError(f"{where}: vector of norm 0.0 cannot be scaled to unit length")
    return vector


def _unit_rows(vectors: list[list]) -> np.ndarray:
    """The float64 rows of `vectors` (lists of one length of finite numbers, not all 0), each made
    unit. A row has the bits of ``v / max|v|`` divided by `np.linalg.norm` of that: the peak keeps
    squares near 1e308 or 1e-162 from overflowing or underflowing, the divisions are entry by
    entry, and a 1-D `np.linalg.norm` is ``sqrt(v.dot(v))``, while `np.vecdot` calls the same dot
    kernel on each row (BLAS ddot, as each row is contiguous), so each sums its squares alike."""
    rows = np.array(vectors, dtype=np.float64)
    rows /= np.max(np.abs(rows), axis=1, keepdims=True)
    rows /= np.sqrt(np.vecdot(rows, rows))[:, None]
    return rows


def _anchor_fields(records, modality: str | None):
    """(window_id, modality, vector) of each ("where", record) pair; refuses what an anchor file
    may not hold, or a record not of `modality` if given."""
    seen, dim = set(), None
    for where, rec in records:
        wid, kind, vector = _fields(rec, _ANCHOR_FIELDS, where)
        _check_record_id(wid, seen, where)
        seen.add(wid)
        if kind not in ("video", "text"):
            raise DataError(f"{where}: unknown modality {kind!r}")
        if modality is not None and kind != modality:
            raise DataError(f"{where}: expected a {modality} anchor, got modality {kind!r}")
        _nonzero(vector, where)
        dim = dim or len(vector)  # the first record's length, never 0
        if len(vector) != dim:
            raise DataError(f"{where}: vector dim {len(vector)} != file dim {dim}")
        yield wid, kind, vector


def _checked_anchors(records, modality: str | None = None) -> dict[str, AnchorEmbedding]:
    """The anchors of ("where", record) pairs by id, their vectors made unit a block at a time."""
    checked, out = _anchor_fields(records, modality), {}
    while block := list(islice(checked, _UNIT_BLOCK)):
        rows = _unit_rows([vector for _, _, vector in block])
        out.update((wid, AnchorEmbedding(wid, kind, row)) for (wid, kind, _), row in zip(block, rows))
    return out


def load_anchor_embeddings(path, modality: str | None = None) -> dict[str, AnchorEmbedding]:
    """Load a JSONL anchor file; vectors are re-normalized to unit length.
    Given a `modality`, a record of any other modality is refused."""
    path = Path(path)
    out = _checked_anchors(_jsonl_records(path), modality)
    if not out:
        raise DataError(f"{path}: no anchor records")
    return out


def load_query_vector(value: str) -> np.ndarray:
    """The unit vector of an inline JSON anchor record, or of the first record
    of the JSONL file at path `value`."""
    if value.strip().startswith("{"):  # so a record that parses is an object
        source, rec = "--query-anchor", _json_value(value, "--query-anchor")
    else:
        source, rec = next(_jsonl_records(value), (value, None))
        if rec is None:
            raise DataError(f"{value}: empty query file")
    (vector,) = _fields(rec, _QUERY_FIELDS, source)
    return _unit_rows([_nonzero(vector, source)])[0]


def write_anchor_embeddings(anchors: dict[str, AnchorEmbedding], path) -> None:
    """Write `anchors` in key order; refuses (before the file is opened) what
    `load_anchor_embeddings` would refuse, naming the line it would be on."""
    kept = [anchors[wid] for wid in sorted(anchors)]

    def records():  # made once to check and once to write, so no file's lists are held whole
        return ({"window_id": a.window_id, "modality": a.modality, "vector": a.vector.tolist()} for a in kept)

    _checked_anchors((f"{path}:{line}", rec) for line, rec in enumerate(records(), start=1))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(json.dumps(rec) + "\n" for rec in records())


def _checked_labels(records, path) -> tuple[dict[str, str], list[str]]:
    """The labels and classes of ("where", record) pairs; refuses a record that
    the labels file `path` may not hold."""
    labels: dict[str, str] = {}
    class_names: list[str] | None = None
    for where, rec in records:
        if "classes" in rec:
            if class_names is not None:
                raise DataError(f"{where}: duplicate classes header")
            (class_names,) = _fields(rec, _CLASSES_FIELDS, where)
            repeated = [c for c, n in Counter(class_names).items() if n > 1]
            if repeated:
                raise DataError(f"{where}: class {repeated[0]!r} declared twice")
            continue
        if class_names is None:
            raise DataError(f"{where}: label record before classes header")
        wid, label = _fields(rec, _LABEL_FIELDS, where)
        _check_record_id(wid, labels, where)
        if label not in class_names:
            raise DataError(f"{where}: label {label!r} not in declared classes")
        labels[wid] = label
    if class_names is None:
        raise DataError(f"{path}: missing classes header")
    return labels, class_names


def load_labels(path) -> tuple[dict[str, str], list[str]]:
    """Read a labels JSONL: a header ``{"classes": [...]}`` plus id/label rows."""
    return _checked_labels(_jsonl_records(path), path)


def write_labels(labels: dict[str, str], class_names: list[str], path) -> None:
    """Write the classes header, then `labels` in id order; refuses (before the
    file is opened) what `load_labels` would refuse, naming the line it would be on."""
    records = [{"classes": list(class_names)}, *({"window_id": wid, "label": labels[wid]} for wid in sorted(labels))]
    _checked_labels(((f"{path}:{line}", rec) for line, rec in enumerate(records, start=1)), path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(json.dumps(rec) + "\n" for rec in records)


def assemble_dataset(
    windows: WindowSet,
    video_anchor_path,
    text_anchor_path=None,
    labels_path=None,
    coverage_threshold: float = 1.0,
) -> tuple[ParallelDataset, list[str]]:
    """Join a window set with anchor/label files into a validated dataset,
    its windows in id order.

    Returns the dataset plus the ids dropped for missing anchors. Coverage
    below `coverage_threshold` (fraction of windows with every requested
    anchor) raises CoverageError listing the missing ids.
    """
    if not 0 <= coverage_threshold <= 1:
        raise DataError(f"assemble_dataset: coverage threshold must be in [0, 1], got {coverage_threshold}")
    if not len(windows):
        raise DataError("assemble_dataset: no windows")
    video = load_anchor_embeddings(video_anchor_path, "video")
    text = load_anchor_embeddings(text_anchor_path, "text") if text_anchor_path else None

    kept, missing_ids = [], []
    for i in sorted(range(len(windows)), key=windows.ids.__getitem__):
        wid = windows.ids[i]
        if wid in video and (text is None or wid in text):
            kept.append(i)
        else:
            missing_ids.append(wid)
    coverage = len(kept) / len(windows)
    if coverage < coverage_threshold:
        raise CoverageError(
            f"anchor coverage {coverage:.3f} below threshold {coverage_threshold:.3f}; "
            f"missing ids: {', '.join(missing_ids[:20])}",
            missing_ids,
        )
    kept = windows.take(kept)

    labels = class_names = None
    if labels_path is not None:
        labels, class_names = load_labels(labels_path)
        labels = {wid: labels[wid] for wid in kept.ids if wid in labels}

    kept_ids = set(kept.ids)
    dataset = ParallelDataset(
        windows=kept,
        video_anchors={k: v for k, v in video.items() if k in kept_ids},
        text_anchors=None if text is None else {k: v for k, v in text.items() if k in kept_ids},
        labels=labels,
        class_names=class_names,
    )
    return dataset, missing_ids


# ---------------------------------------------------------------------------
# window cache


@dataclass
class WindowCache:
    """A window set and the sizes it was cut with; `load_window_cache` reads
    what `save_window_cache` writes."""

    windows: WindowSet
    sample_rate_hz: float
    window_s: float
    stride_s: float
    content_hash: str = ""


def save_window_cache(cache: WindowCache, path) -> None:
    """Write `cache`, refusing first (DataError) a size that `load_window_cache` would refuse."""
    header = {"kind": "window-cache", **{key: getattr(cache, key) for key in _CACHE_FIELDS},
              **{key: getattr(cache.windows, key) for key in _COLUMNS}}
    for key, kind in _CACHE_FIELDS.items():
        header_field(path, header, key, kind, DataError)
    write_container(path, CACHE_MAGIC, CACHE_VERSION, header, [("signals", cache.windows.signals)])


def load_window_cache(path) -> WindowCache:
    header, arrays = read_container(path, CACHE_MAGIC, CACHE_VERSION)
    signals = checked_arrays(path, arrays, {"signals": (None, 6, None)})["signals"]
    windows = WindowSet(*(header.get(key) for key in _COLUMNS), signals, where=path, error=FormatError)
    return WindowCache(windows, *(header_field(path, header, key, kind) for key, kind in _CACHE_FIELDS.items()))


# ---------------------------------------------------------------------------
# synthetic corpus


def activity_names(n_classes: int) -> list[str]:
    names = list(_ACTIVITY_NAMES[:n_classes])
    names += [f"activity-{i}" for i in range(len(names), n_classes)]
    return names


def _class_centroids(rng: np.random.Generator, n_classes: int, dim: int) -> np.ndarray:
    c = rng.standard_normal((n_classes, dim))
    return c / np.linalg.norm(c, axis=1, keepdims=True)


def synth_class_anchors(seed: int, n_classes: int, dim: int) -> dict[str, np.ndarray]:
    """Unit class centroids, keyed by activity name; the same centroids seed
    every anchor drawn by synth_dataset with this seed.
    """
    centroids = _class_centroids(np.random.default_rng(seed), n_classes, dim)
    return {name: centroids[i] for i, name in enumerate(activity_names(n_classes))}


def synth_window_signal(
    rng: np.random.Generator, class_index: int, n_samples: int
) -> np.ndarray:
    """One 6-channel window with a class-specific frequency/amplitude
    signature plus per-window random phases and two detail harmonics that
    fingerprint the individual window.
    """
    tau = np.arange(n_samples) / n_samples
    base_freq = 1.0 + 0.9 * class_index
    amp = 0.8 + 0.3 * class_index
    phase = rng.uniform(0.0, 2.0 * np.pi)
    detail_freq = rng.uniform(3.0, 7.0)
    detail_phase = rng.uniform(0.0, 2.0 * np.pi)
    fine_freq = rng.uniform(9.0, 18.0)
    fine_phase = rng.uniform(0.0, 2.0 * np.pi)
    sig = np.empty((6, n_samples))
    for ch in range(6):
        carrier = base_freq * (1.0 if ch < 3 else 1.5)
        sig[ch] = amp * np.sin(2.0 * np.pi * (carrier * tau) + phase + ch * np.pi / 3.0)
        sig[ch] += 0.45 * np.sin(2.0 * np.pi * detail_freq * tau + detail_phase + ch)
        sig[ch] += 0.30 * np.sin(2.0 * np.pi * fine_freq * tau + fine_phase + 1.7 * ch)
    return sig


def synth_dataset(
    seed: int,
    n_windows: int,
    n_classes: int,
    dim: int,
    n_samples: int,
    noise: float,
    sample_rate_hz: float = 200.0,
) -> ParallelDataset:
    """Deterministic class-conditioned fixture corpus.

    Classes are assigned round-robin. Video and text anchors of one window
    share its class centroid: anchor = normalize(centroid + noise * gauss),
    so the two anchor modalities are correlated through the centroids.
    """
    if n_classes < 1 or n_windows < n_classes:
        raise DataError(f"synth_dataset: need n_windows >= n_classes >= 1, got {n_windows}/{n_classes}")
    if min(seed, n_samples - 1, dim - 1) < 0 or not (0 <= noise < math.inf and 0 < sample_rate_hz < math.inf):
        raise DataError(f"synth_dataset: need seed >= 0, n_samples >= 1, dim >= 1, noise finite and >= 0, "
                        f"sample_rate_hz finite and > 0; got {seed}, {n_samples}, {dim}, {noise}, "
                        f"{sample_rate_hz}")
    rng = np.random.default_rng(seed)
    names = activity_names(n_classes)

    sources = [f"synth-{w:04d}" for w in range(n_windows)]
    ids = [f"{source}:0" for source in sources]
    video, text, labels = {}, {}, {}
    try:
        with np.errstate(over="ignore"):  # a noise that overflows an anchor is refused below
            centroids = _class_centroids(rng, n_classes, dim)
            signals = np.empty((n_windows, 6, n_samples))
            for w, wid in enumerate(ids):
                cls = w % n_classes
                signals[w] = synth_window_signal(rng, cls, n_samples)
                for modality, table in (("video", video), ("text", text)):
                    vec = centroids[cls] + noise * rng.standard_normal(dim)
                    norm = np.linalg.norm(vec)
                    if not 0 < norm < math.inf:
                        raise DataError(f"synth_dataset: noise {noise} gives an anchor of norm {norm}")
                    table[wid] = AnchorEmbedding(wid, modality, vec / norm)
                labels[wid] = names[cls]
    except (MemoryError, ValueError, OverflowError) as exc:  # sizes too large for numpy
        raise DataError(f"synth_dataset: {n_windows} windows of {n_samples} samples and {dim}-d anchors "
                        f"do not fit in memory: {exc}") from exc
    windows = WindowSet(ids, sources, [0.0] * n_windows, [n_samples / sample_rate_hz] * n_windows, signals)
    return ParallelDataset(windows, video, text, labels, names)

