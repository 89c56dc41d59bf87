"""Ingest raw IMU streams and frozen anchor embeddings into aligned windows.

File formats:
  * IMU CSV: header ``t,ax,ay,az,gx,gy,gz``; seconds, m/s^2, rad/s. Fields
    are ASCII decimals (no ``1_0``, no non-ASCII digits), parsed in one numpy
    pass; ``inf``/``nan`` are refused as non-finite, blank lines are skipped
    and errors name ``path:line``.
  * Anchor JSONL: ``{"window_id": str, "modality": "video"|"text", "vector": [...]}``.
  * Labels JSONL: header record ``{"classes": [...]}`` then
    ``{"window_id": str, "label": str}`` lines.
  * Window cache: versioned binary (magic ``IMUC``, version 2): one (n, 6, T)
    float64 ``signals`` array and the header columns ``ids``, ``source_ids``,
    ``start_s`` and ``duration_s``; refuses other versions.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .container import checked_arrays, header_field, read_container, write_container
from .errors import CoverageError, DataError, FormatError

CSV_HEADER = "t,ax,ay,az,gx,gy,gz"
CACHE_MAGIC = b"IMUC"
CACHE_VERSION = 2

# activity-name palette for synthetic corpora; extended on demand
_ACTIVITY_NAMES = (
    "walking", "running", "biking", "hiking",
    "sitting", "standing", "jumping", "climbing",
)


@dataclass
class ImuStream:
    """A time-ordered 6-channel sensor recording."""

    source_id: str
    sample_rate_hz: float
    timestamps: np.ndarray  # (n,)
    values: np.ndarray  # (n, 6): ax ay az gx gy gz

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[1] != 6:
            raise DataError(f"stream {self.source_id}: expected (n, 6) values, got {self.values.shape}")
        if self.timestamps.shape[0] != self.values.shape[0]:
            raise DataError(f"stream {self.source_id}: {self.timestamps.shape[0]} timestamps vs {self.values.shape[0]} rows")

    @property
    def n_samples(self) -> int:
        return int(self.timestamps.shape[0])

    @property
    def duration_s(self) -> float:
        if self.n_samples < 2:
            return 0.0
        return float(self.timestamps[-1] - self.timestamps[0])


@dataclass
class ImuWindow:
    """A fixed-duration slice of a stream; channel order ax ay az gx gy gz."""

    window_id: str
    source_id: str
    start_s: float
    duration_s: float
    signal: np.ndarray  # (6, T)

    def __post_init__(self):
        self.signal = np.asarray(self.signal, dtype=np.float64)
        if self.signal.ndim != 2 or self.signal.shape[0] != 6:
            raise DataError(f"window {self.window_id}: expected (6, T) signal, got {self.signal.shape}")
        _refuse_non_finite(self.signal[None], [self.window_id])

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


def _refuse_repeated_ids(ids: list[str], where, error=DataError) -> None:
    if len(set(ids)) < len(ids):
        repeated = [wid for wid, n in Counter(ids).items() if n > 1]
        raise error(f"{where}: repeated window ids: {', '.join(repeated[:20])}")


def _window(window_id, source_id, start_s, duration_s, signal) -> ImuWindow:
    """An `ImuWindow` of fields as given: its set checked them, so it skips `__post_init__`."""
    w = object.__new__(ImuWindow)
    w.__dict__ = {"window_id": window_id, "source_id": source_id, "start_s": start_s,
                  "duration_s": duration_s, "signal": signal}
    return w


class WindowSet:
    """IMU windows as columns: the lists `ids`, `source_ids`, `start_s` and
    `duration_s`, one entry per row of the float64 (n, 6, T) array `signals`.

    Indexing by int gives an `ImuWindow` whose `signal` is a view of its row,
    and so does iteration; a slice is again a set whose `signals` is a view.
    The constructor takes its columns as given. `make_windows`,
    `load_window_cache`, `of`, `concat` and `take` refuse repeated ids, and
    the first two non-finite signals (an `ImuWindow` checks its own when
    built), so a slice needs no check.
    """

    __slots__ = ("ids", "source_ids", "start_s", "duration_s", "signals")

    def __init__(self, ids: list[str], source_ids: list[str], start_s: list[float],
                 duration_s: list[float], signals: np.ndarray):
        self.ids, self.source_ids, self.start_s, self.duration_s = ids, source_ids, start_s, duration_s
        self.signals = signals

    @classmethod
    def of(cls, windows, where="windows") -> "WindowSet":
        """`windows` if it is a set; else a set of the `ImuWindow`s it yields,
        in order (see `concat`). Each `ImuWindow` checked its own signal when
        it was built."""
        if isinstance(windows, WindowSet):
            return windows
        return cls.concat([cls([w.window_id], [w.source_id], [w.start_s], [w.duration_s], w.signal[None])
                           for w in windows], where)

    @classmethod
    def concat(cls, sets: list["WindowSet"], where="windows") -> "WindowSet":
        """The windows of `sets` in order, their signals copied into one
        C-order array; refuses repeated ids and mixed lengths (DataError
        naming `where`)."""
        sets = [s for s in sets if len(s)]  # an empty set's length is no constraint
        ids = [wid for s in sets for wid in s.ids]
        _refuse_repeated_ids(ids, where)
        lens = {s.n_samples for s in sets}
        if len(lens) > 1:
            raise DataError(f"{where}: mixed window lengths {sorted(lens)}")
        # np.concatenate alone keeps the layout of transposed views; C order is written with no second copy
        signals = np.empty((len(ids), 6, lens.pop() if lens else 0))
        if sets:
            np.concatenate([s.signals for s in sets], out=signals)
        return cls(ids, [x for s in sets for x in s.source_ids], [x for s in sets for x in s.start_s],
                   [x for s in sets for x in s.duration_s], signals)

    @property
    def n_samples(self) -> int:
        """T, the length every window shares."""
        return int(self.signals.shape[2])

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return WindowSet(self.ids[key], self.source_ids[key], self.start_s[key], self.duration_s[key],
                             self.signals[key])
        i = range(len(self.ids))[key]  # an int, from either end; IndexError past both
        return _window(self.ids[i], self.source_ids[i], self.start_s[i], self.duration_s[i], self.signals[i])

    def __iter__(self):
        return map(_window, self.ids, self.source_ids, self.start_s, self.duration_s, self.signals)

    def __repr__(self) -> str:
        return f"WindowSet({len(self)} windows of {self.n_samples} samples)"

    def take(self, rows) -> "WindowSet":
        """The windows at `rows`, in that order, their signals copied; a take
        of every row in order is the set itself. Refuses a row taken twice."""
        rows = list(rows)
        if rows == list(range(len(self))):
            return self
        ids = [self.ids[i] for i in rows]
        _refuse_repeated_ids(ids, "WindowSet.take")
        return WindowSet(ids, [self.source_ids[i] for i in rows], [self.start_s[i] for i in rows],
                         [self.duration_s[i] for i in rows], self.signals[rows])

    def having(self, ids) -> "WindowSet":
        """The windows whose id is in `ids` (a set or a dict), in this set's order."""
        return self.take([i for i, wid in enumerate(self.ids) if wid in ids])


@dataclass
class AnchorEmbedding:
    """A frozen unit-norm vector in the joint space, tagged with modality."""

    window_id: str
    modality: str  # "video" | "text"
    vector: np.ndarray

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=np.float64)


@dataclass
class ParallelDataset:
    """Aligned (IMU window, video anchor, optional text anchor, optional label) triples."""

    windows: WindowSet  # or ImuWindows, which `WindowSet.of` makes one set
    video_anchors: dict[str, AnchorEmbedding]
    text_anchors: dict[str, AnchorEmbedding] | None = None
    labels: dict[str, str] | None = None
    class_names: list[str] | None = None

    def __post_init__(self):
        self.windows = WindowSet.of(self.windows, "ParallelDataset")

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
    """Parse and validate one IMU CSV in one numpy pass; a bad or NaN/Inf row is
    then found line by line and named, and timestamps must strictly increase."""
    path = Path(path)
    # bytes that are not UTF-8 become U+FFFD, which no field parses
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise DataError(f"{path}: bad header {header!r}, expected {CSV_HEADER!r}")
        kept = [(lineno, s) for lineno, line in enumerate(fh, start=2) if (s := line.strip())]
    if not kept:
        raise DataError(f"{path}: no samples")
    try:
        data = _parse_rows([s for _, s in kept])
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
    ts = data[:, 0]
    bad = np.nonzero(ts[1:] <= ts[:-1])[0]  # compared, not subtracted: no overflow
    if bad.size:
        raise DataError(f"{path}: timestamps not strictly increasing at sample index {int(bad[0]) + 1}")
    first, last = float(ts[0]), float(ts[-1])
    span = last - first  # Python floats: an overflow gives inf, not a warning
    if not math.isfinite(span):
        raise DataError(f"{path}: timestamps from {first!r} to {last!r} span no finite duration")
    rate = (len(ts) - 1) / span if len(ts) > 1 else 0.0
    return ImuStream(source_id=path.stem, sample_rate_hz=float(rate), timestamps=ts, values=data[:, 1:])


def write_imu_stream(stream: ImuStream, path) -> None:
    """Inverse of load_imu_stream; float repr keeps the round trip exact."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for t, row in zip(stream.timestamps, stream.values):
            fh.write(",".join(repr(float(v)) for v in (t, *row)) + "\n")


def resample(stream: ImuStream, target_hz: float) -> ImuStream:
    """Linear interpolation onto a uniform grid spanning the stream."""
    if not 0 < target_hz < math.inf:
        raise DataError(f"resample: target_hz must be > 0 and finite, got {target_hz}")
    if stream.n_samples < 2:
        raise DataError(f"resample: stream {stream.source_id} has {stream.n_samples} sample(s), need >= 2")
    t0, t1 = float(stream.timestamps[0]), float(stream.timestamps[-1])
    intervals = (t1 - t0) * target_hz
    try:
        n = int(math.floor(intervals + 1e-9)) + 1
        grid = t0 + np.arange(n) / target_hz
    except (OverflowError, ValueError, MemoryError) as exc:  # inf or nan, or too many for numpy
        raise DataError(f"resample: stream {stream.source_id} needs {intervals + 1:.6g} samples at "
                        f"{target_hz} Hz, more than numpy can allocate") from exc
    values = np.column_stack(
        [np.interp(grid, stream.timestamps, stream.values[:, c]) for c in range(6)]
    )
    return ImuStream(stream.source_id, float(target_hz), grid, values)


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
        return WindowSet.of([])
    # window k is the view values[start : start + t_win].T, so only its own samples are checked
    signals = np.lib.stride_tricks.sliding_window_view(stream.values, t_win, axis=0, writeable=True)[::t_stride]
    src = stream.source_id
    ids = [f"{src}:{s}" for s in starts]
    _refuse_non_finite(signals, ids)
    return WindowSet(ids, [src] * len(starts), stream.timestamps[starts].tolist(), [t_win / hz] * len(starts),
                     signals)


# ---------------------------------------------------------------------------
# anchors and labels


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
            try:
                rec = json.loads(line)
            except (ValueError, RecursionError) as exc:  # bad syntax, >4300-digit ints, deep nesting
                raise DataError(f"{where}: bad JSON: {exc}") from exc
            if not isinstance(rec, dict):
                raise DataError(f"{where}: expected a JSON object, got {type(rec).__name__}")
            yield where, rec


def _unit_vector(value, where: str) -> np.ndarray:
    """A record's vector: finite, 1-D float64, divided by its norm."""
    try:
        vec = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{where}: vector is not numeric: {exc}") from exc
    if vec.ndim != 1:
        raise DataError(f"{where}: vector must be 1-D")
    if not np.all(np.isfinite(vec)):
        raise DataError(f"{where}: non-finite vector component")
    peak = float(np.max(np.abs(vec), initial=0.0))
    if peak == 0.0:
        raise DataError(f"{where}: vector of norm 0.0 cannot be scaled to unit length")
    vec = vec / peak  # the squared norm of components near 1e308 or 1e-162 would overflow or underflow
    return vec / np.linalg.norm(vec)


def _check_record_id(wid, seen, where: str) -> None:
    """A JSONL record's window_id: a non-empty string not seen before in its file."""
    if not isinstance(wid, str) or wid == "":
        raise DataError(f"{where}: window_id must be a non-empty string, got {wid!r}")
    if wid in seen:
        raise DataError(f"{where}: duplicate window_id {wid!r}")


def load_anchor_embeddings(path, modality: str | None = None) -> dict[str, AnchorEmbedding]:
    """Load a JSONL anchor file; vectors are re-normalized to unit length.
    Given a `modality`, a record of any other modality is refused."""
    path = Path(path)
    out: dict[str, AnchorEmbedding] = {}
    dim = None
    for where, rec in _jsonl_records(path):
        try:
            wid, kind, value = rec["window_id"], rec["modality"], rec["vector"]
        except KeyError as exc:
            raise DataError(f"{where}: malformed anchor record: missing {exc}") from exc
        _check_record_id(wid, out, where)
        if kind not in ("video", "text"):
            raise DataError(f"{where}: unknown modality {kind!r}")
        if modality is not None and kind != modality:
            raise DataError(f"{where}: expected a {modality} anchor, got modality {kind!r}")
        vec = _unit_vector(value, where)
        if dim is None:
            dim = vec.shape[0]
        elif vec.shape[0] != dim:
            raise DataError(f"{where}: vector dim {vec.shape[0]} != file dim {dim}")
        out[wid] = AnchorEmbedding(wid, kind, vec)
    if not out:
        raise DataError(f"{path}: no anchor records")
    return out


def load_query_vector(value: str) -> np.ndarray:
    """Accept either an inline JSON anchor record or a path to a JSONL file
    whose first record is the query.
    """
    if value.strip().startswith("{"):
        source = "--query-anchor"
        try:
            rec = json.loads(value)
        except (ValueError, RecursionError) as exc:
            raise DataError(f"{source}: bad JSON: {exc}") from exc
    else:
        source, rec = next(_jsonl_records(value), (value, None))
        if rec is None:
            raise DataError(f"{value}: empty query file")
    if not isinstance(rec, dict) or "vector" not in rec:
        raise DataError(f'{source}: the query must be a JSON object with a "vector" field')
    return _unit_vector(rec["vector"], source)


def write_anchor_embeddings(anchors: dict[str, AnchorEmbedding], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for wid in sorted(anchors):
            a = anchors[wid]
            fh.write(json.dumps(
                {"window_id": a.window_id, "modality": a.modality, "vector": [float(v) for v in a.vector]}
            ) + "\n")


def load_labels(path) -> tuple[dict[str, str], list[str]]:
    """Read a labels JSONL: a header ``{"classes": [...]}`` plus id/label rows."""
    path = Path(path)
    labels: dict[str, str] = {}
    class_names: list[str] | None = None
    for where, rec in _jsonl_records(path):
        if "classes" in rec:
            if class_names is not None:
                raise DataError(f"{where}: duplicate classes header")
            class_names = rec["classes"]
            if not isinstance(class_names, list) or not all(isinstance(c, str) for c in class_names):
                raise DataError(f"{where}: classes must be a list of strings")
            repeated = [c for c, n in Counter(class_names).items() if n > 1]
            if repeated:
                raise DataError(f"{where}: class {repeated[0]!r} declared twice")
            continue
        if class_names is None:
            raise DataError(f"{where}: label record before classes header")
        try:
            wid, label = rec["window_id"], rec["label"]
        except KeyError as exc:
            raise DataError(f"{where}: malformed label record: {exc}") from exc
        _check_record_id(wid, labels, where)
        if label not in class_names:
            raise DataError(f"{where}: label {label!r} not in declared classes")
        labels[wid] = label
    if class_names is None:
        raise DataError(f"{path}: missing classes header")
    return labels, class_names


def write_labels(labels: dict[str, str], class_names: list[str], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps({"classes": list(class_names)}) + "\n")
        for wid in sorted(labels):
            fh.write(json.dumps({"window_id": wid, "label": labels[wid]}) + "\n")


def assemble_dataset(
    windows: WindowSet,
    video_anchor_path,
    text_anchor_path=None,
    labels_path=None,
    coverage_threshold: float = 1.0,
) -> tuple[ParallelDataset, list[str]]:
    """Join windows (a set, or `ImuWindow`s) with anchor/label files into a
    validated dataset, its windows in id order.

    Returns the dataset plus the ids dropped for missing anchors. Coverage
    below `coverage_threshold` (fraction of windows with every requested
    anchor) raises CoverageError listing the missing ids.
    """
    if not 0 <= coverage_threshold <= 1:
        raise DataError(f"assemble_dataset: coverage threshold must be in [0, 1], got {coverage_threshold}")
    if not len(windows):
        raise DataError("assemble_dataset: no windows")
    windows = WindowSet.of(windows, "assemble_dataset")
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
    windows: WindowSet  # or ImuWindows, to save
    sample_rate_hz: float
    window_s: float
    stride_s: float
    content_hash: str = ""


_CACHE_COLUMNS = {"ids": str, "source_ids": str, "start_s": float, "duration_s": float}


def save_window_cache(cache: WindowCache, path) -> None:
    windows = WindowSet.of(cache.windows, path)  # refused before the write, as `load_window_cache` would
    header = {
        "kind": "window-cache",
        "sample_rate_hz": cache.sample_rate_hz,
        "window_s": cache.window_s,
        "stride_s": cache.stride_s,
        "content_hash": cache.content_hash,
        **{key: getattr(windows, key) for key in _CACHE_COLUMNS},
    }
    write_container(path, CACHE_MAGIC, CACHE_VERSION, header, [("signals", windows.signals)])


def load_window_cache(path) -> WindowCache:
    header, arrays = read_container(path, CACHE_MAGIC, CACHE_VERSION)
    signals = checked_arrays(path, arrays, {"signals": (None, 6, None)})["signals"]
    columns = [header_field(path, header, key, list[kind]) for key, kind in _CACHE_COLUMNS.items()]
    for key, column in zip(_CACHE_COLUMNS, columns):
        if len(column) != len(signals):
            raise FormatError(f"{path}: header field {key!r} has {len(column)} entries for {len(signals)} signal rows")
    ids = columns[0]
    if "" in ids:
        raise FormatError(f"{path}: header field 'ids' holds an empty window id")
    _refuse_non_finite(signals, ids)
    _refuse_repeated_ids(ids, path, FormatError)
    sizes = [header_field(path, header, key, float) for key in ("sample_rate_hz", "window_s", "stride_s")]
    return WindowCache(WindowSet(*columns, signals), *sizes, header_field(path, header, "content_hash", str))


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


def content_hash(streams: Iterable[ImuStream], params: dict) -> str:
    """sha256 over each stream's source id, timestamps and values (little-endian
    float64), then the windowing parameters. It identifies the parsed samples,
    not the files' bytes: two CSVs that spell the same numbers differently hash
    alike. `streams` is read once, in order.
    """
    digest = hashlib.sha256()
    for stream in streams:
        digest.update(stream.source_id.encode())
        digest.update(np.asarray(stream.timestamps, dtype="<f8").tobytes())
        digest.update(np.asarray(stream.values, dtype="<f8").tobytes())
    digest.update(json.dumps(params, sort_keys=True).encode())
    return digest.hexdigest()
