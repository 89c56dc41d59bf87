"""Ingest raw IMU streams and frozen anchor embeddings into aligned windows.

File formats:
  * IMU CSV: header ``t,ax,ay,az,gx,gy,gz``; seconds, m/s^2, rad/s. Fields
    are ASCII decimals (no ``1_0``, no non-ASCII digits), parsed in one numpy
    pass; ``inf``/``nan`` are refused as non-finite, blank lines are skipped
    and errors name ``path:line``.
  * Anchor JSONL: ``{"window_id": str, "modality": "video"|"text", "vector": [...]}``.
  * Labels JSONL: header record ``{"classes": [...]}`` then
    ``{"window_id": str, "label": str}`` lines.
  * Window cache: versioned binary (magic ``IMUC``), refuses other versions.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .container import checked_arrays, header_field, json_is, read_container, write_container
from .errors import CoverageError, DataError, FormatError

CSV_HEADER = "t,ax,ay,az,gx,gy,gz"
CACHE_MAGIC = b"IMUC"
CACHE_VERSION = 1

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
        if not np.all(np.isfinite(self.signal)):
            raise DataError(f"window {self.window_id}: non-finite signal values")

    @property
    def n_samples(self) -> int:
        return int(self.signal.shape[1])


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

    windows: list[ImuWindow]
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
    if target_hz <= 0:
        raise DataError(f"resample: target_hz must be > 0, got {target_hz}")
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


def make_windows(stream: ImuStream, window_s: float, stride_s: float) -> list[ImuWindow]:
    """Slice a uniform-rate stream into equal-sized windows.

    The trailing partial window is dropped; a stream shorter than one window
    yields an empty list. Window ids are ``source_id:<start sample index>``.
    """
    if not (0 < window_s < math.inf and 0 < stride_s < math.inf):
        raise DataError(f"make_windows: window_s/stride_s must be finite and > 0, got {window_s}/{stride_s}")
    hz = stream.sample_rate_hz
    t_win = int(round(window_s * hz))
    t_stride = max(1, int(round(stride_s * hz)))
    if t_win < 1:
        raise DataError(f"make_windows: window of {window_s}s at {hz}Hz has no samples")
    windows = []
    n = stream.n_samples
    for start in range(0, n - t_win + 1, t_stride):
        sig = stream.values[start : start + t_win].T
        windows.append(
            ImuWindow(
                window_id=f"{stream.source_id}:{start}",
                source_id=stream.source_id,
                start_s=float(stream.timestamps[start]),
                duration_s=t_win / hz,
                signal=sig,
            )
        )
    return windows


# ---------------------------------------------------------------------------
# anchors and labels


def _is_window_id(x) -> bool:
    return isinstance(x, str) and x != ""


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
    with np.errstate(over="ignore"):  # components near 1e308 overflow the squared norm
        norm = float(np.linalg.norm(vec))
    if not 0.0 < norm < math.inf:
        raise DataError(f"{where}: vector of norm {norm} cannot be scaled to unit length")
    return vec / norm


def _check_record_id(wid, seen, where: str) -> None:
    """A JSONL record's window_id: a non-empty string not seen before in its file."""
    if not _is_window_id(wid):
        raise DataError(f"{where}: window_id must be a non-empty string, got {wid!r}")
    if wid in seen:
        raise DataError(f"{where}: duplicate window_id {wid!r}")


def load_anchor_embeddings(path) -> dict[str, AnchorEmbedding]:
    """Load a JSONL anchor file; vectors are re-normalized to unit length."""
    path = Path(path)
    out: dict[str, AnchorEmbedding] = {}
    dim = None
    for where, rec in _jsonl_records(path):
        try:
            wid, modality, value = rec["window_id"], rec["modality"], rec["vector"]
        except KeyError as exc:
            raise DataError(f"{where}: malformed anchor record: missing {exc}") from exc
        _check_record_id(wid, out, where)
        if modality not in ("video", "text"):
            raise DataError(f"{where}: unknown modality {modality!r}")
        vec = _unit_vector(value, where)
        if dim is None:
            dim = vec.shape[0]
        elif vec.shape[0] != dim:
            raise DataError(f"{where}: vector dim {vec.shape[0]} != file dim {dim}")
        out[wid] = AnchorEmbedding(wid, modality, vec)
    if not out:
        raise DataError(f"{path}: no anchor records")
    return out


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


def _refuse_repeated_ids(windows: list[ImuWindow], where, error=DataError) -> None:
    repeated = [wid for wid, n in Counter(w.window_id for w in windows).items() if n > 1]
    if repeated:
        raise error(f"{where}: repeated window ids: {', '.join(repeated[:20])}")


def assemble_dataset(
    windows: list[ImuWindow],
    video_anchor_path,
    text_anchor_path=None,
    labels_path=None,
    coverage_threshold: float = 1.0,
) -> tuple[ParallelDataset, list[str]]:
    """Join windows with anchor/label files into a validated dataset.

    Returns the dataset plus the ids dropped for missing anchors. Coverage
    below `coverage_threshold` (fraction of windows with every requested
    anchor) raises CoverageError listing the missing ids.
    """
    if not 0 <= coverage_threshold <= 1:
        raise DataError(f"assemble_dataset: coverage threshold must be in [0, 1], got {coverage_threshold}")
    if not windows:
        raise DataError("assemble_dataset: no windows")
    _refuse_repeated_ids(windows, "assemble_dataset")
    lens = {w.n_samples for w in windows}
    if len(lens) > 1:
        raise DataError(f"assemble_dataset: mixed window lengths {sorted(lens)}")
    windows = sorted(windows, key=lambda w: w.window_id)
    video = load_anchor_embeddings(video_anchor_path)
    text = load_anchor_embeddings(text_anchor_path) if text_anchor_path else None

    missing = []
    kept = []
    for w in windows:
        ok = w.window_id in video and (text is None or w.window_id in text)
        (kept if ok else missing).append(w)
    missing_ids = [w.window_id for w in missing]
    coverage = len(kept) / len(windows)
    if coverage < coverage_threshold:
        raise CoverageError(
            f"anchor coverage {coverage:.3f} below threshold {coverage_threshold:.3f}; "
            f"missing ids: {', '.join(missing_ids[:20])}",
            missing_ids,
        )

    labels = class_names = None
    if labels_path is not None:
        labels, class_names = load_labels(labels_path)
        labels = {w.window_id: labels[w.window_id] for w in kept if w.window_id in labels}

    kept_ids = {w.window_id for w in kept}
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
    windows: list[ImuWindow]
    sample_rate_hz: float
    window_s: float
    stride_s: float
    content_hash: str = ""


def save_window_cache(cache: WindowCache, path) -> None:
    meta = [
        {"window_id": w.window_id, "source_id": w.source_id,
         "start_s": w.start_s, "duration_s": w.duration_s}
        for w in cache.windows
    ]
    header = {
        "kind": "window-cache",
        "sample_rate_hz": cache.sample_rate_hz,
        "window_s": cache.window_s,
        "stride_s": cache.stride_s,
        "content_hash": cache.content_hash,
        "windows": meta,
    }
    signals = np.stack([w.signal for w in cache.windows]) if cache.windows else np.zeros((0, 6, 0))
    write_container(path, CACHE_MAGIC, CACHE_VERSION, header, [("signals", signals)])


def _valid_window_meta(meta) -> bool:
    """A cache `windows` entry: string ids, a numeric start and duration."""
    return (type(meta) is dict and _is_window_id(meta.get("window_id"))
            and type(meta.get("source_id")) is str
            and json_is(meta.get("start_s"), float) and json_is(meta.get("duration_s"), float))


def load_window_cache(path) -> WindowCache:
    header, arrays = read_container(path, CACHE_MAGIC, CACHE_VERSION)
    signals = checked_arrays(path, arrays, {"signals": (None, 6, None)})["signals"]
    metas = header.get("windows")
    if not isinstance(metas, list) or not all(map(_valid_window_meta, metas)):
        raise FormatError(f"{path}: malformed windows metadata in header")
    if len(metas) != len(signals):
        raise FormatError(f"{path}: {len(metas)} windows in the header for {len(signals)} signal rows")
    windows = [
        ImuWindow(m["window_id"], m["source_id"], m["start_s"], m["duration_s"], signals[i])
        for i, m in enumerate(metas)
    ]
    _refuse_repeated_ids(windows, path, FormatError)
    sizes = [header_field(path, header, key, float) for key in ("sample_rate_hz", "window_s", "stride_s")]
    return WindowCache(windows, *sizes, header_field(path, header, "content_hash", str))


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
    rng = np.random.default_rng(seed)
    centroids = _class_centroids(rng, n_classes, dim)
    names = activity_names(n_classes)

    windows, video, text, labels = [], {}, {}, {}
    for w in range(n_windows):
        cls = w % n_classes
        source = f"synth-{w:04d}"
        wid = f"{source}:0"
        sig = synth_window_signal(rng, cls, n_samples)
        windows.append(
            ImuWindow(wid, source, 0.0, n_samples / sample_rate_hz, sig)
        )
        for modality, table in (("video", video), ("text", text)):
            vec = centroids[cls] + noise * rng.standard_normal(dim)
            vec = vec / np.linalg.norm(vec)
            table[wid] = AnchorEmbedding(wid, modality, vec)
        labels[wid] = names[cls]
    return ParallelDataset(windows, video, text, labels, names)


def content_hash(paths: list, params: dict) -> str:
    """sha256 over input file bytes plus the windowing parameters."""
    digest = hashlib.sha256()
    for p in paths:
        digest.update(Path(p).name.encode())
        digest.update(Path(p).read_bytes())
    digest.update(json.dumps(params, sort_keys=True).encode())
    return digest.hexdigest()
