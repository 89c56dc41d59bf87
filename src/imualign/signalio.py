"""Ingest raw IMU streams and frozen anchor embeddings into aligned windows.

File formats:
  * IMU CSV: header ``t,ax,ay,az,gx,gy,gz``; seconds, m/s^2, rad/s.
  * Anchor JSONL: ``{"window_id": str, "modality": "video"|"text", "vector": [...]}``.
  * Labels JSONL: header record ``{"classes": [...]}`` then
    ``{"window_id": str, "label": str}`` lines.
  * Window cache: versioned binary (magic ``IMUC``), refuses other versions.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .container import read_container, write_container
from .errors import CoverageError, DataError

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

    @property
    def window_len(self) -> int:
        return self.windows[0].n_samples if self.windows else 0

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


def load_imu_stream(path, format: str = "csv") -> ImuStream:
    """Parse and validate one IMU CSV; rejects NaN/Inf rows and
    non-monotone timestamps, reporting the offending line.
    """
    if format != "csv":
        raise DataError(f"unsupported stream format {format!r}")
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise DataError(f"{path}: bad header {header!r}, expected {CSV_HEADER!r}")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 7:
                raise DataError(f"{path}:{lineno}: expected 7 fields, got {len(parts)}")
            try:
                row = [float(p) for p in parts]
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: unparseable value: {exc}") from exc
            if not all(math.isfinite(v) for v in row):
                raise DataError(f"{path}:{lineno}: non-finite value")
            rows.append(row)
    if not rows:
        raise DataError(f"{path}: no samples")
    data = np.asarray(rows, dtype=np.float64)
    ts = data[:, 0]
    bad = np.nonzero(np.diff(ts) <= 0)[0]
    if bad.size:
        raise DataError(f"{path}: timestamps not strictly increasing at sample index {int(bad[0]) + 1}")
    rate = (len(ts) - 1) / (ts[-1] - ts[0]) if len(ts) > 1 else 0.0
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
    n = int(math.floor((t1 - t0) * target_hz + 1e-9)) + 1
    grid = t0 + np.arange(n) / target_hz
    values = np.column_stack(
        [np.interp(grid, stream.timestamps, stream.values[:, c]) for c in range(6)]
    )
    return ImuStream(stream.source_id, float(target_hz), grid, values)


def make_windows(stream: ImuStream, window_s: float, stride_s: float) -> list[ImuWindow]:
    """Slice a uniform-rate stream into equal-sized windows.

    The trailing partial window is dropped; a stream shorter than one window
    yields an empty list. Window ids are ``source_id:<start sample index>``.
    """
    if window_s <= 0 or stride_s <= 0:
        raise DataError(f"make_windows: window_s/stride_s must be > 0, got {window_s}/{stride_s}")
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


def load_anchor_embeddings(path) -> dict[str, AnchorEmbedding]:
    """Load a JSONL anchor file; vectors are re-normalized to unit length."""
    path = Path(path)
    out: dict[str, AnchorEmbedding] = {}
    dim = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: bad JSON: {exc}") from exc
            try:
                wid = rec["window_id"]
                modality = rec["modality"]
                vec = np.asarray(rec["vector"], dtype=np.float64)
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{path}:{lineno}: malformed anchor record: {exc}") from exc
            if modality not in ("video", "text"):
                raise DataError(f"{path}:{lineno}: unknown modality {modality!r}")
            if vec.ndim != 1:
                raise DataError(f"{path}:{lineno}: vector must be 1-D")
            if not np.all(np.isfinite(vec)):
                raise DataError(f"{path}:{lineno}: non-finite vector component")
            if dim is None:
                dim = vec.shape[0]
            elif vec.shape[0] != dim:
                raise DataError(f"{path}:{lineno}: vector dim {vec.shape[0]} != file dim {dim}")
            if wid in out:
                raise DataError(f"{path}:{lineno}: duplicate window_id {wid!r}")
            norm = float(np.linalg.norm(vec))
            if norm == 0.0:
                raise DataError(f"{path}:{lineno}: zero vector cannot be normalized")
            out[wid] = AnchorEmbedding(wid, modality, vec / norm)
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
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: bad JSON: {exc}") from exc
            if not isinstance(rec, dict):
                raise DataError(f"{path}:{lineno}: expected a JSON object, got {type(rec).__name__}")
            if "classes" in rec:
                if class_names is not None:
                    raise DataError(f"{path}:{lineno}: duplicate classes header")
                if not isinstance(rec["classes"], list):
                    raise DataError(f"{path}:{lineno}: classes must be a list")
                class_names = [str(c) for c in rec["classes"]]
                continue
            if class_names is None:
                raise DataError(f"{path}:{lineno}: label record before classes header")
            try:
                wid, label = rec["window_id"], rec["label"]
            except KeyError as exc:
                raise DataError(f"{path}:{lineno}: malformed label record: {exc}") from exc
            if label not in class_names:
                raise DataError(f"{path}:{lineno}: label {label!r} not in declared classes")
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
    if not windows:
        raise DataError("assemble_dataset: no windows")
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


def load_window_cache(path) -> WindowCache:
    header, arrays = read_container(path, CACHE_MAGIC, CACHE_VERSION)
    signals = arrays["signals"]
    windows = [
        ImuWindow(m["window_id"], m["source_id"], m["start_s"], m["duration_s"], signals[i])
        for i, m in enumerate(header["windows"])
    ]
    return WindowCache(
        windows=windows,
        sample_rate_hz=header["sample_rate_hz"],
        window_s=header["window_s"],
        stride_s=header["stride_s"],
        content_hash=header.get("content_hash", ""),
    )


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
