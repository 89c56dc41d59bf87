"""Ingestion, windowing, anchor/label files, cache round trips, synthesis."""

import json

import numpy as np
import pytest

from imualign.errors import CoverageError, DataError, FormatError
from imualign.signalio import (
    CSV_HEADER,
    ImuStream,
    WindowCache,
    assemble_dataset,
    load_anchor_embeddings,
    load_imu_stream,
    load_labels,
    load_window_cache,
    make_windows,
    resample,
    save_window_cache,
    synth_class_anchors,
    synth_dataset,
    write_anchor_embeddings,
    write_imu_stream,
    write_labels,
)


def _stream(n, hz=100.0, source="src"):
    rng = np.random.default_rng(0)
    return ImuStream(source, hz, np.arange(n) / hz, rng.standard_normal((n, 6)))


def _write_csv(path, rows):
    path.write_text(CSV_HEADER + "\n" + "\n".join(",".join(map(str, r)) for r in rows) + "\n")


# ---------------------------------------------------------------------------
# CSV parsing


def test_load_three_row_file(tmp_path):
    p = tmp_path / "a.csv"
    _write_csv(p, [[i * 0.01, 1, 2, 3, 4, 5, 6] for i in range(3)])
    stream = load_imu_stream(p)
    assert stream.n_samples == 3
    assert stream.source_id == "a"
    np.testing.assert_allclose(stream.values[0], [1, 2, 3, 4, 5, 6])


def test_load_rejects_nan_with_line_number(tmp_path):
    p = tmp_path / "bad.csv"
    _write_csv(p, [[0.0, 1, 2, 3, 4, 5, 6], [0.01, 1, 2, 3, 4, "nan", 6]])
    with pytest.raises(DataError, match=r"bad\.csv:3"):
        load_imu_stream(p)


def test_load_rejects_non_monotone_timestamps(tmp_path):
    p = tmp_path / "mono.csv"
    _write_csv(p, [[0.0, *range(6)], [0.02, *range(6)], [0.01, *range(6)]])
    with pytest.raises(DataError, match="index 2"):
        load_imu_stream(p)


def test_csv_round_trip_identical(tmp_path):
    stream = _stream(50)
    p = tmp_path / "rt.csv"
    write_imu_stream(stream, p)
    loaded = load_imu_stream(p)
    np.testing.assert_array_equal(loaded.timestamps, stream.timestamps)
    np.testing.assert_array_equal(loaded.values, stream.values)


def test_load_rejects_bad_header(tmp_path):
    p = tmp_path / "h.csv"
    p.write_text("time,ax,ay,az,gx,gy,gz\n0,1,2,3,4,5,6\n")
    with pytest.raises(DataError, match="bad header"):
        load_imu_stream(p)


# ---------------------------------------------------------------------------
# resample


def test_resample_identity_on_uniform_grid():
    stream = _stream(100, hz=100.0)
    out = resample(stream, 100.0)
    np.testing.assert_allclose(out.values, stream.values, atol=1e-12)
    assert out.sample_rate_hz == 100.0


def test_resample_hand_interpolation():
    stream = ImuStream("s", 1.0, np.array([0.0, 1.0]), np.array([[0.0] * 6, [2.0] * 6]))
    out = resample(stream, 2.0)
    np.testing.assert_allclose(out.timestamps, [0.0, 0.5, 1.0])
    np.testing.assert_allclose(out.values[:, 0], [0.0, 1.0, 2.0])


def test_resample_constant_stream():
    stream = ImuStream("s", 10.0, np.arange(20) / 10.0, np.full((20, 6), 3.3))
    out = resample(stream, 37.0)
    np.testing.assert_allclose(out.values, 3.3)


def test_resample_needs_two_samples():
    stream = ImuStream("s", 10.0, np.array([0.0]), np.zeros((1, 6)))
    with pytest.raises(DataError, match="need >= 2"):
        resample(stream, 10.0)


# ---------------------------------------------------------------------------
# windowing


def test_make_windows_exact_tiling():
    stream = _stream(1000, hz=100.0)  # 10 s
    wins = make_windows(stream, 5.0, 5.0)
    assert len(wins) == 2
    assert all(w.n_samples == 500 for w in wins)
    assert wins[0].window_id == "src:0"
    assert wins[1].window_id == "src:500"


def test_make_windows_overlapping():
    stream = _stream(1000, hz=100.0)
    wins = make_windows(stream, 5.0, 2.5)
    assert [w.start_s for w in wins] == [0.0, 2.5, 5.0]


def test_make_windows_short_stream_empty():
    stream = _stream(400, hz=100.0)  # 4 s
    assert make_windows(stream, 5.0, 5.0) == []


def test_make_windows_signal_content():
    stream = _stream(30, hz=10.0)
    wins = make_windows(stream, 1.0, 1.0)
    np.testing.assert_array_equal(wins[1].signal, stream.values[10:20].T)


# ---------------------------------------------------------------------------
# anchors


def _write_anchors(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")


def test_load_anchors_normalizes(tmp_path):
    p = tmp_path / "a.jsonl"
    _write_anchors(p, [
        {"window_id": "w1", "modality": "video", "vector": [2.0, 0.0, 0.0, 0.0]},
        {"window_id": "w2", "modality": "video", "vector": [0.0, 3.0, 0.0, 0.0]},
    ])
    anchors = load_anchor_embeddings(p)
    assert len(anchors) == 2
    np.testing.assert_allclose(anchors["w1"].vector, [1.0, 0.0, 0.0, 0.0])
    for a in anchors.values():
        assert abs(np.linalg.norm(a.vector) - 1.0) < 1e-6


def test_load_anchors_dim_mismatch(tmp_path):
    p = tmp_path / "a.jsonl"
    _write_anchors(p, [
        {"window_id": "w1", "modality": "video", "vector": [1.0, 0.0]},
        {"window_id": "w2", "modality": "video", "vector": [1.0, 0.0, 0.0]},
    ])
    with pytest.raises(DataError, match="dim 3 != file dim 2"):
        load_anchor_embeddings(p)


def test_load_anchors_duplicate_id(tmp_path):
    p = tmp_path / "a.jsonl"
    _write_anchors(p, [
        {"window_id": "w1", "modality": "video", "vector": [1.0, 0.0]},
        {"window_id": "w1", "modality": "video", "vector": [0.0, 1.0]},
    ])
    with pytest.raises(DataError, match="duplicate"):
        load_anchor_embeddings(p)


def test_anchor_round_trip(tmp_path):
    ds = synth_dataset(3, 6, 2, 8, 16, 0.1)
    p = tmp_path / "v.jsonl"
    write_anchor_embeddings(ds.video_anchors, p)
    loaded = load_anchor_embeddings(p)
    assert set(loaded) == set(ds.video_anchors)
    for k in loaded:
        np.testing.assert_allclose(loaded[k].vector, ds.video_anchors[k].vector, atol=1e-12)


# ---------------------------------------------------------------------------
# labels


def test_labels_round_trip_and_unknown_class(tmp_path):
    p = tmp_path / "l.jsonl"
    write_labels({"w1": "walking", "w2": "running"}, ["walking", "running"], p)
    labels, classes = load_labels(p)
    assert labels == {"w1": "walking", "w2": "running"}
    assert classes == ["walking", "running"]

    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"classes": ["walking"]}) + "\n"
                   + json.dumps({"window_id": "w1", "label": "flying"}) + "\n")
    with pytest.raises(DataError, match="not in declared classes"):
        load_labels(bad)


@pytest.mark.parametrize("line", ["[1, 2]", "7", '"classes"'])
def test_labels_non_object_line_names_path_and_line(tmp_path, line):
    p = tmp_path / "l.jsonl"
    p.write_text(json.dumps({"classes": ["walking"]}) + "\n" + line + "\n")
    with pytest.raises(DataError, match=f"{p}:2: expected a JSON object"):
        load_labels(p)


def test_labels_classes_header_must_be_a_list(tmp_path):
    p = tmp_path / "l.jsonl"
    p.write_text(json.dumps({"classes": 7}) + "\n")
    with pytest.raises(DataError, match=f"{p}:1: classes must be a list"):
        load_labels(p)


# ---------------------------------------------------------------------------
# assemble_dataset


def _synth_files(tmp_path, n=4, classes=2, dim=8, t=16, noise=0.1, seed=5):
    ds = synth_dataset(seed, n, classes, dim, t, noise)
    vp, tp, lp = tmp_path / "v.jsonl", tmp_path / "t.jsonl", tmp_path / "l.jsonl"
    write_anchor_embeddings(ds.video_anchors, vp)
    write_anchor_embeddings(ds.text_anchors, tp)
    write_labels(ds.labels, ds.class_names, lp)
    return ds, vp, tp, lp


def test_assemble_full_coverage(tmp_path):
    ds, vp, tp, lp = _synth_files(tmp_path, n=3, classes=3)
    out, dropped = assemble_dataset(ds.windows, vp, tp, lp)
    assert len(out) == 3 and dropped == []
    assert out.labels and out.class_names


def test_assemble_missing_anchor_errors_at_full_coverage(tmp_path):
    ds, vp, tp, lp = _synth_files(tmp_path, n=3, classes=3)
    partial = {k: v for i, (k, v) in enumerate(sorted(ds.video_anchors.items())) if i < 2}
    vp2 = tmp_path / "v2.jsonl"
    write_anchor_embeddings(partial, vp2)
    with pytest.raises(CoverageError) as exc:
        assemble_dataset(ds.windows, vp2)
    assert len(exc.value.missing_ids) == 1


def test_assemble_drops_below_threshold(tmp_path):
    ds, vp, tp, lp = _synth_files(tmp_path, n=4, classes=2)
    partial = {k: v for i, (k, v) in enumerate(sorted(ds.video_anchors.items())) if i < 3}
    vp2 = tmp_path / "v2.jsonl"
    write_anchor_embeddings(partial, vp2)
    out, dropped = assemble_dataset(ds.windows, vp2, coverage_threshold=0.5)
    assert len(out) == 3 and len(dropped) == 1


def test_assemble_order_insensitive(tmp_path):
    ds, vp, tp, lp = _synth_files(tmp_path, n=5, classes=5)
    a, _ = assemble_dataset(ds.windows, vp, tp, lp)
    b, _ = assemble_dataset(list(reversed(ds.windows)), vp, tp, lp)
    assert [w.window_id for w in a.windows] == [w.window_id for w in b.windows]
    for w1, w2 in zip(a.windows, b.windows):
        np.testing.assert_array_equal(w1.signal, w2.signal)


# ---------------------------------------------------------------------------
# window cache


def test_cache_round_trip(tmp_path):
    stream = _stream(100, hz=50.0)
    wins = make_windows(stream, 1.0, 1.0)
    cache = WindowCache(wins, 50.0, 1.0, 1.0, "abc123")
    p = tmp_path / "c.bin"
    save_window_cache(cache, p)
    loaded = load_window_cache(p)
    assert [w.window_id for w in loaded.windows] == [w.window_id for w in wins]
    np.testing.assert_array_equal(loaded.windows[0].signal, wins[0].signal)
    assert loaded.content_hash == "abc123"

    save_window_cache(loaded, tmp_path / "c2.bin")
    assert (tmp_path / "c.bin").read_bytes() == (tmp_path / "c2.bin").read_bytes()


def test_cache_rejects_bad_magic_and_version(tmp_path):
    stream = _stream(60, hz=30.0)
    cache = WindowCache(make_windows(stream, 1.0, 1.0), 30.0, 1.0, 1.0)
    p = tmp_path / "c.bin"
    save_window_cache(cache, p)
    raw = bytearray(p.read_bytes())

    bad_magic = tmp_path / "m.bin"
    bad_magic.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(FormatError, match="bad magic"):
        load_window_cache(bad_magic)

    bad_version = tmp_path / "v.bin"
    bad_version.write_bytes(bytes(raw[:4]) + bytes([raw[4] + 1]) + bytes(raw[5:]))
    with pytest.raises(FormatError, match="version"):
        load_window_cache(bad_version)

    truncated = tmp_path / "t.bin"
    truncated.write_bytes(bytes(raw[: len(raw) // 2]))
    with pytest.raises(FormatError, match="truncated"):
        load_window_cache(truncated)


# ---------------------------------------------------------------------------
# synthetic corpus


def test_synth_deterministic():
    a = synth_dataset(11, 8, 2, 16, 32, 0.2)
    b = synth_dataset(11, 8, 2, 16, 32, 0.2)
    for wa, wb in zip(a.windows, b.windows):
        np.testing.assert_array_equal(wa.signal, wb.signal)
    for k in a.video_anchors:
        np.testing.assert_array_equal(a.video_anchors[k].vector, b.video_anchors[k].vector)
        np.testing.assert_array_equal(a.text_anchors[k].vector, b.text_anchors[k].vector)


def test_synth_zero_noise_anchors_identical_per_class():
    ds = synth_dataset(2, 8, 2, 16, 32, 0.0)
    by_class = {}
    for wid, label in ds.labels.items():
        by_class.setdefault(label, []).append(ds.video_anchors[wid].vector)
    for vectors in by_class.values():
        for v in vectors[1:]:
            np.testing.assert_array_equal(v, vectors[0])


def test_synth_round_robin_counts():
    ds = synth_dataset(4, 32, 4, 8, 16, 0.1)
    counts = {}
    for label in ds.labels.values():
        counts[label] = counts.get(label, 0) + 1
    assert sorted(counts.values()) == [8, 8, 8, 8]
    # round-robin: consecutive windows cycle through the classes
    ordered = [ds.labels[w.window_id] for w in ds.windows[:4]]
    assert len(set(ordered)) == 4


def test_synth_class_anchors_match_generator_centroids():
    ds = synth_dataset(9, 6, 3, 12, 16, 0.0)
    anchors = synth_class_anchors(9, 3, 12)
    for wid, label in ds.labels.items():
        np.testing.assert_allclose(ds.video_anchors[wid].vector, anchors[label], atol=1e-12)


def test_dataset_window_lengths_equal():
    ds = synth_dataset(1, 10, 2, 8, 24, 0.1)
    assert {w.n_samples for w in ds.windows} == {24}
