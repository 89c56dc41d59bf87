"""Ingestion, windowing, anchor/label files, cache round trips, synthesis."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from imualign import cli
from imualign.container import write_container
from imualign.errors import CoverageError, DataError, FormatError, ImuAlignError
from imualign.signalio import (
    CACHE_MAGIC,
    CACHE_VERSION,
    CSV_HEADER,
    ImuStream,
    ImuWindow,
    WindowCache,
    WindowSet,
    assemble_dataset,
    load_anchor_embeddings,
    load_imu_stream,
    load_labels,
    load_query_vector,
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


def _reference_load(path):
    """The per-field float() loader that numpy's one-pass parse replaced:
    (timestamps, values) or the same DataError, in the same order of checks."""
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
            for k, part in enumerate(parts, start=1):
                try:
                    float(part)
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: unparseable value: field {k} is {part!r}") from exc
            row = [float(p) for p in parts]
            if not all(math.isfinite(v) for v in row):
                raise DataError(f"{path}:{lineno}: non-finite value")
            rows.append(row)
    if not rows:
        raise DataError(f"{path}: no samples")
    data = np.asarray(rows, dtype=np.float64)
    with np.errstate(over="ignore"):
        bad = np.nonzero(np.diff(data[:, 0]) <= 0)[0]
    if bad.size:
        raise DataError(f"{path}: timestamps not strictly increasing at sample index {int(bad[0]) + 1}")
    first, last = float(data[0, 0]), float(data[-1, 0])
    if not math.isfinite(last - first):
        raise DataError(f"{path}: timestamps from {first!r} to {last!r} span no finite duration")
    return data[:, 0], data[:, 1:]


_LINE_ERROR = re.compile(r"^(.*:\d+: (?:expected 7 fields, got \d+|unparseable value|non-finite value))")


def _error_of(load, path):
    """None if `load` accepts the file, else its DataError message cut after
    the kind of error (the parser's own detail differs between loaders)."""
    try:
        load(path)
    except DataError as exc:
        m = _LINE_ERROR.match(str(exc))
        return m.group(1) if m else str(exc)
    return None


def _assert_loads_like_reference(path):
    try:
        ts, values = _reference_load(path)
    except DataError as refused:  # a finite-valued file still refused: its span overflows
        with pytest.raises(DataError) as got:
            load_imu_stream(path)
        assert str(got.value) == str(refused)
        return
    stream = load_imu_stream(path)
    assert np.array_equal(stream.timestamps, ts) and np.array_equal(stream.values, values)
    assert stream.timestamps.tobytes() == ts.tobytes()
    assert stream.values.tobytes() == values.tobytes()


_finite = st.floats(allow_nan=False, allow_infinity=False)
_blank = st.sampled_from(["", " ", "\t", "  \t ", " \x0b\x0c "])
_pad = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def _csv_bodies(draw):
    """Valid data lines of repr-written float64 rows, with blank lines,
    whitespace-only lines, CRLF endings and blanks around fields mixed in."""
    ts = sorted(draw(st.lists(_finite, min_size=1, max_size=200, unique=True)))
    lines = []
    for t in ts:
        lines += draw(st.lists(_blank, max_size=1))
        row = [t] + draw(st.lists(_finite, min_size=6, max_size=6))
        lines.append(",".join(draw(_pad) + repr(v) + draw(_pad) for v in row))
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines) + 1,
                            max_size=len(lines) + 1))
    return CSV_HEADER + endings[0] + "".join(l + e for l, e in zip(lines, endings[1:]))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=_csv_bodies())
def test_load_matches_float_reference_bit_for_bit(tmp_path, body):
    p = tmp_path / "h.csv"
    p.write_bytes(body.encode("utf-8"))
    _assert_loads_like_reference(p)


_GOOD = "0.0,1,2,3,4,5,6"


def _nonfinite_cases():
    for col in range(7):
        for tok in ("nan", "inf", "-inf"):
            fields = ["0.5", "1", "2", "3", "4", "5", "6"]
            fields[col] = tok
            yield pytest.param([_GOOD, ",".join(fields)], id=f"{tok}-col{col}")


@pytest.mark.parametrize("lines", [
    pytest.param(["0,1,2,3,4,5"], id="6-fields"),
    pytest.param(["0,1,2,3,4,5,6,7"], id="8-fields"),
    pytest.param(["0,1,2,3,4,5,6,"], id="trailing-comma"),
    pytest.param(["0,1,2,,4,5,6"], id="empty-field"),
    pytest.param(["0,1,2,x,4,5,6"], id="letter"),
    pytest.param(["0,1,2,3 4,4,5,6"], id="blank-inside-a-field"),
    pytest.param(["0,1,2,3\x1c,4,5,6"], id="control-separator"),
    pytest.param(["0,1,nan,x,4,5"], id="field-count-checked-first"),
    pytest.param(["0,1,nan,x,4,5,6"], id="unparseable-checked-before-non-finite"),
    pytest.param([], id="header-only"),
    pytest.param(["", "  "], id="blank-lines-only"),
    pytest.param([_GOOD, "", "0.5,1,2,3,4,5"], id="bad-line-after-a-good-one"),
    pytest.param([_GOOD, "0.5,1,2,3,4,5,6", "1.0,1,2,3,4,5,6", "1.5,1,2,x,4,5,6",
                  "0.1,1,2,3,4,5,6"], id="first-bad-line-wins"),
    pytest.param([_GOOD, "0.0,1,2,3,4,5,6"], id="repeated-timestamp"),
    pytest.param([_GOOD, "", "0.5,1,2,3, 4 ,y,x"], id="first-bad-field-named"),
    *_nonfinite_cases(),
])
def test_load_malformed_names_the_reference_line(tmp_path, lines):
    p = tmp_path / "m.csv"
    p.write_text(CSV_HEADER + "\n" + "".join(l + "\n" for l in lines))
    with pytest.raises(DataError) as expected:
        _reference_load(p)
    with pytest.raises(DataError) as got:
        load_imu_stream(p)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("token", ["1_0", "١", "１"])
def test_load_rejects_underscores_and_non_ascii_digits(tmp_path, token):
    # the one deliberate change of grammar: float() reads these, numpy does not
    p = tmp_path / "u.csv"
    p.write_text(f"{CSV_HEADER}\n{_GOOD}\n0.5,{token},2,3,4,5,6\n")
    _reference_load(p)
    with pytest.raises(DataError, match=rf"u\.csv:3: unparseable value"):
        load_imu_stream(p)


@pytest.mark.parametrize("body, where", [
    (CSV_HEADER.encode() + b"\n0,1,2,3,4,5,6\n0.5,1,2,3,4,5,\xff\n", r"b\.csv:3: unparseable value"),
    (CSV_HEADER.encode() + b"\n\xff\xfe\n", r"b\.csv:2: expected 7 fields, got 1"),
    (b"\xfft,ax,ay,az,gx,gy,gz\n0,1,2,3,4,5,6\n", r"b\.csv: bad header"),
], ids=["in-a-field", "whole-line", "in-the-header"])
def test_load_names_bytes_that_are_not_utf8(tmp_path, body, where):
    p = tmp_path / "b.csv"
    p.write_bytes(body)
    with pytest.raises(DataError, match=where):
        load_imu_stream(p)


_row_text = st.lists(st.one_of(_finite.map(repr), st.sampled_from(["nan", "inf", "", " ", "x"])),
                     min_size=5, max_size=8).map(",".join)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(header=st.sampled_from([CSV_HEADER + "\n", ""]),
       lines=st.lists(st.one_of(st.text(max_size=40), _row_text), max_size=6),
       ending=st.sampled_from(["\n", "\r\n", "\r"]))
def test_load_arbitrary_text_raises_only_data_error(tmp_path, header, lines, ending):
    p = tmp_path / "f.csv"
    p.write_bytes((header + ending.join(lines)).encode("utf-8"))
    got = _error_of(load_imu_stream, p)  # any other exception fails the test
    body = "".join(lines)
    if "_" in body or any(c.isdigit() and not c.isascii() for c in body):
        return  # the documented grammar change
    expected = _error_of(_reference_load, p)
    assert got == expected
    if expected is None:
        _assert_loads_like_reference(p)


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


@pytest.mark.parametrize("end, hz, message", [
    (1.0, 0.0, "must be > 0"), (1.0, math.inf, "must be > 0 and finite, got inf"),
    (1.0, math.nan, "must be > 0 and finite, got nan"),
    (1.0, 1e300, "needs 1e\\+300 samples"), (10.0, 1e308, "needs inf samples"),
], ids=["zero-rate", "inf-rate", "nan-rate", "grid-beyond-numpy", "grid-overflows"])
def test_resample_refuses_a_rate_or_grid_it_cannot_use(end, hz, message):
    stream = ImuStream("s", 1.0, np.array([0.0, end]), np.zeros((2, 6)))
    with pytest.raises(DataError, match=message):
        resample(stream, hz)


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
    assert len(make_windows(stream, 5.0, 5.0)) == 0


@pytest.mark.parametrize("window_s, stride_s", [
    (math.nan, 1.0), (math.inf, 1.0), (0.0, 1.0), (-1.0, 1.0),
    (1.0, math.nan), (1.0, math.inf), (1.0, 0.0), (1.0, -1.0),
])
def test_make_windows_refuses_a_size_that_is_not_positive_and_finite(window_s, stride_s):
    with pytest.raises(DataError, match="must be finite and > 0"):
        make_windows(_stream(100, hz=10.0), window_s, stride_s)


def test_make_windows_signal_content():
    stream = _stream(30, hz=10.0)
    wins = make_windows(stream, 1.0, 1.0)
    np.testing.assert_array_equal(wins[1].signal, stream.values[10:20].T)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_make_windows_refuses_a_non_finite_sample_naming_its_first_window(bad):
    stream = _stream(100, hz=10.0)  # windows src:0 .. src:90
    stream.values[35, 2] = stream.values[72, 0] = bad
    with pytest.raises(DataError, match=r"^window src:30: non-finite signal values$"):
        make_windows(stream, 1.0, 1.0)


@pytest.mark.parametrize("n, stride_s, bad_index", [(105, 1.0, 101), (100, 2.0, 15), (9, 1.0, 4)],
                         ids=["dropped-tail", "gap-between-windows", "shorter-than-a-window"])
def test_make_windows_accepts_a_nan_outside_every_window(n, stride_s, bad_index):
    stream = _stream(n, hz=10.0)
    stream.values[bad_index] = math.nan
    wins = make_windows(stream, 1.0, stride_s)
    assert [w.window_id for w in wins] == [f"src:{s}" for s in range(0, n - 9, int(stride_s * 10))]


def test_make_windows_signals_are_writable_views_of_the_stream():
    stream = _stream(50, hz=10.0)
    wins = make_windows(stream, 1.0, 0.5)
    for w in wins:
        start = int(w.window_id.split(":")[1])
        assert w.signal.strides == (8, 48) and w.signal.flags.writeable
        assert np.shares_memory(w.signal, stream.values)
        np.testing.assert_array_equal(w.signal, stream.values[start : start + 10].T)
        assert type(w.start_s) is float and w.start_s == stream.timestamps[start] and w.duration_s == 1.0
    wins[1].signal[0, 0] = 7.0  # window src:5 starts at sample 5
    assert stream.values[5, 0] == 7.0 and wins[0].signal[0, 5] == 7.0


def _same_window(a: ImuWindow, b: ImuWindow) -> None:
    assert (a.window_id, a.source_id, a.start_s, a.duration_s) == (b.window_id, b.source_id, b.start_s, b.duration_s)
    assert type(a.start_s) is type(b.start_s) and type(a.duration_s) is type(b.duration_s)
    np.testing.assert_array_equal(a.signal, b.signal)


_index = st.none() | st.integers(-12, 12)


@settings(max_examples=200, deadline=None)
@given(n_samples=st.integers(2, 70), stride_s=st.sampled_from([0.3, 0.5, 1.0, 2.5]), made=st.booleans(),
       key=st.builds(slice, _index, _index, st.none() | st.integers(-3, 3).filter(bool)))
def test_a_window_set_agrees_with_the_list_of_windows_it_replaces(n_samples, stride_s, made, key):
    stream = _stream(n_samples, hz=10.0)
    stride = max(1, round(stride_s * 10))
    expected = [ImuWindow(f"src:{s}", "src", float(stream.timestamps[s]), 1.0, stream.values[s : s + 10].T)
                for s in range(0, n_samples - 9, stride)]
    # made windows view the stream; the set built from a list holds one (n, 6, T) copy
    windows = make_windows(stream, 1.0, stride_s) if made else WindowSet.of(expected)
    base = stream.values if made else windows.signals
    n = len(expected)
    assert len(windows) == n and windows.ids == [w.window_id for w in expected]
    for i in range(-n - 2, n + 2):
        if -n <= i < n:
            _same_window(windows[i], expected[i])
            assert np.shares_memory(windows[i].signal, windows.signals) and windows[i].signal.flags.writeable
            if made:
                assert windows[i].signal.strides == (8, 48) and np.shares_memory(windows[i].signal, stream.values)
        else:
            with pytest.raises(IndexError):
                expected[i]
            with pytest.raises(IndexError):
                windows[i]
    part = windows[key]
    assert isinstance(part, WindowSet) and len(part) == len(expected[key])
    assert part.signals.shape[1:] == windows.signals.shape[1:]
    for a, b in zip(part, expected[key], strict=True):
        _same_window(a, b)
        assert np.shares_memory(a.signal, base)
    assert len(list(windows)) == n
    for a, b in zip(windows, expected, strict=True):
        _same_window(a, b)
        assert np.shares_memory(a.signal, base)
    rows = list(range(n))[key]
    taken = windows.take(rows)
    for a, b in zip(taken, expected[key], strict=True):
        _same_window(a, b)
    if rows:
        with pytest.raises(DataError, match=f"^WindowSet.take: repeated window ids: {expected[rows[0]].window_id}$"):
            windows.take(rows + rows[:1])


# ---------------------------------------------------------------------------
# anchors


def _write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")


def test_load_anchors_normalizes(tmp_path):
    p = tmp_path / "a.jsonl"
    _write_jsonl(p, [
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
    _write_jsonl(p, [
        {"window_id": "w1", "modality": "video", "vector": [1.0, 0.0]},
        {"window_id": "w2", "modality": "video", "vector": [1.0, 0.0, 0.0]},
    ])
    with pytest.raises(DataError, match="dim 3 != file dim 2"):
        load_anchor_embeddings(p)


def test_load_anchors_duplicate_id(tmp_path):
    p = tmp_path / "a.jsonl"
    _write_jsonl(p, [
        {"window_id": "w1", "modality": "video", "vector": [1.0, 0.0]},
        {"window_id": "w1", "modality": "video", "vector": [0.0, 1.0]},
    ])
    with pytest.raises(DataError, match="duplicate"):
        load_anchor_embeddings(p)


@pytest.mark.parametrize("wid", [["w1"], 7, "", None], ids=["list", "number", "empty", "null"])
def test_load_anchors_window_id_must_be_a_non_empty_string(tmp_path, wid):
    p = tmp_path / "a.jsonl"
    _write_jsonl(p, [
        {"window_id": "w0", "modality": "video", "vector": [1.0, 0.0]},
        {"window_id": wid, "modality": "video", "vector": [0.0, 1.0]},
    ])
    with pytest.raises(DataError, match=re.escape(f"{p}:2: window_id must be a non-empty string")):
        load_anchor_embeddings(p)


def test_load_anchors_refuses_another_modality_when_asked(tmp_path):
    p = tmp_path / "a.jsonl"
    _write_jsonl(p, [
        {"window_id": "w0", "modality": "text", "vector": [1.0, 0.0]},
        {"window_id": "w1", "modality": "video", "vector": [0.0, 1.0]},
    ])
    assert set(load_anchor_embeddings(p)) == {"w0", "w1"}
    with pytest.raises(DataError, match=re.escape(f"{p}:2: expected a text anchor, got modality 'video'")):
        load_anchor_embeddings(p, "text")


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


@pytest.mark.parametrize("records, line, message", [
    ([{"classes": ["a", "b"]}, {"window_id": "w1", "label": "a"}, {"window_id": "w1", "label": "b"}],
     3, "duplicate window_id 'w1'"),
    ([{"classes": ["a", "b", "a"]}], 1, "class 'a' declared twice"),
    ([{"classes": ["a", 1]}], 1, "classes must be a list of strings"),
    ([{"classes": ["a"]}, {"window_id": ["w1"], "label": "a"}], 2, "window_id must be a non-empty string"),
    ([{"classes": ["a"]}, {"window_id": "", "label": "a"}], 2, "window_id must be a non-empty string"),
    ([{"classes": ["a"]}, {"window_id": 7, "label": "a"}], 2, "window_id must be a non-empty string"),
], ids=["repeated-window-id", "repeated-class", "non-string-class", "list-window-id",
        "empty-window-id", "number-window-id"])
def test_labels_refuse_repeated_or_malformed_ids_naming_the_line(tmp_path, records, line, message):
    p = tmp_path / "l.jsonl"
    _write_jsonl(p, records)
    with pytest.raises(DataError, match=re.escape(f"{p}:{line}: {message}")):
        load_labels(p)


# ---------------------------------------------------------------------------
# JSONL records: arbitrary input raises only ImuAlignError


_json = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=4)
    | st.integers(-2**70, 2**70) | st.just(10**400),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=10,
)
_vectors = st.lists(st.floats() | st.integers(-2**70, 2**70) | st.just(10**400), max_size=4)
_anchor_records = st.fixed_dictionaries({}, optional={
    "window_id": st.sampled_from(["w0", "w1", ""]) | _json,
    "modality": st.sampled_from(["video", "text"]) | _json,
    "vector": _vectors | _json,
})
_label_records = st.one_of(
    st.fixed_dictionaries({"classes": st.lists(st.sampled_from(["a", "b"]), max_size=3) | _json}),
    st.fixed_dictionaries({}, optional={"window_id": st.sampled_from(["w0", "w1", ""]) | _json,
                                        "label": st.sampled_from(["a", "b", "c"]) | _json}),
)


# JSON that json.dumps cannot write: deep nesting, an int past the 4300-digit limit
_hostile = st.sampled_from(["[" * 5000, '{"vector": [' + "1" * 5000 + "]}", '{"a": 1'])


def _lines(records):
    """One JSONL line: a well-formed record, other JSON, text or raw bytes."""
    return st.one_of(records.map(json.dumps), _json.map(json.dumps), st.text(max_size=20), _hostile,
                     st.binary(max_size=12)).map(lambda x: x if isinstance(x, bytes) else x.encode())


def _unit_or_refused(load, arg):
    try:
        return load(arg)  # any exception but an ImuAlignError fails the test
    except ImuAlignError:
        return None


_fuzz = settings(max_examples=300, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


_HUGE = b'{"window_id": "w0", "modality": "video", "vector": [1e308, 1e308]}'


@_fuzz
@given(lines=st.lists(_lines(_anchor_records), max_size=5))
@example(lines=[_HUGE])  # the squared norm overflows
@example(lines=[b'{"window_id": "w0", "modality": "video", "vector": [1e-170, 3e-170]}'])  # and underflows
def test_load_anchors_arbitrary_records_raise_only_imu_align_errors(tmp_path, lines):
    p = tmp_path / "a.jsonl"
    p.write_bytes(b"\n".join(lines))
    anchors = _unit_or_refused(load_anchor_embeddings, p)
    for a in (anchors or {}).values():
        assert abs(np.linalg.norm(a.vector) - 1.0) < 1e-9


@_fuzz
@given(lines=st.lists(_lines(_label_records), max_size=5))
def test_load_labels_arbitrary_records_raise_only_imu_align_errors(tmp_path, lines):
    p = tmp_path / "l.jsonl"
    p.write_bytes(b"\n".join(lines))
    loaded = _unit_or_refused(load_labels, p)
    if loaded is not None:
        labels, class_names = loaded
        assert set(labels.values()) <= set(class_names)


_query_records = st.fixed_dictionaries({}, optional={"window_id": _json, "vector": _vectors | _json})


@_fuzz
@given(record=st.one_of(_query_records.map(json.dumps), _hostile.filter(lambda t: t[0] == "{"),
                        st.text(max_size=20).map(lambda t: "{" + t)),
       from_file=st.booleans())
@example(record=_HUGE.decode(), from_file=False)
@example(record='{"vector": [2.088001406757372e-162]}', from_file=False)  # the squared norm underflows
def test_query_record_arbitrary_input_raises_only_imu_align_errors(tmp_path, record, from_file):
    arg = record
    if from_file:
        arg = str(tmp_path / "q.jsonl")
        Path(arg).write_text(record + "\n", encoding="utf-8", errors="surrogatepass")
    vec = _unit_or_refused(load_query_vector, arg)
    if vec is not None:
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-9


@_fuzz
@given(lines=st.lists(_lines(_query_records), min_size=1, max_size=3))
def test_query_file_arbitrary_bytes_raise_only_imu_align_errors(tmp_path, lines):
    p = tmp_path / "q.jsonl"
    p.write_bytes(b"\n".join(lines))
    vec = _unit_or_refused(load_query_vector, str(p))
    if vec is not None:
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-9


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


@pytest.mark.parametrize("threshold", [math.nan, -0.1, 1.5, math.inf])
def test_assemble_refuses_a_coverage_threshold_outside_0_1(tmp_path, threshold):
    ds, vp, _, _ = _synth_files(tmp_path, n=2, classes=2)
    with pytest.raises(DataError, match="coverage threshold must be in"):
        assemble_dataset(ds.windows, vp, coverage_threshold=threshold)


def test_assemble_rejects_repeated_window_ids(tmp_path):
    _, vp, tp, lp = _synth_files(tmp_path, n=4, classes=2, t=64)
    windows = synth_dataset(1, 4, 2, 8, 64, 0.05).windows
    with pytest.raises(DataError, match=r"^assemble_dataset: repeated window ids: synth-0000:0$"):
        assemble_dataset([*windows, windows[0]], vp, tp, lp)


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


def _columns(ids, source_id="s", start_s=0.0, duration_s=1.0) -> dict:
    """v2 cache header columns for `ids`, every other field the same."""
    n = len(ids)
    return {"ids": list(ids), "source_ids": [source_id] * n, "start_s": [start_s] * n, "duration_s": [duration_s] * n}


_CACHE_HEADER = {"kind": "window-cache", "sample_rate_hz": 50.0, "window_s": 1.0, "stride_s": 1.0,
                 "content_hash": "", **_columns(["w0"])}


def test_a_loaded_window_equals_one_built_by_imu_window(tmp_path):
    columns = {"ids": ["b", "a"], "source_ids": ["s", ""], "start_s": [3, 1.25], "duration_s": [0.5, 2],
               "extra": [1]}
    signals = np.arange(2 * 6 * 4, dtype=np.float64).reshape(2, 6, 4)
    p = tmp_path / "c.bin"
    write_container(p, CACHE_MAGIC, CACHE_VERSION, {**_CACHE_HEADER, **columns}, [("signals", signals)])
    loaded = load_window_cache(p).windows
    payload = loaded.signals
    assert payload.shape == (2, 6, 4)
    for i, w in enumerate(loaded):
        fields = {key: columns[column][i] for key, column in
                  (("window_id", "ids"), ("source_id", "source_ids"), ("start_s", "start_s"),
                   ("duration_s", "duration_s"))}
        built = ImuWindow(**fields, signal=signals[i])
        assert vars(w).keys() == vars(built).keys()
        for key, value in fields.items():
            assert type(getattr(w, key)) is type(value) and getattr(w, key) == getattr(built, key)
        np.testing.assert_array_equal(w.signal, built.signal)
        assert w.signal.flags.writeable and np.shares_memory(w.signal, payload[i])
    assert not hasattr(loaded[0], "extra")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cache_refuses_non_finite_signals_naming_the_first_window_in_header_order(tmp_path, bad):
    signals = np.zeros((3, 6, 50))
    signals[0, 5, 49] = signals[1, 0, 0] = bad
    p = tmp_path / "c.bin"
    write_container(p, CACHE_MAGIC, CACHE_VERSION, {**_CACHE_HEADER, **_columns(["w2", "w0", "w1"])},
                    [("signals", signals)])
    with pytest.raises(DataError, match=r"^window w2: non-finite signal values$"):
        load_window_cache(p)


def test_cache_loads_finite_signals_whose_sum_overflows(tmp_path):
    p = tmp_path / "c.bin"
    write_container(p, CACHE_MAGIC, CACHE_VERSION, _CACHE_HEADER, [("signals", np.full((1, 6, 50), 1e308))])
    assert load_window_cache(p).windows[0].signal.max() == 1e308
    assert ImuWindow("w", "s", 0.0, 1.0, np.full((6, 2), -1e308)).n_samples == 2


def test_cache_rejects_repeated_window_ids(tmp_path):
    p = tmp_path / "c.bin"
    write_container(p, CACHE_MAGIC, CACHE_VERSION, {**_CACHE_HEADER, **_columns(["w0", "w0"])},
                    [("signals", np.zeros((2, 6, 50)))])
    with pytest.raises(FormatError, match=f"{p}: repeated window ids: w0$"):
        load_window_cache(p)


@pytest.mark.parametrize("extra_id, n_samples, message", [
    ("src:0", 50, "repeated window ids: src:0"),
    ("w1", 40, "mixed window lengths [40, 50]"),
], ids=["repeated-id", "mixed-lengths"])
def test_save_window_cache_refuses_what_the_loader_would_before_writing(tmp_path, extra_id, n_samples, message):
    wins = list(make_windows(_stream(100, hz=50.0), 1.0, 1.0)[:1])  # one 50-sample window, id src:0
    wins.append(ImuWindow(extra_id, "src", 1.0, 1.0, np.zeros((6, n_samples))))
    p = tmp_path / "c.bin"
    with pytest.raises(DataError, match=re.escape(f"{p}: {message}") + "$"):
        save_window_cache(WindowCache(wins, 50.0, 1.0, 1.0), p)
    assert list(tmp_path.iterdir()) == []


# each header field: (header edit, arrays or None for one (1, 6, 50) row, message after the path);
# a None field is deleted
_MALFORMED_CACHE_HEADERS = {
    "no-signals": ({}, [], "missing arrays ['signals'], unexpected arrays []"),
    "signals-2d": ({}, [("signals", np.zeros((6, 50)))], "array 'signals' has shape (6, 50), expected (None, 6, None)"),
    "no-windows": ({"ids": None}, None, "header field 'ids' is missing or not a list of strings"),
    "windows-number": ({"ids": 7}, None, "header field 'ids' is missing or not a list of strings"),
    "window-entry-string": ({"duration_s": ["1.0"]}, None,
                            "header field 'duration_s' is missing or not a list of numbers"),
    "number-window-id": ({"ids": [7]}, None, "header field 'ids' is missing or not a list of strings"),
    "empty-window-id": ({"ids": [""]}, None, "header field 'ids' holds an empty window id"),
    "null-source-id": ({"source_ids": [None]}, None, "header field 'source_ids' is missing or not a list of strings"),
    "string-start": ({"start_s": ["0"]}, None, "header field 'start_s' is missing or not a list of numbers"),
    "more-windows-than-rows": (_columns(["w0", "w1"]), None, "header field 'ids' has 2 entries for 1 signal rows"),
    "fewer-windows-than-rows": ({}, [("signals", np.zeros((2, 6, 50)))],
                                "header field 'ids' has 1 entries for 2 signal rows"),
    "no-rate": ({"sample_rate_hz": None}, None, "header field 'sample_rate_hz' is missing or not a number"),
    "string-window-s": ({"window_s": "1.0"}, None, "header field 'window_s' is missing or not a number"),
    "bool-stride-s": ({"stride_s": True}, None, "header field 'stride_s' is missing or not a number"),
    "bool-duration": ({"duration_s": [False]}, None, "header field 'duration_s' is missing or not a list of numbers"),
    "number-content-hash": ({"content_hash": 7}, None, "header field 'content_hash' is missing or not a string"),
    "three-channels": ({}, [("signals", np.zeros((1, 3, 50)))],
                       "array 'signals' has shape (1, 3, 50), expected (None, 6, None)"),
    "extra-array": ({}, [("signals", np.zeros((1, 6, 50))), ("extra", np.zeros(1))],
                    "missing arrays [], unexpected arrays ['extra']"),
    "bool-id": ({"ids": [True]}, None, "header field 'ids' is missing or not a list of strings"),
    "null-id": ({"ids": [None]}, None, "header field 'ids' is missing or not a list of strings"),
    "start-column-number": ({"start_s": 0.0}, None, "header field 'start_s' is missing or not a list of numbers"),
    "source-column-string": ({"source_ids": "s"}, None,
                             "header field 'source_ids' is missing or not a list of strings"),
    "no-durations": ({"duration_s": None}, None, "header field 'duration_s' is missing or not a list of numbers"),
    "short-source-column": ({**_columns(["w0", "w1"]), "source_ids": ["s"]}, [("signals", np.zeros((2, 6, 50)))],
                            "header field 'source_ids' has 1 entries for 2 signal rows"),
    "long-start-column": ({"start_s": [0.0, 1.0]}, None, "header field 'start_s' has 2 entries for 1 signal rows"),
    "repeated-id": (_columns(["w0", "w1", "w0", "w1"]), [("signals", np.zeros((4, 6, 50)))],
                    "repeated window ids: w0, w1"),
}


def _malformed_cache(path, case) -> str:
    """Write the `_MALFORMED_CACHE_HEADERS` case to `path`; returns its expected message."""
    edit, arrays, message = _MALFORMED_CACHE_HEADERS[case]
    header = {k: v for k, v in {**_CACHE_HEADER, **edit}.items() if v is not None}
    write_container(path, CACHE_MAGIC, CACHE_VERSION, header,
                    [("signals", np.zeros((1, 6, 50)))] if arrays is None else arrays)
    return f"{path}: {message}"


@pytest.mark.parametrize("case", _MALFORMED_CACHE_HEADERS)
def test_cache_refuses_a_malformed_header_naming_the_path(tmp_path, case):
    message = _malformed_cache(tmp_path / "c.bin", case)
    with pytest.raises(FormatError, match=re.escape(message)):
        load_window_cache(tmp_path / "c.bin")


@pytest.mark.parametrize("command", ["train", "retrieve"])
@pytest.mark.parametrize("case", _MALFORMED_CACHE_HEADERS)
def test_cache_readers_exit_2_on_a_malformed_header(tmp_path, capsys, case, command):
    p = tmp_path / "c.bin"
    message = _malformed_cache(p, case)
    argv = {"train": ["--cache", str(p), "--video-anchors", str(tmp_path / "v.jsonl"), "--epochs", "1",
                      "--run-dir", str(tmp_path / "r")],
            "retrieve": ["--ckpt", str(tmp_path / "ck.bin"), "--pool", str(p), "--query-anchor", '{"vector": [1]}']}
    assert cli.main([command, *argv[command]]) == 2  # an exception other than a refusal escapes main
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_cache_of_the_malformed_header_cases_loads_when_well_formed(tmp_path):
    p = tmp_path / "c.bin"
    write_container(p, CACHE_MAGIC, CACHE_VERSION, _CACHE_HEADER, [("signals", np.zeros((1, 6, 50)))])
    assert [w.window_id for w in load_window_cache(p).windows] == ["w0"]


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
