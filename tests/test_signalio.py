"""Ingestion, windowing, anchor/label files, cache round trips, synthesis."""

import json
import math
import re
import struct
from pathlib import Path
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from imualign import cli, signalio
from imualign.container import write_container
from imualign.errors import CoverageError, DataError, FormatError, ImuAlignError
from imualign.evaluate import ClassifierHead
from imualign.signalio import (
    CACHE_MAGIC,
    CACHE_VERSION,
    CSV_HEADER,
    AnchorEmbedding,
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
    if len(rows) > 1 and not math.isfinite((len(rows) - 1) / (last - first)):
        raise DataError(f"{path}: {len(rows)} timestamps from {first!r} to {last!r} give no finite mean rate")
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
# the orjson pass: the files it takes load to the numpy pass's bits


@st.composite
def _decimals(draw) -> str:
    """A 1-40-digit mantissa with a decimal exponent in -340..310, as the JSON grammar writes it."""
    digits = str(draw(st.integers(1, 10**40 - 1)))
    point = draw(st.integers(1, len(digits)))
    mantissa = digits[:point] + ("." + digits[point:] if point < len(digits) else "")
    exponent = draw(st.integers(-340, 310))
    return (draw(st.sampled_from(["", "-"])) + mantissa + draw(st.sampled_from(["e", "E"]))
            + ("+" if exponent >= 0 and draw(st.booleans()) else "") + str(exponent))


def _ints_around(*powers: int):
    return st.builds(lambda p, d, s: str(s * (2**p + d)), st.sampled_from(powers), st.integers(-3, 3),
                     st.sampled_from([1, -1]))


_fast_tokens = st.one_of(
    _finite.map(repr),  # repr writes 1e+16, 5e-324 and -0.0, all JSON numbers
    _decimals().filter(lambda s: math.isfinite(float(s))),  # orjson refuses a number past float's range
    st.floats(min_value=5e-324, max_value=2.2250738585072014e-308).map(lambda v: f"{v:.25e}"),  # subnormals
    _ints_around(53, 63, 64, 90, 1023),
    st.integers(-2**70, 2**70).map(str),
    st.sampled_from(["-0", "-0.0", "0e0", "0", "-0e0", "2.4703282292062327e-324", "2.4703282292062328e-324",
                     "1.7976931348623157e308", str(2**1024 - 2**970 - 1), "1e-400", "-1e-400"]),
)


def _int_minus_zero(lines: list[str]) -> bool:
    return any(field == "-0" for line in lines for field in line.split(","))


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.lists(_fast_tokens, min_size=7, max_size=7).map(",".join), min_size=1, max_size=8),
       end=st.sampled_from(["", "\n", "\n\n"]))
def test_the_orjson_pass_gives_the_numpy_pass_bits(rows, end):
    got = signalio._orjson_rows(f"{CSV_HEADER}\n{chr(10).join(rows)}{end}".encode())
    assert (got is None) == _int_minus_zero(rows)  # an int -0 goes to numpy; nothing else here does
    if got is not None:
        assert got.tobytes() == signalio._parse_rows(rows).tobytes()


def test_a_written_csv_loads_without_the_numpy_pass(tmp_path, monkeypatch):
    p = tmp_path / "w.csv"
    stream = _stream(200)
    write_imu_stream(stream, p)

    def refuse(*args, **kwargs):
        raise AssertionError("np.loadtxt was called")

    monkeypatch.setattr(np, "loadtxt", refuse)
    loaded = load_imu_stream(p)
    assert loaded.values.tobytes() == stream.values.tobytes()
    assert loaded.timestamps.tobytes() == stream.timestamps.tobytes()


@pytest.mark.parametrize("last", ["-0\n", "-0"])
def test_an_int_minus_zero_loads_as_minus_zero(tmp_path, last):
    p = tmp_path / "z.csv"
    p.write_text(f"{CSV_HEADER}\n-0,1,2,3,4,5,-0\n1,1,-0,3,4,5,{last}")
    stream = load_imu_stream(p)
    assert np.signbit(stream.timestamps[0]) and np.signbit(stream.values[:, 5]).all()
    assert np.signbit(stream.values[1, 1]) and not np.signbit(stream.values[0, 1])


# 2**1024 - 2**970 is halfway from float's max to 2**1024, so it rounds to inf
@pytest.mark.parametrize("big", ["1e400", "1.7976931348623159e308", str(2**1024 - 2**970)])
def test_a_float_past_the_range_is_refused_as_non_finite(tmp_path, big):
    p = tmp_path / "big.csv"
    p.write_text(f"{CSV_HEADER}\n{_GOOD}\n0.5,1,2,{big},4,5,6\n")
    with pytest.raises(DataError, match=r"^.*big\.csv:3: non-finite value$"):
        load_imu_stream(p)


@pytest.mark.parametrize("line", [
    pytest.param("0.5,1,2,3,4,5,6]", id="bracket"),
    pytest.param("0.5,true,2,3,4,5,6", id="literal"),
    pytest.param("0.5,1,,3,4,5,6", id="empty-field"),
    pytest.param("0.5,1,2,3,4,5,6\r", id="crlf"),
    pytest.param(" 0.5 ,1,2,3,4,5,6\t", id="blank-padded"),
    pytest.param("0.5,1.,+2,.3,04,5,6", id="numbers-json-refuses"),
    pytest.param("0.5,1,2,3,4,5", id="six-fields"),
    pytest.param("0.5,1,2,3,4,5,6,7", id="eight-fields"),
    pytest.param("0.5,1,2,3,4,5,6,", id="trailing-comma"),
    pytest.param("0.5,1e,2,3,4,5,6", id="no-exponent-digits"),
])
def test_a_file_the_orjson_pass_declines_loads_as_the_reference_does(tmp_path, line):
    p = tmp_path / "d.csv"
    p.write_bytes(f"{CSV_HEADER}\n{_GOOD}\n{line}\n1.0,1,2,3,4,5,6\n".encode())
    assert signalio._orjson_rows(p.read_bytes()) is None
    try:
        _reference_load(p)
    except DataError as refused:
        with pytest.raises(DataError) as got:
            load_imu_stream(p)
        assert str(got.value) == str(refused)
    else:
        _assert_loads_like_reference(p)


@st.composite
def _streams(draw):
    """Timestamps and values of a stream the constructor accepts: strictly
    increasing finite times whose span and mean rate are finite, and finite values."""
    ts = sorted(draw(st.lists(_finite, min_size=1, max_size=40, unique=True)))
    assume(math.isfinite(ts[-1] - ts[0]))
    assume(len(ts) == 1 or math.isfinite((len(ts) - 1) / (ts[-1] - ts[0])))
    return np.array(ts), draw(arrays(np.float64, (len(ts), 6), elements=_finite))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(stream=_streams())
def test_every_stream_built_is_written_and_loaded_back_to_the_same_bits(tmp_path, stream):
    timestamps, values = stream
    p = tmp_path / "s.csv"
    write_imu_stream(ImuStream("s", 1.0, timestamps, values), p)
    loaded = load_imu_stream(p)
    assert loaded.timestamps.tobytes() == timestamps.tobytes()
    assert loaded.values.tobytes() == values.tobytes()
    _assert_loads_like_reference(p)


def _with(array, index, bad):
    array = np.array(array, dtype=np.float64)
    array[index] = bad
    return array


_REFUSED_STREAMS = {  # name: (timestamps, values, the constructor's refusal after "stream u: ")
    "unsorted": ([0.0, 2.0, 1.0, 3.0], np.zeros((4, 6)), "timestamps not strictly increasing at sample index 2"),
    "repeated": ([0.0, 1.0, 1.0], np.zeros((3, 6)), "timestamps not strictly increasing at sample index 2"),
    "empty": ([], np.zeros((0, 6)), "no samples"),
    "2d-timestamps": ([[0.0, 1.0]], np.zeros((2, 6)), "expected (2,) timestamps, got (1, 2)"),
    "5-channels": ([0.0, 1.0], np.zeros((2, 5)), "expected (n, 6) values, got (2, 5)"),
    "span-overflows": ([-1e308, 1e308], np.zeros((2, 6)),
                       "timestamps from -1e+308 to 1e+308 span no finite duration"),
    "rate-overflows": ([0.0, 5e-324], np.zeros((2, 6)), "2 timestamps from 0.0 to 5e-324 give no finite mean rate"),
    **{f"{bad}-value": ([0.0, 1.0, 2.0], _with(np.zeros((3, 6)), (1, 3), bad), "non-finite value at sample index 1")
       for bad in (math.nan, math.inf, -math.inf)},
    **{f"{bad}-timestamp": (_with([0.0, 1.0, 2.0], 2, bad), np.zeros((3, 6)), "non-finite value at sample index 2")
       for bad in (math.nan, math.inf, -math.inf)},
}


@pytest.mark.parametrize("case", _REFUSED_STREAMS)
def test_a_stream_is_refused_when_built_and_its_csv_when_loaded(tmp_path, case):
    timestamps, values, message = _REFUSED_STREAMS[case]
    with pytest.raises(DataError, match=f"^stream u: {re.escape(message)}$"):
        ImuStream("u", 1.0, timestamps, values)
    if np.ndim(timestamps) != 1 or np.shape(values)[1] != 6:
        return  # no CSV holds it
    p = tmp_path / "u.csv"
    _write_csv(p, [[repr(float(v)) for v in (t, *row)] for t, row in zip(timestamps, values)])
    with pytest.raises(DataError) as expected:
        _reference_load(p)
    with pytest.raises(DataError) as got:
        load_imu_stream(p)
    assert str(got.value) == str(expected.value)
    if "non-finite" not in message:  # the loader names a non-finite value's line instead
        assert str(got.value) == f"{p}: {message}"


@pytest.mark.parametrize("rate", [math.nan, math.inf, -1.0, True, "200", None])
def test_a_stream_refuses_a_rate_that_is_not_a_finite_number_at_least_0_checked_last(rate):
    message = f"stream u: sample rate must be a finite number >= 0, got {rate!r}"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        ImuStream("u", rate, [0.0, 1.0], np.zeros((2, 6)))
    with pytest.raises(DataError, match=r"^stream u: timestamps not strictly increasing at sample index 1$"):
        ImuStream("u", rate, [1.0, 0.0], np.zeros((2, 6)))
    assert ImuStream("u", 0, [0.0], np.zeros((1, 6))).sample_rate_hz == 0


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
    assert wins.n_samples == 500
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


def _set_of(windows: list[ImuWindow]) -> WindowSet:
    """The windows of a list as one set, their signals stacked."""
    signals = np.stack([w.signal for w in windows]) if windows else np.empty((0, 6, 0))
    return WindowSet([w.window_id for w in windows], [w.source_id for w in windows],
                     [w.start_s for w in windows], [w.duration_s for w in windows], signals)


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
    windows = make_windows(stream, 1.0, stride_s) if made else _set_of(expected)
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


def _three_windows() -> WindowSet:
    return WindowSet(["w0", "w1", "w2"], ["s"] * 3, [0.0, 1.0, 2.0], [1.0] * 3, np.zeros((3, 6, 4)))


_BUILDS = {  # name: (a new set of the windows of `s`, the repeated-id message's label)
    "constructor": (lambda s: WindowSet(s.ids, s.source_ids, s.start_s, s.duration_s, s.signals), "WindowSet"),
    "slice": (lambda s: s[1:], "WindowSet"),
    "take": (lambda s: s.take([1, 2]), "WindowSet.take"),
    "having": (lambda s: s.having({"w1"}), "WindowSet.take"),
    "concat": (lambda s: WindowSet.concat([s[:0], s], "ingest"), "ingest"),
}


@pytest.mark.parametrize("build", sorted(_BUILDS))
def test_every_set_built_refuses_a_repeated_id(build):
    make, where = _BUILDS[build]
    windows = _three_windows()
    windows.ids[2] = "w1"  # written after the set was built: a set does not watch its columns
    with pytest.raises(DataError, match=f"^{re.escape(where)}: repeated window ids: w1$"):
        make(windows)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("build", sorted(_BUILDS))
def test_every_set_built_refuses_a_non_finite_signal_value(build, bad):
    windows = _three_windows()
    windows.signals[1, 5, 3] = bad  # written after the set was built: a set does not watch its columns
    with pytest.raises(DataError, match=r"^window w1: non-finite signal values$"):
        _BUILDS[build][0](windows)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_made_and_synthesized_sets_refuse_a_non_finite_signal_value(monkeypatch, bad):
    stream = _stream(30, hz=10.0)
    stream.values[15, 2] = bad
    with pytest.raises(DataError, match=r"^window src:10: non-finite signal values$"):
        make_windows(stream, 1.0, 1.0)
    monkeypatch.setattr(signalio, "synth_window_signal", lambda rng, cls, n: np.full((6, n), bad))
    with pytest.raises(DataError, match=r"^window synth-0000:0: non-finite signal values$"):
        synth_dataset(0, 2, 2, 4, 8, 0.1)


def test_records_that_hold_arrays_compare_by_identity():
    # dataclass `==` would compare the array fields and raise for any array of more than one value
    windows = list(make_windows(_stream(30, hz=10.0), 1.0, 1.0))
    twin = ImuWindow(windows[0].window_id, "src", windows[0].start_s, 1.0, windows[0].signal.copy())
    anchors = [AnchorEmbedding("w", "video", np.ones(3)) for _ in range(2)]
    streams = [_stream(5) for _ in range(2)]
    heads = [ClassifierHead(np.zeros((2, 3)), np.zeros(2), ["a", "b"]) for _ in range(2)]
    for a, b in ((windows[0], twin), anchors, streams, heads):
        assert a == a and a != b and not (a == b)
        assert a in [b, a] and a not in [b]


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


_NOT_A_STRING_ID = "field 'window_id' is missing or not a string"


@pytest.mark.parametrize("wid, message", [
    (["w1"], _NOT_A_STRING_ID), (7, _NOT_A_STRING_ID), ("", "window_id must be a non-empty string, got ''"),
    (None, _NOT_A_STRING_ID),
], ids=["list", "number", "empty", "null"])
def test_load_anchors_window_id_must_be_a_non_empty_string(tmp_path, wid, message):
    p = tmp_path / "a.jsonl"
    _write_jsonl(p, [
        {"window_id": "w0", "modality": "video", "vector": [1.0, 0.0]},
        {"window_id": wid, "modality": "video", "vector": [0.0, 1.0]},
    ])
    with pytest.raises(DataError, match=f"^{re.escape(f'{p}:2: {message}')}$"):
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


def _vec(*values):
    return np.array(values, dtype=np.float64)


@pytest.mark.parametrize("anchors, line, message", [
    ({"a": AnchorEmbedding("a", "video", _vec(1, 0)), "b": AnchorEmbedding("b", "video", _vec(math.nan, 1))},
     2, "field 'vector' is missing or not a list of numbers"),
    ({"a": AnchorEmbedding("a", "text", _vec(math.inf, 1))}, 1, "field 'vector' is missing or not a list of numbers"),
    ({"a": AnchorEmbedding("a", "video", _vec(0, 0))}, 1, "vector of norm 0.0 cannot be scaled to unit length"),
    ({"a": AnchorEmbedding("a", "video", _vec(1, 0)), "b": AnchorEmbedding("b", "video", _vec(0, -0.0))},
     2, "vector of norm 0.0 cannot be scaled to unit length"),
    ({"": AnchorEmbedding("", "video", _vec(1))}, 1, "window_id must be a non-empty string, got ''"),
    ({"a": AnchorEmbedding(7, "video", _vec(1))}, 1, _NOT_A_STRING_ID),
    ({"a": AnchorEmbedding("a", "video", _vec(1)), "b": AnchorEmbedding("a", "video", _vec(1))},
     2, "duplicate window_id 'a'"),
    ({"a": AnchorEmbedding("a", "audio", _vec(1))}, 1, "unknown modality 'audio'"),
    ({"a": AnchorEmbedding("a", "video", _vec(1, 0)), "b": AnchorEmbedding("b", "video", _vec(1))},
     2, "vector dim 1 != file dim 2"),
    ({"a": AnchorEmbedding("a", "video", [[1.0, 0.0]])}, 1, "field 'vector' is missing or not a list of numbers"),
], ids=["nan", "inf", "zero", "zero-after-the-first", "empty-id", "int-id", "repeated-id", "unknown-modality",
        "mixed-dims", "2-d"])
def test_write_anchor_embeddings_refuses_what_its_loader_would_writing_nothing(tmp_path, anchors, line, message):
    p = tmp_path / "a.jsonl"
    with pytest.raises(DataError, match=f"^{re.escape(f'{p}:{line}: {message}')}$"):
        write_anchor_embeddings(anchors, p)
    assert not p.exists()


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


@pytest.mark.parametrize("labels, classes, line, message", [
    ({"w1": "a", "w2": "flying"}, ["a", "b"], 3, "label 'flying' not in declared classes"),
    ({"w1": "a"}, ["a", "b", "a"], 1, "class 'a' declared twice"),
    ({"w1": "a"}, ["a", 1], 1, "field 'classes' is missing or not a list of strings"),
    ({"": "a"}, ["a"], 2, "window_id must be a non-empty string, got ''"),
    ({7: "a"}, ["a"], 2, _NOT_A_STRING_ID),
], ids=["unknown-label", "repeated-class", "non-string-class", "empty-id", "int-id"])
def test_write_labels_refuses_what_its_loader_would_writing_nothing(tmp_path, labels, classes, line, message):
    p = tmp_path / "l.jsonl"
    with pytest.raises(DataError, match=f"^{re.escape(f'{p}:{line}: {message}')}$"):
        write_labels(labels, classes, p)
    assert not p.exists()


@pytest.mark.parametrize("line", ["[1, 2]", "7", '"classes"'])
def test_labels_non_object_line_names_path_and_line(tmp_path, line):
    p = tmp_path / "l.jsonl"
    p.write_text(json.dumps({"classes": ["walking"]}) + "\n" + line + "\n")
    with pytest.raises(DataError, match=f"^{re.escape(f'{p}:2: expected a JSON object')}$"):
        load_labels(p)


def test_labels_classes_header_must_be_a_list(tmp_path):
    p = tmp_path / "l.jsonl"
    p.write_text(json.dumps({"classes": 7}) + "\n")
    with pytest.raises(DataError, match=re.escape(f"{p}:1: field 'classes' is missing or not a list of strings")):
        load_labels(p)


@pytest.mark.parametrize("records, line, message", [
    ([{"classes": ["a", "b"]}, {"window_id": "w1", "label": "a"}, {"window_id": "w1", "label": "b"}],
     3, "duplicate window_id 'w1'"),
    ([{"classes": ["a", "b", "a"]}], 1, "class 'a' declared twice"),
    ([{"classes": ["a", 1]}], 1, "field 'classes' is missing or not a list of strings"),
    ([{"classes": ["a"]}, {"window_id": ["w1"], "label": "a"}], 2, _NOT_A_STRING_ID),
    ([{"classes": ["a"]}, {"window_id": "", "label": "a"}], 2, "window_id must be a non-empty string"),
    ([{"classes": ["a"]}, {"window_id": 7, "label": "a"}], 2, _NOT_A_STRING_ID),
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
# JSONL parsing: the loaders give with orjson what they give with json.loads alone


def _stdlib_json_value(text: str, where: str):
    """The reference parse of one line or inline record: json.loads alone, with the reader's error text."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DataError(f"{where}: bad JSON: {exc}") from exc


def _stdlib_records(path):
    """The reference: the JSONL reader that parsed every line with json.loads."""
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
            rec = _stdlib_json_value(line, where)
            if not isinstance(rec, dict):
                raise DataError(f"{where}: expected a JSON object")
            yield where, rec


def _outcome(results) -> list:
    """What `results` yields, item by item, then the class and text of the error that ends it, if one does."""
    out = []
    try:
        for item in results:
            out.append(item)
    except Exception as exc:
        out.append((type(exc), str(exc)))
    return out


def _call(load, arg) -> list:
    """The `_outcome` of one call: its result, or the class and text of its error."""
    return _outcome(load(arg) for _ in range(1))


def _anchors_loaded(path) -> dict:
    """`load_anchor_embeddings(path)`, each anchor as the tuple of its fields."""
    return {k: (a.window_id, a.modality, a.vector) for k, a in load_anchor_embeddings(path).items()}


def _same(a, b) -> bool:
    """Equal values of the same types, floats and arrays compared bit for bit."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return struct.pack("<d", a) == struct.pack("<d", b)
    if type(a) is np.ndarray:
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if type(a) in (list, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    if type(a) is dict:
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    return a == b


def _stdlib_parse():
    """The loaders' JSONL reader and inline-query parse replaced by the json.loads references."""
    return mock.patch.multiple(signalio, _jsonl_records=_stdlib_records, _json_value=_stdlib_json_value)


def _parsers_agree(results) -> bool:
    """Whether `results()` gives the same with the loaders' parse as with json.loads alone. The
    records themselves may differ, an int read as a float, but what the loaders make of them may not."""
    with _stdlib_parse():
        reference = results()
    return _same(results(), reference)


def _loader_outcomes(anchors: Path, labels: Path, query: Path):
    """A call of the three loaders on their files, giving what each returns or raises."""
    return lambda: [_call(_anchors_loaded, anchors), _call(load_labels, labels), _call(load_query_vector, str(query))]


def _nested(depth: int) -> bytes:
    return b'{"window_id": "w0", "modality": "video", "vector": ' + b"[" * depth + b"]" * depth + b"}"


# the lines where orjson and json.loads are known to disagree, and line ends the reader splits on
_NAMED_LINES = {
    "nan": b'{"window_id": "w0", "modality": "video", "vector": [NaN, 1.0]}',
    "infinity": b'{"window_id": "w0", "modality": "video", "vector": [1.0, Infinity]}',
    "minus-infinity": b'{"window_id": -Infinity, "label": "a"}',
    "1e400": b'{"window_id": "w0", "modality": "video", "vector": [1e400]}',
    "2**64": b'{"window_id": 18446744073709551616, "label": "a"}',
    "2**64-alone": b"18446744073709551616",
    "2**64-in-vector": b'{"window_id": "w0", "modality": "video", "vector": [18446744073709551617, 0.5]}',
    "-2**63-1": b'{"window_id": "w0", "label": [-9223372036854775809]}',
    "5000-digit-int": b'{"window_id": "w0", "modality": "video", "vector": [' + b"7" * 5000 + b"]}",
    "lone-surrogate": b'{"window_id": "\\ud800", "label": "a"}',
    "bom": b'\xef\xbb\xbf{"window_id": "w0", "modality": "video", "vector": [1.0]}',
    "raw-tab": b'{"window_id": "w\t0", "label": "a"}',
    "crlf": b'{"classes": ["a"]}\r\n{"window_id": "w0", "label": "a"}\r\n',
    "lone-cr": b'{"classes": ["a"]}\r{"window_id": "w0", "label": "a"}\r',
    "whitespace-only": b" \t \x0b\x0c\x1c ",
    "300-deep": _nested(300),
    "990-deep": _nested(990),
}


@pytest.mark.parametrize("line", _NAMED_LINES.values(), ids=_NAMED_LINES.keys())
def test_jsonl_reader_matches_the_json_loads_reader_on_named_lines(tmp_path, line):
    anchors, labels, query = tmp_path / "a.jsonl", tmp_path / "l.jsonl", tmp_path / "q.jsonl"
    anchors.write_bytes(line + b'\n{"window_id": "w9", "modality": "video", "vector": [0.5, 2]}\n')
    labels.write_bytes(b'{"classes": ["a"]}\n' + line + b'\n{"window_id": "w9", "label": "a"}\n')
    query.write_bytes(line + b"\n")
    assert _parsers_agree(_loader_outcomes(anchors, labels, query))


def test_a_big_int_is_a_float_to_orjson_and_loads_alike(tmp_path):
    line = _NAMED_LINES["2**64-in-vector"]
    assert type(signalio._json_value(line.decode(), "w")["vector"][0]) is float
    assert type(_stdlib_json_value(line.decode(), "w")["vector"][0]) is int
    p = tmp_path / "a.jsonl"
    p.write_bytes(line + b"\n")
    assert _parsers_agree(lambda: _call(_anchors_loaded, p))
    assert load_anchor_embeddings(p)["w0"].vector.tolist() == [1.0, 0.5 / 18446744073709551617]


def _any_line():
    return st.one_of(_lines(_anchor_records), _lines(_label_records), _lines(_query_records),
                     _json.map(lambda v: json.dumps(v, ensure_ascii=False).encode("utf-8", "surrogatepass")),
                     st.sampled_from(list(_NAMED_LINES.values())))


@_fuzz
@given(lines=st.lists(_any_line(), max_size=5), end=st.sampled_from([b"\n", b"\r\n", b"\r"]))
def test_jsonl_reader_matches_the_json_loads_reader(tmp_path, lines, end):
    p = tmp_path / "r.jsonl"
    p.write_bytes(end.join(lines))
    assert _parsers_agree(_loader_outcomes(p, p, p))


@_fuzz
@given(record=st.one_of(_query_records.map(json.dumps), _json.map(json.dumps), _hostile,
                        st.text(max_size=20).map(lambda t: "{" + t),
                        st.sampled_from([line.decode("utf-8", "surrogateescape") for line in _NAMED_LINES.values()])
                        ).filter(lambda t: t.strip().startswith("{")))  # anything else names a query file
def test_inline_query_matches_the_json_loads_reader(record):
    assert _parsers_agree(lambda: _call(load_query_vector, record))


def test_a_written_file_loads_without_json_loads(tmp_path, monkeypatch):
    ds = synth_dataset(3, 6, 2, 512, 16, 0.1)
    vp, lp = tmp_path / "v.jsonl", tmp_path / "l.jsonl"
    write_anchor_embeddings(ds.video_anchors, vp)
    write_labels(ds.labels, ds.class_names, lp)
    query = vp.read_text().splitlines()[0]

    def load_all():
        return [_anchors_loaded(vp), load_labels(lp), load_query_vector(query)]

    with _stdlib_parse():
        expected = load_all()

    def refuse(*args, **kwargs):
        raise AssertionError("json.loads was called")

    monkeypatch.setattr(json, "loads", refuse)
    assert _same(load_all(), expected)


# ---------------------------------------------------------------------------
# what replaced the big-int guard and the per-record unit vector


@st.composite
def _big_ints(draw) -> int:
    """An int outside [-2**63, 2**64) that float() takes: a float's significand in a binade from
    2**63 to 2**1023, plus an offset below one ulp, often the halfway point or one either side of it."""
    e = draw(st.integers(63, 1023))
    ulp = 1 << (e - 52)
    n = draw(st.integers(2**52, 2**53 - 1)) * ulp + draw(
        st.sampled_from([0, ulp // 2 - 1, ulp // 2, ulp // 2 + 1, ulp - 1]) | st.integers(0, ulp - 1))
    return draw(st.sampled_from([n, -n]))


def _orjson_reads_as_float_of(n: int) -> bool:
    """Whether orjson reads `n`'s literal, alone and in a list, as the float float() makes of it."""
    values = [orjson.loads(str(n)), orjson.loads(f"[{n}, 0.5]")[0]]
    return all(type(v) is float and struct.pack("<d", v) == struct.pack("<d", float(n)) for v in values)


def _in_float_range(n: int) -> bool:
    try:
        return not -2**63 <= n < 2**64 and bool(float(n))
    except OverflowError:
        return False


@settings(max_examples=1000, deadline=None)
@given(n=_big_ints().filter(_in_float_range))
def test_orjson_reads_an_int_outside_its_range_as_float_of_the_int(n):
    assert _orjson_reads_as_float_of(n)


def test_orjson_rounds_halfway_ints_to_even_at_each_binade():
    for e in range(63, 1024):
        ulp = 1 << (e - 52)
        for significand in (2**52, 2**52 + 1, 2**53 - 2, 2**53 - 1):  # even and odd, each end of the binade
            for offset in (ulp // 2 - 1, ulp // 2, ulp // 2 + 1):
                for n in (significand * ulp + offset, -(significand * ulp + offset)):
                    if _in_float_range(n):
                        assert _orjson_reads_as_float_of(n), n


def _per_record_unit_vector(values) -> np.ndarray:
    """A vector made unit as the loader once did it, one record at a time."""
    vec = np.asarray(values, dtype=np.float64)
    vec = vec / float(np.max(np.abs(vec)))
    return vec / np.linalg.norm(vec)


@st.composite
def _vector_blocks(draw) -> list[list]:
    """Lists of one length (1 to 1024) of floats, scaled by up to 1e±300, or of ints, none all 0."""
    dim, n = draw(st.integers(1, 1024)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["float", "tiny", "huge", "int", "big-int"]))
        if kind == "int":
            row = rng.integers(-9, 10, dim).tolist()
        elif kind == "big-int":
            row = [int(v) * 2**70 for v in rng.integers(-9, 10, dim)]
        else:
            row = (rng.standard_normal(dim) * {"float": 1.0, "tiny": 1e-300, "huge": 1e300}[kind]).tolist()
        rows.append(row if any(row) else [1, *row[1:]])
    return rows


@settings(max_examples=300, deadline=None)
@given(vectors=_vector_blocks())
def test_unit_rows_have_the_bits_of_the_per_record_path(vectors):
    rows = signalio._unit_rows(vectors)
    assert rows.shape == (len(vectors), len(vectors[0]))
    for row, values in zip(rows, vectors):
        assert row.tobytes() == _per_record_unit_vector(values).tobytes()


def test_vecdot_sums_a_row_as_a_1d_norm_does():
    """What `_unit_rows`' bits rest on: np.vecdot's float64 loop and a 1-D `dot` reach one dot
    kernel, BLAS ddot for contiguous rows and numpy's own loop for strided ones. The two kernels
    sum in different orders, so matching both shows that they are shared. np.linalg.norm of a
    1-D vector is the square root of its contiguous copy's `dot`, so it takes ddot."""
    rng = np.random.default_rng(0)
    kernels_differ = False
    for dim in [*range(1, 80), 127, 128, 129, 255, 256, 511, 512, 513, 1000, 1024]:
        strided = (rng.standard_normal((4, 2 * dim)) * 10.0 ** rng.integers(-100, 100, (4, 1)))[:, ::2]
        contiguous = np.ascontiguousarray(strided)
        for rows in (contiguous, strided):
            assert np.vecdot(rows, rows).tobytes() == np.array([row.dot(row) for row in rows]).tobytes()
        norms = [np.linalg.norm(row) for row in strided]  # each row copied contiguous first
        assert np.sqrt(np.vecdot(contiguous, contiguous)).tobytes() == np.array(norms).tobytes()
        kernels_differ |= np.vecdot(contiguous, contiguous).tobytes() != np.vecdot(strided, strided).tobytes()
    assert kernels_differ


@pytest.mark.parametrize("n", [signalio._UNIT_BLOCK + d for d in (-1, 0, 1)] + [255, 256, 257])
def test_a_file_loads_a_block_at_a_time_to_the_per_record_bits(tmp_path, n):
    rng = np.random.default_rng(n)
    vectors = (rng.standard_normal((n, 9)) * 10.0 ** rng.integers(-300, 300, (n, 1))).tolist()
    p = tmp_path / "a.jsonl"
    _write_jsonl(p, [{"window_id": f"w{i}", "modality": "text", "vector": v} for i, v in enumerate(vectors)])
    anchors = load_anchor_embeddings(p)
    assert list(anchors) == [f"w{i}" for i in range(n)]
    for i, values in enumerate(vectors):
        assert anchors[f"w{i}"].vector.tobytes() == _per_record_unit_vector(values).tobytes()
    with p.open("a") as fh:  # a refusal after the blocks still names its own line
        fh.write(json.dumps({"window_id": "w0", "modality": "text", "vector": vectors[0]}) + "\n")
    with pytest.raises(DataError, match=f"^{re.escape(f'{p}:{n + 1}: duplicate window_id')}"):
        load_anchor_embeddings(p)


_NOT_NUMBERS = {"string": '"1"', "bool": "true", "nested": "[1.0]", "null": "null"}


@pytest.mark.parametrize("entry", _NOT_NUMBERS.values(), ids=_NOT_NUMBERS.keys())
def test_a_vector_entry_that_is_not_a_number_is_refused_naming_its_line(tmp_path, entry):
    record = f'{{"window_id": "w1", "modality": "video", "vector": [{entry}, 2.5]}}'
    anchors, query = tmp_path / "a.jsonl", tmp_path / "q.jsonl"
    anchors.write_text('{"window_id": "w0", "modality": "video", "vector": [1.0, 2.5]}\n' + record + "\n")
    query.write_text("\n" + record + "\n")
    message = "field 'vector' is missing or not a list of numbers"
    for load, arg, where in ((load_anchor_embeddings, anchors, f"{anchors}:2"),
                             (load_query_vector, str(query), f"{query}:2"),
                             (load_query_vector, record, "--query-anchor")):
        with pytest.raises(DataError, match=f"^{re.escape(f'{where}: {message}')}$"):
            load(arg)


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
    # a set cannot hold a repeated id, so assemble_dataset never receives one
    _, vp, tp, lp = _synth_files(tmp_path, n=4, classes=2, t=64)
    windows = synth_dataset(1, 4, 2, 8, 64, 0.05).windows
    with pytest.raises(DataError, match=r"^windows: repeated window ids: synth-0000:0$"):
        assemble_dataset(WindowSet.concat([windows, windows[:1]]), vp, tp, lp)


def test_assemble_order_insensitive(tmp_path):
    ds, vp, tp, lp = _synth_files(tmp_path, n=5, classes=5)
    a, _ = assemble_dataset(ds.windows, vp, tp, lp)
    b, _ = assemble_dataset(ds.windows[::-1], vp, tp, lp)
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
    assert WindowSet(["w"], ["s"], [0.0], [1.0], np.full((1, 6, 2), -1e308)).n_samples == 2


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
    # such a set cannot be built, so nothing is written
    wins = make_windows(_stream(100, hz=50.0), 1.0, 1.0)[:1]  # one 50-sample window, id src:0
    extra = WindowSet([extra_id], ["src"], [1.0], [1.0], np.zeros((1, 6, n_samples)))
    p = tmp_path / "c.bin"
    with pytest.raises(DataError, match=re.escape(f"windows: {message}") + "$"):
        save_window_cache(WindowCache(WindowSet.concat([wins, extra]), 50.0, 1.0, 1.0), p)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("ids, bad", [(["a", "a"], 0.0), (["a", "b"], math.nan), (["a", "b"], -math.inf)],
                         ids=["repeated-id", "nan", "-inf"])
def test_save_window_cache_never_writes_a_cache_its_loader_refuses(tmp_path, ids, bad):
    signals = np.zeros((2, 6, 4))
    signals[1, 0, 0] = bad
    p = tmp_path / "c.bin"
    with pytest.raises(DataError, match="repeated window ids: a$|^window b: non-finite signal values$"):
        save_window_cache(WindowCache(WindowSet(ids, ["s", "s"], [0.0, 1.0], [1.0, 1.0], signals), 4.0, 1.0, 1.0), p)
    assert not p.exists()


@pytest.mark.parametrize("edit, rows, message", [
    ({"ids": [""]}, 1, "column 'ids' holds an empty window id"),
    ({"ids": [7]}, 1, "column 'ids' is not a list of strings"),
    ({"start_s": ["0"]}, 1, "column 'start_s' is not a list of numbers"),
    ({**_columns(["a", "b"]), "source_ids": ["s"]}, 2, "column 'source_ids' has 1 entries for 2 signal rows"),
    ({"start_s": [math.nan]}, 1, "column 'start_s' is not a list of numbers"),
    ({"duration_s": [10**5000]}, 1, "column 'duration_s' is not a list of numbers"),
], ids=["empty-id", "int-id", "string-start", "short-source-column", "nan-start", "huge-int-duration"])
def test_a_set_its_cache_loader_would_refuse_cannot_be_built(edit, rows, message):
    # so save_window_cache is never handed one
    with pytest.raises(DataError, match=f"^WindowSet: {re.escape(message)}$"):
        WindowSet(**{**_columns(["w0"]), **edit}, signals=np.zeros((rows, 6, 4)))


_column_entries = st.one_of(
    st.text(max_size=3), st.just(""), st.integers(), st.floats(), st.booleans(), st.none(),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.text(max_size=3).map(np.str_),
)


@st.composite
def _set_inputs(draw):
    """WindowSet arguments in which at most two parts are arbitrary: a column
    of any value, or signals of another dtype, rank or channel count; and the
    three sizes of a `WindowCache`. A number may be NaN, an inf, or an int
    past float's range."""
    n = draw(st.integers(0, 3))
    numbers = (st.integers() | st.floats() | st.floats().map(np.float64)
               | st.sampled_from([2**1024, -2**1024, 10**5000]))
    parts = {"ids": st.lists(st.text(min_size=1, max_size=3), min_size=n, max_size=n, unique=True),
             "source_ids": st.lists(st.text(max_size=3) | st.text(max_size=3).map(np.str_), min_size=n, max_size=n),
             "start_s": st.lists(numbers, min_size=n, max_size=n),
             "duration_s": st.lists(numbers, min_size=n, max_size=n),
             "signals": arrays(np.float64, st.sampled_from([(n, 6, 4), (n, 6, 1), (n, 6, 0)]))}
    for part in draw(st.sets(st.sampled_from(sorted(parts)), max_size=2)):
        parts[part] = (arrays(st.sampled_from([np.float64, np.float32, np.int64, np.bool_]),
                              st.sampled_from([(n, 5, 4), (6, 4), (n, 6, 4, 1), (n + 1, 6, 4)]))
                       if part == "signals" else st.lists(_column_entries, max_size=4) | _column_entries)
    parts["sizes"] = st.lists(numbers, min_size=3, max_size=3)
    return {key: draw(strategy) for key, strategy in parts.items()}


def _same_entry(got, given) -> bool:
    """A cache entry as loaded equals the one given and has the JSON type the
    given one is an instance of."""
    kind = str if isinstance(given, str) else int if isinstance(given, int) else float
    return type(got) is kind and got == given


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(inputs=_set_inputs())
def test_a_set_is_refused_when_built_or_its_cache_round_trips(tmp_path, inputs):
    signals, sizes = inputs.pop("signals"), inputs.pop("sizes")
    p = tmp_path / "c.bin"
    p.unlink(missing_ok=True)  # tmp_path is shared by every example
    try:
        save_window_cache(WindowCache(WindowSet(**inputs, signals=signals), *sizes, "h"), p)
    except DataError:
        assert not p.exists()
        return  # any other exception fails the test
    cache = load_window_cache(p)
    assert all(map(_same_entry, [cache.sample_rate_hz, cache.window_s, cache.stride_s], sizes))
    loaded = cache.windows
    for key, column in inputs.items():
        got = getattr(loaded, key)
        assert len(got) == len(column) and all(map(_same_entry, got, column)), key
    assert loaded.signals.shape == signals.shape and loaded.signals.tobytes() == signals.tobytes()


# each header field: (header edit, arrays or None for one (1, 6, 50) row, message after the path);
# a None field is deleted
_MALFORMED_CACHE_HEADERS = {
    "no-signals": ({}, [], "missing arrays ['signals'], unexpected arrays []"),
    "signals-2d": ({}, [("signals", np.zeros((6, 50)))], "array 'signals' has shape (6, 50), expected (None, 6, None)"),
    "no-windows": ({"ids": None}, None, "column 'ids' is not a list of strings"),
    "windows-number": ({"ids": 7}, None, "column 'ids' is not a list of strings"),
    "window-entry-string": ({"duration_s": ["1.0"]}, None,
                            "column 'duration_s' is not a list of numbers"),
    "number-window-id": ({"ids": [7]}, None, "column 'ids' is not a list of strings"),
    "empty-window-id": ({"ids": [""]}, None, "column 'ids' holds an empty window id"),
    "null-source-id": ({"source_ids": [None]}, None, "column 'source_ids' is not a list of strings"),
    "string-start": ({"start_s": ["0"]}, None, "column 'start_s' is not a list of numbers"),
    "more-windows-than-rows": (_columns(["w0", "w1"]), None, "column 'ids' has 2 entries for 1 signal rows"),
    "fewer-windows-than-rows": ({}, [("signals", np.zeros((2, 6, 50)))],
                                "column 'ids' has 1 entries for 2 signal rows"),
    "no-rate": ({"sample_rate_hz": None}, None, "field 'sample_rate_hz' is missing or not a number"),
    "string-window-s": ({"window_s": "1.0"}, None, "field 'window_s' is missing or not a number"),
    "bool-stride-s": ({"stride_s": True}, None, "field 'stride_s' is missing or not a number"),
    "bool-duration": ({"duration_s": [False]}, None, "column 'duration_s' is not a list of numbers"),
    "number-content-hash": ({"content_hash": 7}, None, "field 'content_hash' is missing or not a string"),
    "three-channels": ({}, [("signals", np.zeros((1, 3, 50)))],
                       "array 'signals' has shape (1, 3, 50), expected (None, 6, None)"),
    "extra-array": ({}, [("signals", np.zeros((1, 6, 50))), ("extra", np.zeros(1))],
                    "missing arrays [], unexpected arrays ['extra']"),
    "bool-id": ({"ids": [True]}, None, "column 'ids' is not a list of strings"),
    "null-id": ({"ids": [None]}, None, "column 'ids' is not a list of strings"),
    "start-column-number": ({"start_s": 0.0}, None, "column 'start_s' is not a list of numbers"),
    "source-column-string": ({"source_ids": "s"}, None,
                             "column 'source_ids' is not a list of strings"),
    "no-durations": ({"duration_s": None}, None, "column 'duration_s' is not a list of numbers"),
    "short-source-column": ({**_columns(["w0", "w1"]), "source_ids": ["s"]}, [("signals", np.zeros((2, 6, 50)))],
                            "column 'source_ids' has 1 entries for 2 signal rows"),
    "long-start-column": ({"start_s": [0.0, 1.0]}, None, "column 'start_s' has 2 entries for 1 signal rows"),
    "repeated-id": (_columns(["w0", "w1", "w0", "w1"]), [("signals", np.zeros((4, 6, 50)))],
                    "repeated window ids: w0, w1"),
    "long-ids-and-string-start": ({"ids": ["w0", "w1"], "start_s": ["0"]}, None,  # types before lengths
                                  "column 'start_s' is not a list of numbers"),
    "short-source-column-and-empty-id": ({"ids": [""], "source_ids": []}, None,  # lengths before empty ids
                                         "column 'source_ids' has 0 entries for 1 signal rows"),
    # written as the JSON tokens NaN, -Infinity and Infinity, and an int past float's range
    "nan-start": ({"start_s": [math.nan]}, None, "column 'start_s' is not a list of numbers"),
    "inf-duration": ({"duration_s": [-math.inf]}, None, "column 'duration_s' is not a list of numbers"),
    "nan-rate": ({"sample_rate_hz": math.nan}, None, "field 'sample_rate_hz' is missing or not a number"),
    "inf-rate": ({"sample_rate_hz": math.inf}, None, "field 'sample_rate_hz' is missing or not a number"),
    "huge-int-stride-s": ({"stride_s": 10**400}, None, "field 'stride_s' is missing or not a number"),
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
    assert ds.windows.signals.shape[1:] == (6, 24)
