"""How `read_container` reads a file: the refusal for every cut of a saved
container, the memory one load holds, and paths that are not regular files."""

import json
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest

from imualign.container import read_container, write_container
from imualign.encoder import EncoderConfig, init_params
from imualign.errors import FormatError
from imualign.signalio import (
    CACHE_MAGIC,
    CACHE_VERSION,
    ImuStream,
    WindowCache,
    WindowSet,
    load_window_cache,
    make_windows,
    save_window_cache,
)
from imualign.train import AdagradState, TrainConfig, load_checkpoint, save_checkpoint

TINY_ENC = EncoderConfig(conv_channels=(2,), conv_kernels=(3,), conv_strides=(1,), gru_hidden=2, embed_dim=2)


def _cache(n_windows: int, n_samples: int) -> WindowCache:
    rng = np.random.default_rng(0)
    windows = WindowSet([f"w{i:04d}" for i in range(n_windows)], ["s"] * n_windows,
                        [float(i) for i in range(n_windows)], [1.0] * n_windows,
                        rng.standard_normal((n_windows, 6, n_samples)))
    return WindowCache(windows, float(n_samples), 1.0, 1.0, "h")


def _save_cache(path):
    save_window_cache(_cache(2, 4), path)


def _save_checkpoint(path):
    state = AdagradState({"conv0.w": np.full((2, 6, 3), 0.5)}, step=3)
    save_checkpoint(path, init_params(TINY_ENC, 0), state, TINY_ENC, TrainConfig(), step=3)


def _expected_refusal(path, full: bytes, n: int) -> str | None:
    """The message for `full` cut (or padded) to `n` bytes, from the layout alone; None: it loads."""
    if n < 13:
        return f"{path}: truncated container (only {n} bytes)"
    hlen = int.from_bytes(full[5:13], "little")
    if n < 13 + hlen:
        return f"{path}: truncated header ({hlen} bytes declared)"
    end = 13 + hlen
    for meta in json.loads(full[13:end])["arrays"]:
        end += 8 * math.prod(meta["shape"])
        if n < end:
            return f"{path}: truncated payload for array {meta['name']!r}"
    return None if n == end else f"{path}: {n - end} trailing bytes after payload"


@pytest.mark.parametrize("save, load", [(_save_cache, load_window_cache), (_save_checkpoint, load_checkpoint)],
                         ids=["cache", "checkpoint"])
def test_every_cut_and_padding_is_refused_with_its_message(tmp_path, save, load):
    src = tmp_path / "full.bin"
    save(src)
    full = src.read_bytes()
    p = tmp_path / "cut.bin"
    messages = []
    for n in range(len(full) + 4):
        p.write_bytes(full[:n] + b"\0" * (n - len(full)))
        expected = _expected_refusal(p, full, n)
        if expected is None:
            load(p)
            continue
        with pytest.raises(FormatError) as exc:
            load(p)
        assert str(exc.value) == expected, n
        messages.append(expected)
    for phrase in ("truncated container", "truncated header", "truncated payload", "trailing bytes"):
        assert any(phrase in m for m in messages), phrase


def _peak_while(load) -> int:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        load()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_cache_load_holds_its_payload_about_once(tmp_path):
    p = tmp_path / "c.bin"
    save_window_cache(_cache(850, 200), p)
    payload = 850 * 6 * 200 * 8
    peak = _peak_while(lambda: load_window_cache(p))
    assert peak < 1.25 * payload, f"peak {peak} bytes for a {payload}-byte payload"


def test_a_cache_save_of_made_windows_holds_its_payload_about_once(tmp_path):
    rng = np.random.default_rng(0)
    stream = ImuStream("s", 200.0, np.arange(60_000) / 200.0, rng.standard_normal((60_000, 6)))
    windows = make_windows(stream, 1.0, 1.0)  # transposed (6, 200) views of the stream
    p = tmp_path / "c.bin"
    peak = _peak_while(lambda: save_window_cache(WindowCache(windows, 200.0, 1.0, 1.0, "h"), p))
    payload = 300 * 6 * 200 * 8
    assert peak < 1.25 * payload, f"peak {peak} bytes for a {payload}-byte payload"
    header, arrays = read_container(p, CACHE_MAGIC, CACHE_VERSION)
    expected = tmp_path / "expected.bin"
    write_container(expected, CACHE_MAGIC, CACHE_VERSION, header,
                    [("signals", np.array([stream.values[i : i + 200].T for i in range(0, 60_000, 200)]))])
    assert p.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("header_len, header", [
    (None, '{"arrays":[{"name":"a","shape":[1099511627776]}]}'),
    (2**40, "{}"),
], ids=["array-of-2**40-floats", "header-of-2**40-bytes"])
def test_sizes_declared_past_the_file_are_refused_before_allocation(tmp_path, header_len, header):
    blob = header.encode()
    p = tmp_path / "c.bin"
    p.write_bytes(b"TEST\x01" + (header_len or len(blob)).to_bytes(8, "little") + blob)
    assert p.stat().st_size < 100

    def load():
        with pytest.raises(FormatError, match="truncated"):
            read_container(p, b"TEST", 1)

    assert _peak_while(load) < 2**20


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("edit", [lambda b: b, lambda b: b[:7], lambda b: b[:40], lambda b: b[:-1],
                                  lambda b: b + b"\0\0"],
                         ids=["whole", "cut-in-prefix", "cut-in-header", "cut-in-payload", "padded"])
def test_a_cache_read_from_a_pipe_loads_as_from_a_file(tmp_path, edit):
    src = tmp_path / "c.bin"
    _save_cache(src)
    full = src.read_bytes()
    raw = edit(full)
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(raw,), daemon=True)
    writer.start()
    try:
        expected = _expected_refusal(fifo, full, len(raw))
        if expected is None:
            loaded = load_window_cache(fifo)
            assert [w.window_id for w in loaded.windows] == ["w0000", "w0001"]
            np.testing.assert_array_equal(np.stack([w.signal for w in loaded.windows]),
                                          np.stack([w.signal for w in load_window_cache(src).windows]))
        else:
            with pytest.raises(FormatError) as exc:
                load_window_cache(fifo)
            assert str(exc.value) == expected
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()
