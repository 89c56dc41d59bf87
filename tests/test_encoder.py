"""Encoder pipeline: init, shapes, invariances, full-pipeline gradient check."""

import json
import re
import time
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from imualign import autodiff as ad
from imualign.autodiff import Tape, Tensor, finite_difference_check
from imualign.container import header_config
from imualign.encoder import (
    EncoderConfig,
    EncoderParams,
    conv_out_len,
    encode,
    encode_batch,
    encode_batch_on_tape,
    init_params,
    param_shapes,
    pipeline_time_lengths,
)
from imualign.errors import DataError, NumericError, ShapeMismatchError
from imualign.signalio import ImuWindow, WindowSet, synth_dataset

from helpers import mul, sum_all

TINY = EncoderConfig(
    conv_channels=(4,), conv_kernels=(5,), conv_strides=(1,),
    gru_hidden=8, embed_dim=8,
)


def _window(seed=0, t=64):
    rng = np.random.default_rng(seed)
    return ImuWindow(f"w{seed}:0", f"w{seed}", 0.0, t / 200.0, rng.standard_normal((6, t)))


def _windows(n, t=64) -> WindowSet:
    """The set of `_window(i, t)` for i < n."""
    return WindowSet([f"w{i}:0" for i in range(n)], [f"w{i}" for i in range(n)], [0.0] * n, [t / 200.0] * n,
                     np.stack([_window(i, t=t).signal for i in range(n)]))


def _params_with(params: EncoderParams, name: str, probe: Tensor) -> EncoderParams:
    return EncoderParams({**params.named(), name: probe})


# ---------------------------------------------------------------------------
# init


def test_init_deterministic():
    a = init_params(TINY, 7)
    b = init_params(TINY, 7)
    for (na, ta), (nb, tb) in zip(a.named().items(), b.named().items()):
        assert na == nb
        np.testing.assert_array_equal(ta.data, tb.data)


def test_init_groupnorm_exact_ones_zeros():
    p = init_params(TINY, 3)
    assert np.all(p["input_gn.gamma"].data == 1.0)
    assert np.all(p["input_gn.beta"].data == 0.0)
    assert np.all(p["post_gn.gamma"].data == 1.0)
    assert np.all(p["post_gn.beta"].data == 0.0)
    assert np.all(p["conv0.b"].data == 0.0)
    assert np.all(p["gru.b_ih"].data == 0.0) and np.all(p["gru.b_hh"].data == 0.0)
    assert np.all(p["proj.b"].data == 0.0)


def test_param_count_closed_form_default_config():
    cfg = EncoderConfig()
    p = init_params(cfg, 0)
    expected = 2 * 6  # input groupnorm
    c_in = 6
    for c_out, k in zip(cfg.conv_channels, cfg.conv_kernels):
        expected += c_out * c_in * k + c_out
        c_in = c_out
    expected += 2 * c_in  # post groupnorm
    h = cfg.gru_hidden
    expected += 3 * h * c_in + 3 * h * h + 3 * h + 3 * h
    expected += cfg.embed_dim * h + cfg.embed_dim
    assert sum(t.data.size for t in p.named().values()) == expected


def test_init_bounds_follow_fan_in():
    p = init_params(TINY, 5)
    w = p["conv0.w"].data
    assert np.abs(w).max() <= 1.0 / np.sqrt(6 * 5)
    assert np.abs(p["proj.w"].data).max() <= 1.0 / np.sqrt(TINY.gru_hidden)


# ---------------------------------------------------------------------------
# config validation


def test_config_list_length_mismatch():
    with pytest.raises(DataError, match="conv_kernels"):
        EncoderConfig(conv_channels=(8, 8), conv_kernels=(5,), conv_strides=(1, 1))
    with pytest.raises(DataError, match="at least one layer"):
        EncoderConfig(conv_channels=(), conv_kernels=(), conv_strides=())
    # a size is an int, never truncated to one
    with pytest.raises(DataError, match=re.escape("encoder config: gru_hidden is not an integer, got 1.5")):
        EncoderConfig(gru_hidden=1.5)
    with pytest.raises(DataError, match=re.escape("conv_channels is not a list of integers, got (32.7, 64, 128)")):
        EncoderConfig(conv_channels=(32.7, 64, 128))
    assert EncoderConfig(conv_channels=[32, 64, 128]) == EncoderConfig()  # a list becomes a tuple


def test_config_round_trips_via_dict():
    cfg = EncoderConfig()
    header = json.loads(json.dumps({"encoder_config": asdict(cfg)}))
    assert header_config("ck.bin", header, "encoder_config", EncoderConfig) == cfg


def test_init_params_too_large_for_numpy_is_data_error():
    with pytest.raises(DataError, match="do not fit in memory"):
        init_params(EncoderConfig(gru_hidden=10**30), 0)


# ---------------------------------------------------------------------------
# encode contract


def test_encode_unit_norm_and_dim():
    p = init_params(TINY, 1)
    out = encode(_window(), p, TINY)
    assert out.shape == (8,)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-6


def test_encode_deterministic():
    p = init_params(TINY, 2)
    w = _window(3)
    np.testing.assert_array_equal(encode(w, p, TINY), encode(w, p, TINY))


def test_encode_too_short_names_layer():
    p = init_params(TINY, 1)
    with pytest.raises(ShapeMismatchError, match="conv layer 0"):
        encode(_window(t=4), p, TINY)
    cfg = EncoderConfig(conv_channels=(4,), conv_kernels=(5,),
                        conv_strides=(3,), gru_hidden=8, embed_dim=8)
    with pytest.raises(ShapeMismatchError, match="pooling kernel"):
        encode(_window(t=14), init_params(cfg, 1), cfg)  # conv leaves 4 < pool kernel 5


@pytest.mark.parametrize("window, message", [
    (ImuWindow("w:0", "w", 0.0, 0.32, np.full((6, 64), np.nan)), "window w:0: non-finite signal values"),
    (ImuWindow("", "w", 0.0, 0.32, np.zeros((6, 64))), "WindowSet: column 'ids' holds an empty window id"),
    (ImuWindow(7, "w", 0.0, 0.32, np.zeros((6, 64))), "WindowSet: column 'ids' is not a list of strings"),
    (ImuWindow("w:0", "w", True, 0.32, np.zeros((6, 64))), "WindowSet: column 'start_s' is not a list of numbers"),
    (ImuWindow("w:0", "w", 0.0, 0.32, np.zeros((3, 64))),
     "WindowSet: signals must be a float64 (n, 6, T) array, got float64 (1, 3, 64)"),
    (ImuWindow("w:0", "w", 0.0, 0.32, np.zeros((6, 64), dtype=np.float32)),
     "WindowSet: signals must be a float64 (n, 6, T) array, got float32 (1, 6, 64)"),
], ids=["nan", "empty-id", "int-id", "bool-start", "three-channels", "float32"])
def test_encode_refuses_a_window_its_one_row_set_refuses(window, message):
    # an ImuWindow is a plain record: encode's one-row WindowSet checks it
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        encode(window, init_params(TINY, 1), TINY)


def test_accel_scaling_absorbed_by_input_groupnorm():
    # scaling one normalization group's channels rescales that group's mean
    # and deviation together, so the standardized signal is unchanged
    p = init_params(TINY, 4)
    w = _window(5)
    scaled = ImuWindow(w.window_id, w.source_id, w.start_s, w.duration_s,
                       np.vstack([w.signal[:3] * 10.0, w.signal[3:]]))
    assert np.linalg.norm(encode(w, p, TINY) - encode(scaled, p, TINY)) < 1e-6


def test_group_permutation_invariance():
    # permute accel channels among themselves and gyro channels among
    # themselves; permuting gamma/beta and first-conv weights to match
    # leaves the embedding unchanged
    p = init_params(TINY, 6)
    w = _window(7)
    perm = np.array([2, 0, 1, 3, 5, 4])
    w2 = ImuWindow(w.window_id, w.source_id, w.start_s, w.duration_s, w.signal[perm])
    p2 = p.copy()
    p2["input_gn.gamma"].data = p["input_gn.gamma"].data[perm]
    p2["input_gn.beta"].data = p["input_gn.beta"].data[perm]
    p2["conv0.w"].data = p["conv0.w"].data[:, perm, :]
    np.testing.assert_allclose(encode(w, p, TINY), encode(w2, p2, TINY), atol=1e-10)


def test_pipeline_time_lengths_closed_form():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        kernels = tuple(int(k) for k in rng.integers(2, 8, size=n))
        strides = tuple(int(s) for s in rng.integers(1, 4, size=n))
        channels = tuple(int(c) for c in rng.integers(2, 6, size=n))
        pool_k = int(rng.integers(2, 5))
        cfg = EncoderConfig(conv_channels=channels, conv_kernels=kernels,
                            conv_strides=strides, pool_kernel=pool_k, pool_stride=pool_k,
                            gru_hidden=4, embed_dim=4)
        t = int(rng.integers(40, 200))
        expected = t
        try:
            lengths = pipeline_time_lengths(cfg, t)
        except ShapeMismatchError:
            continue
        for k, s in zip(kernels, strides):
            expected = conv_out_len(expected, k, s)
        expected_pool = conv_out_len(expected, pool_k, pool_k)
        assert lengths[-2] == expected and lengths[-1] == expected_pool
        emb = encode(_window(t=t), init_params(cfg, 0), cfg)
        assert emb.shape == (4,)


# ---------------------------------------------------------------------------
# batching


def test_encode_batch_consistency_and_permutation():
    p = init_params(TINY, 9)
    windows = _windows(4)
    single = encode(windows[0], p, TINY)
    batch = encode_batch(windows, p, TINY)
    np.testing.assert_array_equal(batch[0], single)
    perm = [2, 0, 3, 1]
    batch_p = encode_batch(windows.take(perm), p, TINY)
    np.testing.assert_array_equal(batch_p, batch[perm])


@pytest.mark.parametrize("config", [TINY, EncoderConfig()], ids=["tiny", "default"])
def test_encode_equals_batch_rows_bit_for_bit(config):
    # a window's embedding must not depend on the batch it is encoded in
    p = init_params(config, 10)
    t = 64 if config is TINY else 200
    windows = _windows(5, t=t)
    for size in (1, 2, 5):
        batch = encode_batch(windows[:size], p, config)
        for i in range(size):
            np.testing.assert_array_equal(encode(windows[i], p, config), batch[i])
    perm = [3, 1, 4, 0, 2]
    np.testing.assert_array_equal(encode_batch(windows.take(perm), p, config),
                                  encode_batch(windows, p, config)[perm])


@pytest.mark.parametrize("config", [TINY, EncoderConfig()], ids=["tiny", "default"])
def test_row_products_keep_a_rows_bits_for_any_row_count(config, blas):
    # the GRU input, recurrent and projection products run as one GEMM over
    # all rows; row i must have the same bits for 1..130 rows at every offset
    shapes = param_shapes(config)
    rng = np.random.default_rng(21)
    for name in ("gru.w_ih", "gru.w_hh", "proj.w"):
        w = rng.standard_normal(shapes[name])
        rows = rng.standard_normal((260, w.shape[1]))
        alone = np.concatenate([ad._row_stable_matmul(rows[j : j + 1], w.T) for j in range(260)])
        for m in range(1, 131):
            for start in (0, 130 - m // 2, 260 - m):
                block = ad._row_stable_matmul(rows[start : start + m], w.T)
                same = np.all(block.view(np.int64) == alone[start : start + m].view(np.int64), axis=1)
                assert same.all(), (f"{name} {w.shape}: rows {np.flatnonzero(~same).tolist()} of a "
                                    f"{m}-row block at {start} changed bits; BLAS: {blas}")


@pytest.mark.parametrize("config", [TINY, EncoderConfig()], ids=["tiny", "default"])
def test_encode_batch_rows_keep_their_bits_across_chunk_boundaries(config):
    # 64 windows fill one chunk; the 65th forms a one-window chunk, which
    # runs the zero-row pad; 129 leaves one window after two full chunks
    p = init_params(config, 12)
    t = 64 if config is TINY else 200
    windows = _windows(129, t=t)
    single = np.stack([encode(w, p, config) for w in windows])
    perm = np.random.default_rng(13).permutation(129)
    for n in (64, 65, 129):
        np.testing.assert_array_equal(encode_batch(windows[:n], p, config), single[:n])
        order = perm[perm < n]
        np.testing.assert_array_equal(encode_batch(windows.take(order), p, config), single[order])


def test_encode_batch_on_tape_rejects_unequal_signals():
    # signals come as one (B, 6, T) array, so they are equal by construction; the array's shape is checked
    p = init_params(TINY, 9)
    for shape in ((6, 64), (0, 6, 64), (1, 3, 64), (1, 6, 64, 1)):
        with pytest.raises(ShapeMismatchError, match=re.escape(f"a (B, 6, T) array with B >= 1, got shape {shape}")):
            encode_batch_on_tape(Tape(), np.zeros(shape), p, TINY)


def test_encode_batch_memory_is_bounded_by_one_chunk():
    # encode_batch works in fixed-size chunks, so the peak memory of a
    # large list exceeds that of a small one by the extra output rows only
    cfg = EncoderConfig()
    p = init_params(cfg, 0)
    windows = _windows(512, t=200)

    def peak(n):
        tracemalloc.start()
        encode_batch(windows[:n], p, cfg)
        _, top = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return top

    small, large = peak(64), peak(512)
    extra_rows = (512 - 64) * cfg.embed_dim * 8
    assert large - small < extra_rows + (1 << 20), (small, large)


def test_encode_batch_refuses_a_non_finite_embedding_naming_its_window():
    p = init_params(TINY, 9)
    windows = _windows(3)
    windows.signals[1, 0, 0] = np.nan  # past the check the set's builder makes
    with pytest.raises(NumericError, match="window 'w1:0' embeds to non-finite values"):
        encode_batch(windows, p, TINY)


def test_encode_batch_refuses_a_signal_whose_group_variance_overflows():
    # finite, so the set takes it; the input GroupNorm's variance overflows, and under the
    # suite's error::RuntimeWarning filter the refusal comes without a numpy warning
    p = init_params(TINY, 9)
    windows = _windows(3)
    windows.signals[2, 4, 7] = 3.4e307
    with pytest.raises(NumericError, match="^encode_batch: window 'w2:0' embeds to non-finite values$"):
        encode_batch(windows, p, TINY)


def test_encode_batch_refuses_parameters_that_overflow_without_a_warning():
    p = init_params(TINY, 9)
    p["conv0.w"].data = p["conv0.w"].data.copy()
    p["conv0.w"].data.flat[0] = 1e308
    with pytest.raises(NumericError, match="embeds to non-finite values"):
        encode_batch(_windows(3), p, TINY)


def test_windows_of_mixed_lengths_never_reach_encode_batch():
    # encode_batch takes a WindowSet, whose signals are one (n, 6, T) array
    with pytest.raises(DataError, match=r"^windows: mixed window lengths \[32, 64\]$"):
        WindowSet.concat([_windows(1, t=64), _windows(2, t=32)[1:]])


def test_encode_batch_default_config_timing():
    # informal: a 16-window default-config batch targets < 1 s on one core
    cfg = EncoderConfig()
    p = init_params(cfg, 0)
    ds = synth_dataset(0, 16, 4, cfg.embed_dim, 1000, 0.05)
    t0 = time.time()
    out = encode_batch(ds.windows, p, cfg)
    elapsed = time.time() - t0
    assert out.shape == (16, 512)
    assert elapsed < 10.0, f"pathologically slow batch encode: {elapsed:.2f}s"
    tape = Tape()
    encode_batch_on_tape(tape, ds.windows.signals, p, cfg)
    assert len(tape) == 12  # one entry per layer kernel: GN, 3 x (conv, ReLU), pool, GN, GRU, linear, L2


# ---------------------------------------------------------------------------
# full-pipeline gradient check (tiny config)


def test_full_pipeline_gradient_check_every_parameter():
    params = init_params(TINY, 3)
    signal = np.random.default_rng(42).standard_normal((6, 32))
    for name, tensor in params.named().items():
        def f(tape, probe, _name=name):
            emb = encode_batch_on_tape(tape, signal[None], _params_with(params, _name, probe), TINY)
            return sum_all(tape, emb)

        err = finite_difference_check(f, tensor)
        assert err < 1e-4, f"{name}: relative error {err}"


def test_full_pipeline_gradient_check_on_a_batch_of_three():
    params = init_params(TINY, 4)
    signals = np.random.default_rng(43).standard_normal((3, 6, 32))
    weights = Tensor(np.random.default_rng(44).standard_normal((3, TINY.embed_dim)))
    for name, tensor in params.named().items():
        def f(tape, probe, _name=name):
            emb = encode_batch_on_tape(tape, signals, _params_with(params, _name, probe), TINY)
            return sum_all(tape, mul(tape, emb, weights))

        err = finite_difference_check(f, tensor)
        assert err < 1e-4, f"{name}: relative error {err}"
