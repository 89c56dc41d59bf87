"""Batching, Adagrad, decay schedule, training loop, checkpointing."""

import copy
import json
import math
import re
import threading
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from imualign import container, evaluate, signalio, train
from imualign.autodiff import Tensor
from imualign.container import read_container, write_container
from imualign.encoder import EncoderConfig, init_params
from imualign.errors import DataError, FormatError, NumericError
from imualign.signalio import synth_dataset
from imualign.train import (
    AdagradState,
    TrainConfig,
    adagrad_step,
    fit,
    load_checkpoint,
    lr_at,
    make_batches,
    save_checkpoint,
    train_epoch,
)

SMALL_ENC = EncoderConfig(
    conv_channels=(8,), conv_kernels=(7,), conv_strides=(2,),
    gru_hidden=12, embed_dim=16,
)


def _dataset(n=8, classes=2, dim=16, t=64, noise=0.05, seed=5):
    return synth_dataset(seed, n, classes, dim, t, noise)


# ---------------------------------------------------------------------------
# make_batches


def test_batches_partition():
    batches = make_batches(32, 16, seed=1, epoch=0)
    assert len(batches) == 2
    flat = sorted(i for b in batches for i in b)
    assert flat == list(range(32))


def test_batches_deterministic_per_seed_epoch():
    assert make_batches(20, 5, 3, 4) == make_batches(20, 5, 3, 4)
    assert make_batches(20, 5, 3, 4) != make_batches(20, 5, 3, 5)


def test_batches_drop_trailing_partial():
    batches = make_batches(33, 16, seed=0, epoch=0)
    assert len(batches) == 2
    assert sum(len(b) for b in batches) == 32


def test_batches_too_small_dataset():
    with pytest.raises(DataError, match="smaller than batch size"):
        make_batches(8, 16, 0, 0)


# ---------------------------------------------------------------------------
# adagrad


def test_adagrad_first_step_hand_value():
    p = Tensor(np.array([1.0]), requires_grad=True)
    state = AdagradState()
    adagrad_step({"p": p}, {"p": np.array([3.0])}, state, lr=0.01, eps=1e-8)
    np.testing.assert_allclose(state.accumulators["p"], [9.0])
    np.testing.assert_allclose(p.data, [1.0 - 0.01 * 3.0 / (3.0 + 1e-8)], atol=1e-15)


def test_adagrad_zero_gradient_noop():
    p = Tensor(np.array([2.0, -1.0]), requires_grad=True)
    state = AdagradState()
    adagrad_step({"p": p}, {"p": np.zeros(2)}, state, lr=0.1, eps=1e-8)
    np.testing.assert_array_equal(p.data, [2.0, -1.0])
    np.testing.assert_array_equal(state.accumulators["p"], [0.0, 0.0])


def test_adagrad_two_unit_steps():
    p = Tensor(np.array([0.0]), requires_grad=True)
    state = AdagradState()
    adagrad_step({"p": p}, {"p": np.array([1.0])}, state, lr=0.01, eps=1e-8)
    first = p.data.copy()
    adagrad_step({"p": p}, {"p": np.array([1.0])}, state, lr=0.01, eps=1e-8)
    np.testing.assert_allclose(first, [-0.01], atol=1e-9)
    np.testing.assert_allclose(p.data - first, [-0.01 / math.sqrt(2)], atol=1e-9)


def test_adagrad_step_magnitude_non_increasing():
    p = Tensor(np.array([0.0]), requires_grad=True)
    state = AdagradState()
    last = np.inf
    for _ in range(10):
        before = p.data.copy()
        adagrad_step({"p": p}, {"p": np.array([0.7])}, state, lr=0.05, eps=1e-8)
        step = abs(float(p.data[0] - before[0]))
        assert step <= last + 1e-15
        last = step


def test_adagrad_rejects_non_finite_gradient():
    p = Tensor(np.arange(4.0), requires_grad=True)
    state = AdagradState()
    adagrad_step({"p": p}, {"p": np.ones(4)}, state, 0.01, 1e-8)
    before = p.data.tobytes()
    for bad, fault in ((np.nan, "non-finite gradient"), (np.inf, "non-finite gradient"),
                       (-np.inf, "non-finite gradient"), (1e200, "overflowing squared gradient")):
        with pytest.raises(NumericError, match=f"{fault} for parameter p"):
            adagrad_step({"p": p}, {"p": np.array([0.5, bad, 0.5, 0.5])}, state, 0.01, 1e-8)
        assert p.data.tobytes() == before


def test_adagrad_matches_the_update_formula_bit_for_bit_over_50_steps():
    rng = np.random.default_rng(3)
    shapes = {"w": (7, 5), "b": (5,), "still": (3,)}
    params = {k: Tensor(rng.standard_normal(s), requires_grad=True) for k, s in shapes.items()}
    ref = {k: t.data.copy() for k, t in params.items()}
    ref_acc = {k: np.zeros(s) for k, s in shapes.items()}
    state = AdagradState()
    for step in range(50):
        lr = 0.05 / (1 + 0.1 * step)
        grads = {k: rng.standard_normal(s) * 10.0 ** rng.integers(-12, 12, size=s) for k, s in shapes.items()}
        grads["w"][rng.random(shapes["w"]) < 0.3] = 0.0
        grads["still"] = np.zeros(3) if step % 2 else -np.zeros(3)
        adagrad_step(params, grads, state, lr, 1e-8)
        for k, g in grads.items():
            ref_acc[k] += g * g
            ref[k] = ref[k] - lr * g / (np.sqrt(ref_acc[k]) + 1e-8)
            assert params[k].data.tobytes() == ref[k].tobytes(), (step, k)
            assert state.accumulators[k].tobytes() == ref_acc[k].tobytes(), (step, k)
    assert state.step == 50


# ---------------------------------------------------------------------------
# the shared optimization step: gradients + adagrad_step


def _nan_at(tensor):
    tensor.data = tensor.data.copy()
    tensor.data.flat[0] = np.nan


def test_train_epoch_refuses_a_non_finite_loss():
    params = init_params(SMALL_ENC, 0)
    _nan_at(params["proj.w"])
    cfg = TrainConfig(batch_size=4, epochs=1, mode="iv")
    with pytest.raises(NumericError, match="non-finite loss"):
        train_epoch(_dataset(n=8), params, AdagradState(), cfg, SMALL_ENC, 0)


def test_fit_linear_head_refuses_a_non_finite_loss():
    emb = np.random.default_rng(0).standard_normal((6, 4))
    emb[2, 1] = np.nan
    with pytest.raises(NumericError, match="non-finite loss"):
        evaluate.fit_linear_head(emb, np.arange(6) % 2, ["a", "b"], evaluate.ProbeConfig(epochs=1))


def test_fine_tune_refuses_a_non_finite_loss():
    params = init_params(SMALL_ENC, 0)
    _nan_at(params["conv0.w"])
    with pytest.raises(NumericError, match="non-finite loss"):
        evaluate.fine_tune(_dataset(n=8), params, None, SMALL_ENC, evaluate.ProbeConfig(epochs=1))


# ---------------------------------------------------------------------------
# lr schedule


def test_lr_at_examples():
    assert lr_at(0, 0.01, 0.1) == 0.01
    assert abs(lr_at(10, 0.01, 0.1) - 0.005) < 1e-15
    assert lr_at(123, 0.42, 0.0) == 0.42


# ---------------------------------------------------------------------------
# TrainConfig defaults


def test_default_hyperparameters():
    cfg = TrainConfig()
    assert cfg.batch_size == 16
    assert cfg.learning_rate == 0.01
    assert cfg.adagrad_eps == 1e-8
    assert cfg.decay == 0.1
    d = asdict(cfg)
    assert (d["batch_size"], d["learning_rate"], d["adagrad_eps"], d["decay"]) == (16, 0.01, 1e-8, 0.1)


def test_config_validation():
    with pytest.raises(DataError):
        TrainConfig(batch_size=1)
    with pytest.raises(DataError):
        TrainConfig(mode="video")
    with pytest.raises(DataError):
        TrainConfig(learning_rate=0.0)
    for field in ("learning_rate", "temperature", "adagrad_eps", "decay"):
        for bad in (math.nan, math.inf):
            with pytest.raises(DataError, match=f"^train config: {field} is not a number, got {bad}$"):
                TrainConfig(**{field: bad})
    for field in ("epochs", "seed"):
        with pytest.raises(DataError, match="must be >= 0"):
            TrainConfig(**{field: -1})
    # each would reach a checkpoint its loader refuses, json.dumps or range()
    for field, bad in [("seed", True), ("seed", np.int64(1)), ("epochs", 1.5)]:
        with pytest.raises(DataError, match=re.escape(f"train config: {field} is not an integer, got {bad!r}") + "$"):
            TrainConfig(**{field: bad})
    assert TrainConfig(epochs=0, decay=0.0).epochs == 0


# ---------------------------------------------------------------------------
# train_epoch


def test_epoch_loss_decreases_on_clean_fixture():
    ds = synth_dataset(3, 32, 4, 16, 64, 0.0)
    cfg = TrainConfig(epochs=5, seed=0, mode="iv")
    params = init_params(SMALL_ENC, 0)
    state = AdagradState()
    losses = [train_epoch(ds, params, state, cfg, SMALL_ENC, e)["l_total"] for e in range(5)]
    assert all(b < a for a, b in zip(losses, losses[1:])), losses


def test_single_batch_when_b_equals_dataset():
    ds = _dataset(n=8)
    cfg = TrainConfig(batch_size=8, epochs=1, seed=0, mode="iv")
    params = init_params(SMALL_ENC, 0)
    state = AdagradState()
    train_epoch(ds, params, state, cfg, SMALL_ENC, 0)
    assert state.step == 1


def test_training_determinism():
    ds = _dataset(n=8)
    results = []
    for _ in range(2):
        params = init_params(SMALL_ENC, 1)
        state = AdagradState()
        cfg = TrainConfig(batch_size=4, epochs=3, seed=7, mode="iv")
        for e in range(cfg.epochs):
            train_epoch(ds, params, state, cfg, SMALL_ENC, e)
        results.append(params.checksum())
    assert results[0] == results[1]


def test_anchors_frozen_through_training():
    ds = _dataset(n=8)
    before = ds.anchor_checksum()
    params = init_params(SMALL_ENC, 1)
    state = AdagradState()
    cfg = TrainConfig(batch_size=4, epochs=2, seed=0, mode="ivt")
    for e in range(cfg.epochs):
        train_epoch(ds, params, state, cfg, SMALL_ENC, e)
    assert ds.anchor_checksum() == before


def test_mode_it_requires_text_anchors():
    ds = _dataset(n=8)
    ds.text_anchors = None
    cfg = TrainConfig(batch_size=4, epochs=1, mode="it")
    params, state = init_params(SMALL_ENC, 0), AdagradState()
    before = params.checksum()
    with pytest.raises(DataError, match="^dataset has no text anchors$"):
        train_epoch(ds, params, state, cfg, SMALL_ENC, 0)
    assert params.checksum() == before and (state.step, state.accumulators) == (0, {})


def test_initial_loss_near_log_b():
    # random params, random data: retrieval distribution near uniform
    ds = _dataset(n=16, classes=4, dim=64, t=64, noise=0.5, seed=11)
    cfg = TrainConfig(batch_size=16, epochs=1, seed=0, mode="iv")
    enc = EncoderConfig(conv_channels=(8,), conv_kernels=(7,),
                        conv_strides=(2,), gru_hidden=12, embed_dim=64)
    report = train_epoch(ds, init_params(enc, 13), AdagradState(), cfg, enc, 0)
    log_b = math.log(16)
    assert 0.5 * log_b <= report["l_total"] <= 1.5 * log_b


@pytest.mark.parametrize("mode, directions, syms", [
    ("iv", ["l_i2v", "l_v2i"], ["l_sym_iv"]),
    ("it", ["l_i2t", "l_t2i"], ["l_sym_it"]),
    ("ivt", ["l_i2v", "l_v2i", "l_i2t", "l_t2i"], ["l_sym_iv", "l_sym_it"]),
], ids=["iv", "it", "ivt"])
def test_mode_reports_expected_fields(tmp_path, mode, directions, syms):
    ds = _dataset(n=8)
    cfg = TrainConfig(batch_size=4, epochs=2, mode=mode)
    report = train_epoch(ds, init_params(SMALL_ENC, 0), AdagradState(), cfg, SMALL_ENC, 0)
    assert set(report) == {*directions, *syms, "l_total"}
    assert abs(report["l_total"] - sum(report[k] for k in syms)) < 1e-12
    # history and metrics.jsonl leave out the symmetric losses
    _, _, history = fit(ds, SMALL_ENC, cfg, run_dir=tmp_path)
    lines = [json.loads(l) for l in (tmp_path / "metrics.jsonl").read_text().splitlines()]
    assert history == lines and [l["epoch"] for l in lines] == [0, 1]
    assert all(set(line) == {"epoch", "lr", *directions, "l_total"} for line in lines)


# ---------------------------------------------------------------------------
# checkpointing


def test_checkpoint_round_trip_bit_exact(tmp_path):
    params = init_params(SMALL_ENC, 2)
    state = AdagradState({"conv0.w": np.random.default_rng(0).uniform(size=(8, 6, 7))}, step=9)
    cfg = TrainConfig(epochs=3)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(p1, params, state, SMALL_ENC, cfg, step=3)
    ck = load_checkpoint(p1)
    save_checkpoint(p2, ck.params, ck.opt_state, ck.encoder_config, ck.train_config, ck.step)
    assert p1.read_bytes() == p2.read_bytes()
    assert ck.step == 3
    assert ck.train_config == cfg
    assert ck.encoder_config == SMALL_ENC
    assert ck.params.checksum() == params.checksum()
    assert ck.opt_state.step == 9


def test_checkpoint_resume_matches_uninterrupted(tmp_path):
    ds = _dataset(n=8)
    enc = SMALL_ENC

    cfg2 = TrainConfig(batch_size=4, epochs=2, seed=3, mode="iv")
    params_full = init_params(enc, cfg2.seed)
    state_full = AdagradState()
    for e in range(2):
        train_epoch(ds, params_full, state_full, cfg2, enc, e)

    cfg1 = TrainConfig(batch_size=4, epochs=1, seed=3, mode="iv")
    params_half = init_params(enc, cfg1.seed)
    state_half = AdagradState()
    train_epoch(ds, params_half, state_half, cfg1, enc, 0)
    ck_path = tmp_path / "ck.bin"
    save_checkpoint(ck_path, params_half, state_half, enc, cfg1, step=1)
    ck = load_checkpoint(ck_path)
    train_epoch(ds, ck.params, ck.opt_state, cfg2, enc, ck.step)
    assert ck.params.checksum() == params_full.checksum()


@pytest.mark.parametrize("step, opt_step, message", [
    (1.9, 0, "field 'step' is missing or not an integer"),
    (10**400, 0, "field 'step' is missing or not an integer"),
    (True, 0, "field 'step' is missing or not an integer"),
    (1, True, "opt: field 'step' is missing or not an integer"),
    (1, 1.9, "opt: field 'step' is missing or not an integer"),
], ids=["float-step", "huge-int-step", "bool-step", "bool-opt-step", "float-opt-step"])
def test_save_checkpoint_refuses_a_step_its_loader_would_refuse(tmp_path, step, opt_step, message):
    p = tmp_path / "ck.bin"
    state = AdagradState({"conv0.w": np.ones((8, 6, 7))}, step=opt_step)
    with pytest.raises(DataError, match=re.escape(f"{p}") + ".*" + re.escape(message)):
        save_checkpoint(p, init_params(SMALL_ENC, 0), state, SMALL_ENC, TrainConfig(), step=step)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("enc, state, message", [
    (EncoderConfig(conv_channels=(8,), conv_kernels=(7,), conv_strides=(2,), gru_hidden=12, embed_dim=8), None,
     "array 'param.proj.w' has shape (8, 12), expected (16, 12)"),
    (SMALL_ENC, AdagradState({"conv9.w": np.ones((8, 6, 7))}),
     "optimizer state names parameters the encoder does not have"),
    (SMALL_ENC, AdagradState({"conv0.w": np.ones(3)}), "array 'acc.conv0.w' has shape (3,), expected (8, 6, 7)"),
], ids=["params-of-another-config", "unknown-accumulator", "accumulator-shape"])
def test_save_checkpoint_refuses_what_its_loader_would_refuse(tmp_path, enc, state, message):
    # the saver runs the loader's checks (train._checkpoint), so it refuses with the loader's text
    p = tmp_path / "ck.bin"
    with pytest.raises(DataError, match=f"^{re.escape(f'{p}: {message}')}$"):
        save_checkpoint(p, init_params(enc, 0), state, SMALL_ENC, TrainConfig(), step=1)
    assert list(tmp_path.iterdir()) == []  # neither the file nor its temp file


def test_checkpoint_corrupted_magic(tmp_path):
    p = tmp_path / "ck.bin"
    save_checkpoint(p, init_params(SMALL_ENC, 0), None, SMALL_ENC, None, 0)
    raw = bytearray(p.read_bytes())
    raw[:4] = b"JUNK"
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="bad magic"):
        load_checkpoint(p)


def _rewrite_checkpoint(path, edit):
    """Apply `edit(header, arrays)` to a checkpoint file in place."""
    header, arrays = read_container(path, b"IMUK", 1)
    edit(header, arrays)
    write_container(path, b"IMUK", 1, header, list(arrays.items()))


def _save_small_checkpoint(path):
    state = AdagradState({"conv0.w": np.ones((8, 6, 7))}, step=2)
    save_checkpoint(path, init_params(SMALL_ENC, 0), state, SMALL_ENC, TrainConfig(), 0)


@pytest.mark.parametrize("edit, message", [
    (lambda h, a: h["encoder_config"].update(unknown_knob=1), "encoder_config has fields"),
    (lambda h, a: h["encoder_config"].update(n_conv_layers=1), "encoder_config has fields"),
    (lambda h, a: h["encoder_config"].update(groupnorm_eps=1e-8), "encoder_config has fields"),
    (lambda h, a: h["train_config"].update(unknown_knob=1), "train_config has fields"),
    (lambda h, a: h.pop("param_names"), "'param_names' is missing"),
    (lambda h, a: h.pop("step"), "'step' is missing"),
    (lambda h, a: h["encoder_config"].update(conv_channels=[10**12]), "has shape (8, 6, 7)"),
    (lambda h, a: a.update({"param.extra": np.zeros(1)}), "unexpected arrays ['param.extra']"),
    (lambda h, a: a.update({"acc.conv0.w": np.zeros(3)}), "array 'acc.conv0.w' has shape (3,)"),
    (lambda h, a: h.update(step=1.9), "'step' is missing or not an integer"),
    (lambda h, a: h.update(step=True), "'step' is missing or not an integer"),
    (lambda h, a: h["opt"].update(step=True), "opt: field 'step'"),
    (lambda h, a: h["encoder_config"].update(conv_channels=[8.7]), "not a list of integers"),
    (lambda h, a: h["train_config"].pop("seed"), "train_config has fields"),
    (lambda h, a: h["train_config"].update(learning_rate=math.nan), "learning_rate is not a number, got nan"),
    (lambda h, a: h["train_config"].update(seed=True), "seed is not an integer, got True"),
    (lambda h, a: h["train_config"].update(temperature=math.inf), "temperature is not a number, got inf"),
    (lambda h, a: h["encoder_config"].update(conv_channels=[-math.inf]), "not a list of integers, got [-inf]"),
    (lambda h, a: h["opt"].update(names=["conv9.w"]), "names parameters the encoder does not have"),
], ids=["encoder_config-key", "old-n_conv_layers", "old-groupnorm_eps", "train_config-key",
        "no-param_names", "no-step", "huge-channels", "extra-array", "accumulator-shape",
        "float-step", "bool-step", "bool-opt-step", "float-channels", "missing-config-field",
        "nan-learning-rate", "bool-seed", "inf-temperature", "inf-channels", "unknown-accumulator"])
def test_checkpoint_malformed_header_is_format_error(tmp_path, edit, message):
    p = tmp_path / "ck.bin"
    _save_small_checkpoint(p)
    _rewrite_checkpoint(p, edit)
    with pytest.raises(FormatError, match=re.escape(f"{p}") + ".*" + re.escape(message)):
        load_checkpoint(p)


def _layout_bytes(magic, version, header, arrays) -> bytes:
    """The container layout spelled out, each payload as a `tobytes()` copy."""
    header = {**header, "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays]}
    payload = b"".join(np.ascontiguousarray(a, dtype=np.float64).tobytes() for _, a in arrays)
    return _container_bytes(json.dumps(header, sort_keys=True, separators=(",", ":")), payload, magic, version)


def test_checkpoint_and_window_cache_bytes_are_the_container_layout(tmp_path, monkeypatch):
    calls = []

    def recording_write(path, *args):
        calls.append((path, args))
        write_container(path, *args)

    monkeypatch.setattr(train, "write_container", recording_write)
    monkeypatch.setattr(signalio, "write_container", recording_write)
    ds = _dataset(n=8)
    params, state, _ = fit(ds, SMALL_ENC, TrainConfig(batch_size=4, epochs=1, mode="iv"))
    save_checkpoint(tmp_path / "ck.bin", params, state, SMALL_ENC, TrainConfig(), step=1)
    cache = signalio.WindowCache(ds.windows, 200.0, 0.32, 0.32, "h")
    signalio.save_window_cache(cache, tmp_path / "windows.bin")
    rng = np.random.default_rng(0)
    odd = [("fortran", np.asfortranarray(rng.standard_normal((3, 4)))),
           ("transposed", rng.standard_normal((4, 3, 2)).transpose(2, 0, 1)),
           ("reversed", rng.standard_normal(7)[::-2]), ("float32", rng.standard_normal(5, dtype=np.float32)),
           ("big-endian", rng.standard_normal(3).astype(">f8")), ("scalar", np.array(-0.0)),
           ("empty", np.zeros((0, 6, 0)))]
    recording_write(tmp_path / "odd.bin", b"TEST", 1, {}, odd)
    assert [Path(p).name for p, _ in calls] == ["ck.bin", "windows.bin", "odd.bin"]
    for path, args in calls:
        assert Path(path).read_bytes() == _layout_bytes(*args), path


def test_two_threads_writing_one_path_both_succeed(tmp_path, monkeypatch):
    # both temp files exist before either rename: with one temp name per
    # process, the second rename would find its temp file gone
    barrier, real_replace = threading.Barrier(2, timeout=30), container.os.replace

    def replace_after_both_wrote(src, dst):
        barrier.wait()
        real_replace(src, dst)

    monkeypatch.setattr(container.os, "replace", replace_after_both_wrote)
    p = tmp_path / "c.bin"
    payloads = [np.full((2, 3), float(i)) for i in range(2)]
    errors = []

    def write(a):
        try:
            write_container(p, b"TEST", 1, {}, [("a", a)])
        except Exception as exc:  # noqa: BLE001 -- reported below
            errors.append(exc)

    threads = [threading.Thread(target=write, args=(a,)) for a in payloads]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    _, arrays = read_container(p, b"TEST", 1)
    assert any(np.array_equal(arrays["a"], a) for a in payloads)
    assert [f.name for f in tmp_path.iterdir()] == ["c.bin"]


def _container_bytes(header_json: str, payload: bytes = b"", magic: bytes = b"TEST", version: int = 1) -> bytes:
    blob = header_json.encode("utf-8")
    return magic + bytes([version]) + len(blob).to_bytes(8, "little") + blob + payload


@pytest.mark.parametrize("arrays", [
    5, "x", {"name": "a"}, [1], [None], [{"shape": [1]}], [{"name": 3, "shape": [1]}],
    [{"name": "a"}], [{"name": "a", "shape": 1}], [{"name": "a", "shape": ["a"]}],
    [{"name": "a", "shape": [-1]}], [{"name": "a", "shape": [1.0]}], [{"name": "a", "shape": [True]}],
    [{"name": "a", "shape": [1]}, {"name": "a", "shape": [0]}],
], ids=["number", "string", "object", "number-entry", "null-entry", "no-name", "number-name",
        "no-shape", "number-shape", "string-dim", "negative-dim", "float-dim", "bool-dim",
        "repeated-name"])
def test_container_malformed_arrays_metadata_is_format_error(tmp_path, arrays):
    p = tmp_path / "c.bin"
    p.write_bytes(_container_bytes(json.dumps({"arrays": arrays}), b"\0" * 8))
    with pytest.raises(FormatError, match=f"{p}: malformed arrays metadata") as exc:
        read_container(p, b"TEST", 1)
    if isinstance(arrays, list) and len(arrays) == 2:  # repeated-name
        assert str(exc.value).endswith("array 'a' repeated")


def test_container_empty_array_too_large_for_numpy_is_format_error(tmp_path):
    p = tmp_path / "c.bin"
    p.write_bytes(_container_bytes(json.dumps({"arrays": [{"name": "a", "shape": [0, 2**70]}]})))
    with pytest.raises(FormatError, match="unsupported shape"):
        read_container(p, b"TEST", 1)


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=12)
_array_meta = st.fixed_dictionaries({}, optional={
    "name": st.text(max_size=3) | _json,
    "shape": st.lists(st.integers(min_value=-2, max_value=3) | st.integers(), max_size=3) | _json})
_headers = st.one_of(
    _json.map(json.dumps),
    st.fixed_dictionaries({"arrays": st.lists(_array_meta, max_size=3) | _json}).map(json.dumps))


@st.composite
def _sized_containers(draw):
    """Well-formed metadata with a payload of the declared size, give or take a few bytes."""
    shapes = draw(st.lists(st.lists(st.integers(0, 3) | st.just(2**70), max_size=3), max_size=3))
    header = {"arrays": [{"name": str(i), "shape": s} for i, s in enumerate(shapes)]}
    size = min(8 * sum(math.prod(s) for s in shapes), 200) + draw(st.integers(-3, 3))
    size = max(size, 0)
    return _container_bytes(json.dumps(header), draw(st.binary(min_size=size, max_size=size)))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(raw=_container_bytes("1" * 5000))  # past Python's int-string limit: ValueError
@example(raw=_container_bytes("[" * 5000 + "]" * 5000))  # RecursionError
@given(raw=st.one_of(st.binary(max_size=64).map(lambda b: b"TEST" + bytes([1]) + b),
                     st.builds(_container_bytes, _headers, st.binary(max_size=80)),
                     _sized_containers()))
def test_container_arbitrary_header_and_bytes_raise_only_format_error(tmp_path, raw):
    p = tmp_path / "f.bin"
    p.write_bytes(raw)
    try:
        header, arrays = read_container(p, b"TEST", 1)  # any other exception fails the test
    except FormatError:
        return
    assert isinstance(header, dict) and all(a.dtype == np.float64 for a in arrays.values())


def _json_paths(node, prefix=()):
    """Every key or index path into a parsed JSON value."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


_CONTAINER_KINDS = {
    "checkpoint": (b"IMUK", train.CKPT_VERSION, _save_small_checkpoint, load_checkpoint),
    "head": (evaluate.HEAD_MAGIC, evaluate.HEAD_VERSION, lambda p: evaluate.save_head(
        p, evaluate.ClassifierHead(np.zeros((2, 3)), np.zeros(2), ["a", "b"])), evaluate.load_head),
    "cache": (signalio.CACHE_MAGIC, signalio.CACHE_VERSION, lambda p: signalio.save_window_cache(
        signalio.WindowCache(signalio.WindowSet(["w0", "w1"], ["s", "s"], [0.0, 1.0], [1.0, 1.0],
                                                np.zeros((2, 6, 4))), 4.0, 1.0, 1.0, "h"), p),
                  signalio.load_window_cache),
}
_DELETE = object()
_hostile_json = st.sampled_from([True, 1.9, 8.7, -1, 0, 10**12, 10**30, math.nan, math.inf, "w0", "", None,
                                 [8.7], [10**12, 8, 8], ["conv0.w"], [True], [None], [""], ["w0", "w0"],
                                 ["w0", "0"], [0.0, "0"], {}])


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(sorted(_CONTAINER_KINDS)), data=st.data())
def test_loaders_let_only_format_error_escape_a_mutated_container(tmp_path, kind, data):
    magic, version, save, load = _CONTAINER_KINDS[kind]
    p = tmp_path / "f.bin"
    save(p)
    header, arrays = read_container(p, magic, version)
    del header["arrays"]  # write_container derives it from the arrays
    for _ in range(data.draw(st.integers(1, 3))):
        paths = sorted(_json_paths(header), key=repr)
        if not paths:
            break
        path = data.draw(st.sampled_from(paths))
        *parents, last = path
        node = header
        for key in parents:
            node = node[key]
        value = data.draw(st.just(_DELETE) | _hostile_json | _json)
        if value is _DELETE:
            del node[last]
        else:
            node[last] = copy.deepcopy(value)  # sampled values are shared between examples
    if data.draw(st.booleans()):
        name = data.draw(st.sampled_from(sorted(arrays) + ["extra"]))
        shape = data.draw(st.none() | st.lists(st.integers(0, 3), max_size=3))
        if shape is None:
            arrays.pop(name, None)
        else:
            arrays[name] = np.zeros(shape)
    write_container(p, magic, version, header, list(arrays.items()))
    try:
        load(p)  # any exception but FormatError fails the test
    except FormatError:
        pass


def test_checkpoint_non_object_header_is_format_error(tmp_path):
    p = tmp_path / "ck.bin"
    header = json.dumps([1, 2]).encode()
    p.write_bytes(b"IMUK" + bytes([1]) + len(header).to_bytes(8, "little") + header)
    with pytest.raises(FormatError, match="not a JSON object"):
        load_checkpoint(p)


# ---------------------------------------------------------------------------
# fit / run directory


def test_a_repeated_window_id_reaches_neither_assemble_dataset_nor_fit(tmp_path):
    ds = _dataset(n=2)
    vp = tmp_path / "v.jsonl"
    signalio.write_anchor_embeddings({"a": signalio.AnchorEmbedding("a", "video", np.ones(16))}, vp)
    with pytest.raises(DataError, match=r"^WindowSet: repeated window ids: a$"):
        windows = signalio.WindowSet(["a", "a"], ["s", "s"], [0.0, 1.0], [1.0, 1.0], ds.windows.signals)
        dataset, _ = signalio.assemble_dataset(windows, vp)
        fit(dataset, SMALL_ENC, TrainConfig(batch_size=2, epochs=1, seed=0, mode="iv"))


@pytest.mark.parametrize("mode, modality", [("iv", "video"), ("ivt", "text")])
def test_fit_refuses_a_window_with_no_anchor_before_it_writes(tmp_path, mode, modality):
    ds = _dataset(n=8)
    del ds.anchors(modality)["synth-0003:0"]
    with pytest.raises(DataError, match=f"^window 'synth-0003:0' has no {modality} anchor$"):
        fit(ds, SMALL_ENC, TrainConfig(batch_size=4, epochs=1, mode=mode), run_dir=tmp_path / "run")
    assert list(tmp_path.iterdir()) == []


def test_fit_writes_run_directory(tmp_path):
    ds = _dataset(n=8)
    cfg = TrainConfig(batch_size=4, epochs=2, seed=0, mode="iv")
    run = tmp_path / "run"
    fit(ds, SMALL_ENC, cfg, run_dir=run)
    config = json.loads((run / "config.json").read_text())
    assert config["train"]["batch_size"] == 4
    assert config["encoder"]["pool_kernel"] == 5
    lines = [json.loads(l) for l in (run / "metrics.jsonl").read_text().splitlines()]
    assert [l["epoch"] for l in lines] == [0, 1]
    assert all("l_total" in l and "lr" in l for l in lines)
    assert (run / "ckpt-2.bin").exists()
    assert (run / "manifest.json").exists()


def test_fit_metrics_deterministic(tmp_path):
    ds = _dataset(n=8)
    texts = []
    for name in ("r1", "r2"):
        cfg = TrainConfig(batch_size=4, epochs=2, seed=0, mode="iv")
        fit(ds, SMALL_ENC, cfg, run_dir=tmp_path / name)
        texts.append((tmp_path / name / "metrics.jsonl").read_bytes())
    assert texts[0] == texts[1]
