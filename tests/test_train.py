"""Batching, Adagrad, decay schedule, training loop, checkpointing."""

import json
import math

import numpy as np
import pytest

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
    n_conv_layers=1, conv_channels=(8,), conv_kernels=(7,), conv_strides=(2,),
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
    p = Tensor(np.array([0.0]), requires_grad=True)
    with pytest.raises(NumericError, match="non-finite gradient"):
        adagrad_step({"p": p}, {"p": np.array([np.nan])}, AdagradState(), 0.01, 1e-8)


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
    d = cfg.to_dict()
    assert (d["batch_size"], d["learning_rate"], d["adagrad_eps"], d["decay"]) == (16, 0.01, 1e-8, 0.1)


def test_config_validation():
    with pytest.raises(DataError):
        TrainConfig(batch_size=1)
    with pytest.raises(DataError):
        TrainConfig(mode="video")
    with pytest.raises(DataError):
        TrainConfig(learning_rate=0.0)


# ---------------------------------------------------------------------------
# train_epoch


def test_epoch_loss_decreases_on_clean_fixture():
    ds = synth_dataset(3, 32, 4, 16, 64, 0.0)
    cfg = TrainConfig(epochs=5, seed=0, mode="iv")
    params = init_params(SMALL_ENC, 0)
    state = AdagradState()
    losses = [train_epoch(ds, params, state, cfg, SMALL_ENC, e).l_total for e in range(5)]
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
    with pytest.raises(DataError, match="text anchors"):
        train_epoch(ds, init_params(SMALL_ENC, 0), AdagradState(), cfg, SMALL_ENC, 0)


def test_initial_loss_near_log_b():
    # random params, random data: retrieval distribution near uniform
    ds = _dataset(n=16, classes=4, dim=64, t=64, noise=0.5, seed=11)
    cfg = TrainConfig(batch_size=16, epochs=1, seed=0, mode="iv")
    enc = EncoderConfig(n_conv_layers=1, conv_channels=(8,), conv_kernels=(7,),
                        conv_strides=(2,), gru_hidden=12, embed_dim=64)
    report = train_epoch(ds, init_params(enc, 13), AdagradState(), cfg, enc, 0)
    log_b = math.log(16)
    assert 0.5 * log_b <= report.l_total <= 1.5 * log_b


def test_mode_reports_expected_fields():
    ds = _dataset(n=8)
    params = init_params(SMALL_ENC, 0)
    rep_iv = train_epoch(ds, params, AdagradState(), TrainConfig(batch_size=4, mode="iv"), SMALL_ENC, 0)
    assert rep_iv.l_i2v is not None and rep_iv.l_i2t is None
    rep_it = train_epoch(ds, params, AdagradState(), TrainConfig(batch_size=4, mode="it"), SMALL_ENC, 0)
    assert rep_it.l_i2t is not None and rep_it.l_i2v is None
    rep_ivt = train_epoch(ds, params, AdagradState(), TrainConfig(batch_size=4, mode="ivt"), SMALL_ENC, 0)
    assert rep_ivt.l_i2v is not None and rep_ivt.l_i2t is not None
    assert abs(rep_ivt.l_total - (rep_ivt.l_sym_iv + rep_ivt.l_sym_it)) < 1e-12


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


def test_checkpoint_corrupted_magic(tmp_path):
    p = tmp_path / "ck.bin"
    save_checkpoint(p, init_params(SMALL_ENC, 0), None, SMALL_ENC, None, 0)
    raw = bytearray(p.read_bytes())
    raw[:4] = b"JUNK"
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="bad magic"):
        load_checkpoint(p)


def _rewrite_checkpoint_header(path, edit):
    header, arrays = read_container(path, b"IMUK", 1)
    edit(header)
    write_container(path, b"IMUK", 1, header,
                    [(m["name"], arrays[m["name"]]) for m in header["arrays"]])


@pytest.mark.parametrize("edit", [
    lambda h: h["encoder_config"].update(unknown_knob=1),
    lambda h: h["train_config"].update(unknown_knob=1),
    lambda h: h.pop("param_names"),
    lambda h: h.pop("step"),
], ids=["encoder_config-key", "train_config-key", "no-param_names", "no-step"])
def test_checkpoint_malformed_header_is_format_error(tmp_path, edit):
    p = tmp_path / "ck.bin"
    save_checkpoint(p, init_params(SMALL_ENC, 0), None, SMALL_ENC, TrainConfig(), 0)
    _rewrite_checkpoint_header(p, edit)
    with pytest.raises(FormatError, match=str(p)):
        load_checkpoint(p)


def test_checkpoint_non_object_header_is_format_error(tmp_path):
    p = tmp_path / "ck.bin"
    header = json.dumps([1, 2]).encode()
    p.write_bytes(b"IMUK" + bytes([1]) + len(header).to_bytes(8, "little") + header)
    with pytest.raises(FormatError, match="not a JSON object"):
        load_checkpoint(p)


# ---------------------------------------------------------------------------
# fit / run directory


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
