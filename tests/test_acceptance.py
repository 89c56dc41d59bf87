"""Acceptance suite.

Each test covers one numbered acceptance criterion at its stated tolerance
and prints one PASS/FAIL line (bypassing pytest capture so the lines always
appear). Run with `pytest tests/test_acceptance.py -v`.
"""

import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict

import numpy as np
import pytest

from imualign import autodiff as ad
from imualign.autodiff import Tape, Tensor, finite_difference_check
from imualign.cli import main as cli_main
from imualign.contrastive import alignment_loss, info_nce
from imualign.encoder import EncoderConfig, EncoderParams, encode_batch, encode_batch_on_tape, init_params
from imualign.evaluate import (
    ProbeConfig,
    classification_metrics,
    eval_retrieval,
    fine_tune,
    mrr,
    recall_at_k,
    softmax_cross_entropy,
    train_probe,
    zeroshot_classify,
)
from imualign.evaluate import RetrievalResult
from imualign.signalio import synth_class_anchors, synth_dataset
from imualign.train import AdagradState, TrainConfig, train_epoch

from helpers import mul, retrieval_distribution, sum_all, tanh
from test_evaluate import _recorded_ranks


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        sys.__stdout__.write(f"[criterion {number:2d}] FAIL  {description}\n")
        sys.__stdout__.flush()
        raise
    sys.__stdout__.write(f"[criterion {number:2d}] PASS  {description}\n")
    sys.__stdout__.flush()


def _away_from_zero(x, gap=1e-3):
    """Shift coordinates off the ReLU/max kink so +-h probes stay one-sided."""
    return np.where(np.abs(x) < gap, x + np.sign(x + 0.5) * gap, x)


def _spread(rng, shape, lo=-2.0, hi=2.0):
    """Values with pairwise gaps > 1e-4: safe for max-pool argmax stability."""
    flat = np.prod(shape)
    return rng.permutation(np.linspace(lo, hi, int(flat))).reshape(shape)


TINY = EncoderConfig(conv_channels=(4,), conv_kernels=(5,),
                     conv_strides=(1,), gru_hidden=8, embed_dim=8)


def _tiny_params_with(params, name, probe):
    return EncoderParams({**params.named(), name: probe})


def _kernel_cases(rng):
    """One random finite-difference case per call, cycling across every
    differentiable kernel argument; encoder kernels get a batch of two.
    """
    x = rng.standard_normal((2, 2, 11))
    w = rng.standard_normal((3, 2, 3))
    b = rng.standard_normal(3)
    gam = 0.5 + rng.uniform(size=4)
    bet = rng.standard_normal(4)
    xg = rng.standard_normal((2, 4, 6))
    seq = rng.standard_normal((2, 3, 4))  # (B, F, T): the adjoint crosses 4 steps of h
    w_ih = 0.5 * rng.standard_normal((12, 3))
    w_hh = 0.5 * rng.standard_normal((12, 4))
    b_ih = 0.5 * rng.standard_normal(12)
    b_hh = 0.5 * rng.standard_normal(12)
    lw = rng.standard_normal((3, 5))
    lb = rng.standard_normal(3)
    lv = rng.standard_normal((2, 5))
    m = rng.standard_normal((3, 4))
    m2 = rng.standard_normal((2, 4))
    sims = rng.uniform(-0.8, 0.8, size=(4, 4))
    labels = rng.integers(0, 3, size=4)

    def enc_tanh(op):
        return lambda t, p: sum_all(t, tanh(t, op(t, p)))

    return [
        ("conv1d/x", enc_tanh(lambda t, p: ad.conv1d(t, p, Tensor(w), Tensor(b), 2)), Tensor(x)),
        ("conv1d/w", enc_tanh(lambda t, p: ad.conv1d(t, Tensor(x), p, Tensor(b), 2)), Tensor(w)),
        ("conv1d/b", enc_tanh(lambda t, p: ad.conv1d(t, Tensor(x), Tensor(w), p, 2)), Tensor(b)),
        ("group_norm/x", enc_tanh(lambda t, p: ad.group_norm(t, p, 2, Tensor(gam), Tensor(bet), 1e-5)), Tensor(xg)),
        ("group_norm/gamma", enc_tanh(lambda t, p: ad.group_norm(t, Tensor(xg), 2, p, Tensor(bet), 1e-5)), Tensor(gam)),
        ("group_norm/beta", enc_tanh(lambda t, p: ad.group_norm(t, Tensor(xg), 2, Tensor(gam), p, 1e-5)), Tensor(bet)),
        ("max_pool1d/x", (lambda t, p: sum_all(t, ad.max_pool1d(t, p, 3, 2))), Tensor(_spread(rng, (2, 2, 8)))),
        ("gru/x", enc_tanh(lambda t, p: ad.gru_forward(t, p, Tensor(w_ih), Tensor(w_hh), Tensor(b_ih), Tensor(b_hh))), Tensor(seq)),
        ("gru/w_ih", enc_tanh(lambda t, p: ad.gru_forward(t, Tensor(seq), p, Tensor(w_hh), Tensor(b_ih), Tensor(b_hh))), Tensor(w_ih)),
        ("gru/w_hh", enc_tanh(lambda t, p: ad.gru_forward(t, Tensor(seq), Tensor(w_ih), p, Tensor(b_ih), Tensor(b_hh))), Tensor(w_hh)),
        ("gru/b_ih", enc_tanh(lambda t, p: ad.gru_forward(t, Tensor(seq), Tensor(w_ih), Tensor(w_hh), p, Tensor(b_hh))), Tensor(b_ih)),
        ("gru/b_hh", enc_tanh(lambda t, p: ad.gru_forward(t, Tensor(seq), Tensor(w_ih), Tensor(w_hh), Tensor(b_ih), p)), Tensor(b_hh)),
        ("linear/x", enc_tanh(lambda t, p: ad.linear(t, p, Tensor(lw), Tensor(lb))), Tensor(lv)),
        ("linear/w", enc_tanh(lambda t, p: ad.linear(t, Tensor(lv), p, Tensor(lb))), Tensor(lw)),
        ("linear/b", enc_tanh(lambda t, p: ad.linear(t, Tensor(lv), Tensor(lw), p)), Tensor(lb)),
        ("l2_normalize", (lambda t, p: sum_all(t, ad.l2_normalize(t, p))), Tensor(1.0 + rng.uniform(size=(2, 5)))),
        ("relu", (lambda t, p: sum_all(t, ad.relu(t, p))), Tensor(_away_from_zero(rng.standard_normal(8)))),
        ("tanh", (lambda t, p: sum_all(t, tanh(t, p))), Tensor(rng.standard_normal(8))),
        ("mul", (lambda t, p: sum_all(t, mul(t, p, p))), Tensor(rng.standard_normal(6))),
        ("add+divide", (lambda t, p: sum_all(t, ad.divide(t, ad.add(t, p, p), 0.75))), Tensor(rng.standard_normal(6))),
        ("matmul_nt/a", enc_tanh(lambda t, p: ad.matmul_nt(t, p, Tensor(m))), Tensor(m2)),
        ("matmul_nt/b", enc_tanh(lambda t, p: ad.matmul_nt(t, Tensor(m2), p)), Tensor(m)),
        ("info_nce/row", (lambda t, p: info_nce(t, p, 0.2)), Tensor(sims)),
        ("info_nce/col", (lambda t, p: info_nce(t, ad.transpose(t, p), 0.2)), Tensor(sims)),
        ("cross_entropy", (lambda t, p: softmax_cross_entropy(t, p, labels)), Tensor(rng.standard_normal((4, 3)))),
    ]


def test_criterion_01_gradient_correctness():
    with criterion(1, "finite-difference checks: all kernels + tiny encoder (rel err < 1e-4)"):
        t0 = time.time()
        rng = np.random.default_rng(2024)
        n_cases = len(_kernel_cases(rng))
        counts = {i: 0 for i in range(n_cases)}
        worst = 0.0
        point_index = 0
        while min(counts.values()) < 100:
            cases = _kernel_cases(rng)
            idx = point_index % n_cases
            name, f, point = cases[idx]
            err = finite_difference_check(f, point, h=1e-5)
            assert err < 1e-4, f"{name}: rel error {err}"
            worst = max(worst, err)
            counts[idx] += 1
            point_index += 1

        # the full tiny-config encoder, probing every parameter tensor in turn
        enc_rng = np.random.default_rng(7)
        params = init_params(TINY, 3)
        names = list(params.named().keys())
        for i in range(100):
            name = names[i % len(names)]
            signal = enc_rng.standard_normal((6, 32))

            def f(tape, probe, _n=name, _s=signal):
                emb = encode_batch_on_tape(tape, _s[None], _tiny_params_with(params, _n, probe), TINY)
                return sum_all(tape, emb)

            err = finite_difference_check(f, params.named()[name], h=1e-5)
            assert err < 1e-4, f"encoder/{name}: rel error {err}"
            worst = max(worst, err)
        elapsed = time.time() - t0
        assert elapsed < 60.0, f"gradient sweep took {elapsed:.1f}s (budget 60s)"


def test_criterion_02_loss_oracles():
    with criterion(2, "InfoNCE oracles: identity, uniform, trimodal sum"):
        loss = info_nce(Tape(), Tensor(np.eye(2)), 1.0).item()
        assert abs(loss - 0.31326) < 1e-5
        for b in (2, 5, 16):
            uniform = info_nce(Tape(), Tensor(np.full((b, b), 0.3)), 1.0).item()
            assert abs(uniform - math.log(b)) < 1e-9
        rng = np.random.default_rng(0)
        report, total = alignment_loss(Tape(), {"video": Tensor(rng.uniform(-1, 1, (4, 4))),
                                                "text": Tensor(rng.uniform(-1, 1, (4, 4)))}, 0.1)
        assert abs(report["l_total"] - (report["l_sym_iv"] + report["l_sym_it"])) < 1e-12
        assert abs(total.item() - report["l_total"]) < 1e-12


def test_criterion_03_distribution_sanity():
    with criterion(3, "retrieval distribution rows sum to 1 +- 1e-9 (1000-case sweep)"):
        rng = np.random.default_rng(1)
        cases = 0
        while cases < 1000:
            for b in (2, 8, 16):
                for temperature in (0.05, 0.1, 1.0, 10.0):
                    sims = rng.uniform(-1, 1, size=(b, b))
                    for oriented in (sims, sims.T):
                        p = retrieval_distribution(oriented, temperature)
                        assert np.all(np.abs(p.sum(axis=1) - 1.0) < 1e-9)
                        assert np.all(p >= 0.0)
                    cases += 1


def test_criterion_04_retrieval_metric_oracles():
    with criterion(4, "R@k / MRR hand values; eval_retrieval's gold ranks vs brute-force on 1000 pools"):
        results = [RetrievalResult(f"q{i}", r) for i, r in enumerate([1, 2, 4])]
        hand_value = (1.0 + 1.0 / 2.0 + 1.0 / 4.0) / 3.0  # independent hand arithmetic
        assert abs(mrr(results) - hand_value) < 1e-6
        assert abs(recall_at_k(results, 2) - 2 / 3) < 1e-12
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = int(rng.integers(2, 65))
            d = int(rng.integers(2, 8))
            vecs = rng.standard_normal((n, d))
            vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
            pool = [(f"id{i:03d}", vecs[i]) for i in range(n)]
            q = rng.standard_normal(d)
            q /= np.linalg.norm(q)
            gold = f"id{int(rng.integers(n)):03d}"
            got = _recorded_ranks(dict(pool), {gold: q})[1]
            expected = sorted(((-float(q @ v), pid) for pid, v in pool)).index(
                (-float(q @ dict(pool)[gold]), gold)) + 1
            assert got == [(gold, expected)]


# ---------------------------------------------------------------------------
# the shared trained model for criteria 5-8


REDUCED = EncoderConfig(conv_channels=(16, 32), conv_kernels=(10, 5),
                        conv_strides=(2, 2), gru_hidden=32, embed_dim=32)


@pytest.fixture(scope="module")
def trained():
    """synth(seed=7, n=32, classes=4, noise=0.05), mode=iv, default
    optimizer settings; trains until train-set IMU->Video R@1 hits 1.0.
    """
    dataset = synth_dataset(seed=7, n_windows=32, n_classes=4, dim=32,
                            n_samples=200, noise=0.05)
    anchors_before = dataset.anchor_checksum()
    config = TrainConfig(epochs=200, seed=0, mode="iv")
    params = init_params(REDUCED, config.seed)
    state = AdagradState()
    t0 = time.time()
    hit_epoch = None
    for epoch in range(config.epochs):
        train_epoch(dataset, params, state, config, REDUCED, epoch)
        if epoch >= 99 and (epoch + 1) % 10 == 0:
            emb = encode_batch(dataset.windows, params, REDUCED)
            ids = [w.window_id for w in dataset.windows]
            metrics = eval_retrieval(
                dict(zip(ids, emb)),
                {k: v.vector for k, v in dataset.video_anchors.items()},
                "imu2video",
            )
            if metrics["R@1"] == 1.0:
                hit_epoch = epoch
                break
    return {
        "dataset": dataset,
        "params": params,
        "anchors_before": anchors_before,
        "hit_epoch": hit_epoch,
        "wall_s": time.time() - t0,
    }


def test_criterion_05_overfit_convergence(trained):
    with criterion(5, "train-set IMU->Video R@1 = 1.0 within 200 epochs, < 5 min"):
        assert trained["hit_epoch"] is not None, "R@1 never reached 1.0 in 200 epochs"
        assert trained["hit_epoch"] < 200
        assert trained["wall_s"] < 300.0, f"took {trained['wall_s']:.0f}s"


def test_criterion_06_transitivity(trained):
    with criterion(6, "zeroshot via text anchors > 0.9 after video-only training"):
        dataset, params = trained["dataset"], trained["params"]
        class_anchors = list(synth_class_anchors(7, 4, 32).items())
        emb = encode_batch(dataset.windows, params, REDUCED)
        preds = [zeroshot_classify(e, class_anchors) for e in emb]
        golds = [dataset.labels[w.window_id] for w in dataset.windows]
        acc = classification_metrics(preds, golds, dataset.class_names)["accuracy"]
        assert acc > 0.9, f"zeroshot accuracy {acc}"


def test_criterion_07_protocol_ordering(trained):
    with criterion(7, "fine-tune >= probe >= zeroshot train accuracy (equal budgets)"):
        dataset, params = trained["dataset"], trained["params"]
        golds = [dataset.labels[w.window_id] for w in dataset.windows]
        class_anchors = list(synth_class_anchors(7, 4, 32).items())
        emb = encode_batch(dataset.windows, params, REDUCED)
        zs_acc = classification_metrics(
            [zeroshot_classify(e, class_anchors) for e in emb], golds, dataset.class_names
        )["accuracy"]

        budget = ProbeConfig(epochs=80, learning_rate=0.1, seed=0)
        head = train_probe(dataset, params, REDUCED, budget)
        probe_acc = classification_metrics(head.predict(emb), golds, dataset.class_names)["accuracy"]

        ft_params, ft_head = fine_tune(dataset, params, None, REDUCED, budget)
        ft_emb = encode_batch(dataset.windows, ft_params, REDUCED)
        ft_acc = classification_metrics(ft_head.predict(ft_emb), golds, dataset.class_names)["accuracy"]

        assert ft_acc >= probe_acc >= zs_acc, (ft_acc, probe_acc, zs_acc)


def test_criterion_08_frozen_contracts(trained):
    with criterion(8, "anchors unchanged by training; encoder unchanged by probing"):
        dataset, params = trained["dataset"], trained["params"]
        assert dataset.anchor_checksum() == trained["anchors_before"]
        before = params.checksum()
        train_probe(dataset, params, REDUCED, ProbeConfig(epochs=10, seed=1))
        assert params.checksum() == before


def test_criterion_09_determinism(tmp_path):
    with criterion(9, "fixed seed: bitwise-identical metrics.jsonl across two runs"):
        corpus = tmp_path / "corpus"
        assert cli_main([
            "synth", "--seed", "21", "--n", "8", "--classes", "2", "--dim", "16",
            "--noise", "0.05", "--window-s", "0.32", "--rate-hz", "200",
            "--out-dir", str(corpus),
        ]) == 0
        cache = tmp_path / "cache.bin"
        argv = ["ingest"]
        for p in sorted(corpus.glob("synth-*.csv")):
            argv += ["--imu", str(p)]
        assert cli_main(argv + ["--window-s", "0.32", "--rate-hz", "200", "--out", str(cache)]) == 0

        metric_bytes, eval_payloads = [], []
        for name in ("run1", "run2"):
            run = tmp_path / name
            assert cli_main([
                "train", "--cache", str(cache),
                "--video-anchors", str(corpus / "anchors_video.jsonl"),
                "--mode", "iv", "--epochs", "10", "--seed", "13", "--batch-size", "4",
                "--conv-channels", "8", "--conv-kernels", "7", "--conv-strides", "2",
                "--gru-hidden", "12", "--embed-dim", "16",
                "--run-dir", str(run),
            ]) == 0
            metric_bytes.append((run / "metrics.jsonl").read_bytes())
            from imualign.train import load_checkpoint

            ck = load_checkpoint(run / "ckpt-10.bin")
            from imualign.signalio import load_anchor_embeddings, load_window_cache

            windows = load_window_cache(cache).windows
            emb = encode_batch(windows, ck.params, ck.encoder_config)
            ids = [w.window_id for w in windows]
            anchors = load_anchor_embeddings(corpus / "anchors_video.jsonl")
            eval_payloads.append(eval_retrieval(
                dict(zip(ids, emb)), {k: v.vector for k, v in anchors.items()}, "imu2video"
            ))
        assert metric_bytes[0] == metric_bytes[1]
        assert eval_payloads[0] == eval_payloads[1]


def test_criterion_10_hyperparameter_fidelity(tmp_path):
    with criterion(10, "defaults serialize B=16, lr=0.01, eps=1e-8, decay=0.1, pool 5"):
        train_dict = asdict(TrainConfig())
        assert train_dict["batch_size"] == 16
        assert train_dict["learning_rate"] == 0.01
        assert train_dict["adagrad_eps"] == 1e-8
        assert train_dict["decay"] == 0.1
        assert asdict(EncoderConfig())["pool_kernel"] == 5

        # the CLI's default flags write exactly these values to config.json
        corpus = tmp_path / "corpus"
        assert cli_main([
            "synth", "--seed", "2", "--n", "16", "--classes", "4", "--dim", "512",
            "--noise", "0.05", "--window-s", "1.0", "--rate-hz", "200",
            "--out-dir", str(corpus),
        ]) == 0
        cache = tmp_path / "cache.bin"
        argv = ["ingest"]
        for p in sorted(corpus.glob("synth-*.csv")):
            argv += ["--imu", str(p)]
        assert cli_main(argv + ["--window-s", "1.0", "--rate-hz", "200", "--out", str(cache)]) == 0
        run = tmp_path / "run"
        assert cli_main([
            "train", "--cache", str(cache),
            "--video-anchors", str(corpus / "anchors_video.jsonl"),
            "--epochs", "1", "--run-dir", str(run),
        ]) == 0
        written = json.loads((run / "config.json").read_text())
        assert written["train"]["batch_size"] == 16
        assert written["train"]["learning_rate"] == 0.01
        assert written["train"]["adagrad_eps"] == 1e-8
        assert written["train"]["decay"] == 0.1
        assert written["encoder"]["pool_kernel"] == 5
