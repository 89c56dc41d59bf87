"""End-to-end CLI coverage: every subcommand, exit codes, JSON outputs."""

import json

import numpy as np
import pytest

from imualign.cli import main
from imualign.signalio import load_window_cache


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


TRAIN_FLAGS = [
    "--conv-channels", "8", "--conv-kernels", "7", "--conv-strides", "2",
    "--gru-hidden", "12", "--embed-dim", "16",
]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    code = main([
        "synth", "--seed", "5", "--n", "8", "--classes", "2", "--dim", "16",
        "--noise", "0.05", "--window-s", "0.32", "--rate-hz", "200",
        "--out-dir", str(out),
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def cache_path(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("cache") / "windows.bin"
    csvs = sorted(corpus.glob("synth-*.csv"))
    argv = ["ingest"]
    for c in csvs:
        argv += ["--imu", str(c)]
    argv += ["--window-s", "0.32", "--rate-hz", "200", "--out", str(out)]
    assert main(argv) == 0
    return out


@pytest.fixture(scope="module")
def run_dir(corpus, cache_path, tmp_path_factory):
    run = tmp_path_factory.mktemp("run")
    code = main([
        "train", "--cache", str(cache_path),
        "--video-anchors", str(corpus / "anchors_video.jsonl"),
        "--mode", "iv", "--epochs", "30", "--seed", "0", "--batch-size", "4",
        *TRAIN_FLAGS, "--run-dir", str(run),
    ])
    assert code == 0
    return run


# ---------------------------------------------------------------------------
# synth


def test_synth_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code, payload, _ = run_cli(
            capsys, "synth", "--seed", "3", "--n", "4", "--classes", "2",
            "--dim", "8", "--window-s", "0.16", "--out-dir", str(out),
        )
        assert code == 0
        assert payload["n_windows"] == 4
    for name in ("anchors_video.jsonl", "anchors_text.jsonl", "labels.jsonl",
                 "class_anchors.jsonl", "synth-0000.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synth_invalid_params(tmp_path, capsys):
    code, _, err = run_cli(capsys, "synth", "--seed", "1", "--n", "2", "--classes", "5",
                           "--out-dir", str(tmp_path / "x"))
    assert code == 2
    assert "n_windows" in err


# ---------------------------------------------------------------------------
# ingest


def test_ingest_summary_and_idempotence(corpus, tmp_path, capsys):
    csvs = sorted(str(p) for p in corpus.glob("synth-*.csv"))
    argv = ["ingest"]
    for c in csvs:
        argv += ["--imu", c]
    out1, out2 = tmp_path / "c1.bin", tmp_path / "c2.bin"
    code, payload, _ = run_cli(capsys, *argv, "--window-s", "0.32", "--rate-hz", "200",
                               "--out", str(out1))
    assert code == 0
    assert payload["n_windows"] == 8
    assert payload["window_samples"] == 64
    assert payload["n_sources"] == 8
    code, _, _ = run_cli(capsys, *argv, "--window-s", "0.32", "--rate-hz", "200",
                         "--out", str(out2))
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_ingest_window_ids_match_anchor_ids(cache_path, corpus):
    cache = load_window_cache(cache_path)
    ids = {w.window_id for w in cache.windows}
    anchors = {json.loads(l)["window_id"]
               for l in (corpus / "anchors_video.jsonl").read_text().splitlines()}
    assert ids == anchors


def test_ingest_missing_file_exit_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "ingest", "--imu", str(tmp_path / "nope.csv"),
                           "--window-s", "1", "--out", str(tmp_path / "c.bin"))
    assert code == 2 and "nope.csv" in err


# ---------------------------------------------------------------------------
# train


def test_train_run_dir_contents(run_dir):
    config = json.loads((run_dir / "config.json").read_text())
    assert config["train"]["batch_size"] == 4
    assert config["train"]["learning_rate"] == 0.01
    assert config["train"]["adagrad_eps"] == 1e-8
    assert config["train"]["decay"] == 0.1
    assert config["encoder"]["pool_kernel"] == 5
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert len(manifest["input_hashes"]) == 2
    lines = (run_dir / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 30


def test_train_flag_defaults(capsys):
    from imualign.cli import build_parser

    args = build_parser().parse_args([
        "train", "--cache", "x", "--video-anchors", "y", "--epochs", "1", "--run-dir", "z",
    ])
    assert args.batch_size == 16
    assert args.lr == 0.01
    assert args.adagrad_eps == 1e-8
    assert args.decay == 0.1


def test_train_mode_it_without_text_anchors_exit_2(cache_path, corpus, tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "train", "--cache", str(cache_path),
        "--video-anchors", str(corpus / "anchors_video.jsonl"),
        "--mode", "it", "--epochs", "1", *TRAIN_FLAGS,
        "--run-dir", str(tmp_path / "r"),
    )
    assert code == 2
    assert "--text-anchors" in err


def test_train_metrics_reproducible(cache_path, corpus, tmp_path, capsys):
    outs = []
    for name in ("r1", "r2"):
        code, _, _ = run_cli(
            capsys, "train", "--cache", str(cache_path),
            "--video-anchors", str(corpus / "anchors_video.jsonl"),
            "--mode", "ivt", "--text-anchors", str(corpus / "anchors_text.jsonl"),
            "--epochs", "3", "--seed", "9", "--batch-size", "4", *TRAIN_FLAGS,
            "--run-dir", str(tmp_path / name),
        )
        assert code == 0
        outs.append((tmp_path / name / "metrics.jsonl").read_bytes())
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# eval-retrieval


def test_eval_retrieval_json_shape(run_dir, cache_path, corpus, capsys):
    code, payload, _ = run_cli(
        capsys, "eval-retrieval", "--ckpt", str(run_dir / "ckpt-30.bin"),
        "--cache", str(cache_path), "--anchors", str(corpus / "anchors_video.jsonl"),
        "--direction", "imu2video",
    )
    assert code == 0
    for key in ("R@1", "R@10", "R@50", "MRR", "pool_size", "n_queries", "flags"):
        assert key in payload
    assert payload["task"] == "retrieval"
    assert payload["pool_size"] == 8
    assert "pool_lt_50" in payload["flags"]
    assert 0.0 <= payload["MRR"] <= 1.0


def test_eval_retrieval_modality_mismatch_exit_2(run_dir, cache_path, corpus, capsys):
    code, _, err = run_cli(
        capsys, "eval-retrieval", "--ckpt", str(run_dir / "ckpt-30.bin"),
        "--cache", str(cache_path), "--anchors", str(corpus / "anchors_video.jsonl"),
        "--direction", "text2imu",
    )
    assert code == 2 and "modality" in err


def test_eval_retrieval_text_direction_via_transitivity(run_dir, cache_path, corpus, capsys):
    code, payload, _ = run_cli(
        capsys, "eval-retrieval", "--ckpt", str(run_dir / "ckpt-30.bin"),
        "--cache", str(cache_path), "--anchors", str(corpus / "anchors_text.jsonl"),
        "--direction", "text2imu",
    )
    assert code == 0
    assert payload["n_queries"] == 8


# ---------------------------------------------------------------------------
# eval-classify


def test_eval_classify_zeroshot(run_dir, cache_path, corpus, capsys):
    code, payload, _ = run_cli(
        capsys, "eval-classify", "--ckpt", str(run_dir / "ckpt-30.bin"),
        "--cache", str(cache_path), "--labels", str(corpus / "labels.jsonl"),
        "--protocol", "zeroshot", "--class-anchors", str(corpus / "class_anchors.jsonl"),
    )
    assert code == 0
    assert payload["task"] == "classification"
    assert set(payload["per_class_f1"]) == {"walking", "running"}
    assert 0.0 <= payload["accuracy"] <= 1.0


def test_eval_classify_zeroshot_mean_embedding_anchors(tmp_path, capsys):
    # noise-0 corpus, brief training, then class anchors built from the
    # per-class mean embeddings: nearest-mean classification is perfect
    corpus = tmp_path / "corpus"
    assert main(["synth", "--seed", "4", "--n", "8", "--classes", "2", "--dim", "32",
                 "--noise", "0.0", "--window-s", "0.32", "--rate-hz", "200",
                 "--out-dir", str(corpus)]) == 0
    cache = tmp_path / "cache.bin"
    argv = ["ingest"]
    for p in sorted(corpus.glob("synth-*.csv")):
        argv += ["--imu", str(p)]
    assert main(argv + ["--window-s", "0.32", "--rate-hz", "200", "--out", str(cache)]) == 0
    run = tmp_path / "run"
    assert main(["train", "--cache", str(cache),
                 "--video-anchors", str(corpus / "anchors_video.jsonl"),
                 "--mode", "iv", "--epochs", "80", "--seed", "0", "--batch-size", "8",
                 "--conv-channels", "8", "--conv-kernels", "7", "--conv-strides", "2",
                 "--gru-hidden", "12", "--embed-dim", "32",
                 "--run-dir", str(run)]) == 0
    capsys.readouterr()

    from imualign.encoder import encode_batch
    from imualign.signalio import load_labels, load_window_cache
    from imualign.train import load_checkpoint

    ck = load_checkpoint(run / "ckpt-80.bin")
    windows = load_window_cache(cache).windows
    labels, class_names = load_labels(corpus / "labels.jsonl")
    emb = encode_batch(windows, ck.params, ck.encoder_config)
    per_class = {}
    for w, e in zip(windows, emb):
        per_class.setdefault(labels[w.window_id], []).append(e)
    anchor_file = tmp_path / "mean_anchors.jsonl"
    with open(anchor_file, "w") as fh:
        for name, vecs in per_class.items():
            mean = np.mean(vecs, axis=0)
            mean = mean / np.linalg.norm(mean)
            fh.write(json.dumps({"window_id": name, "modality": "text",
                                 "vector": mean.tolist()}) + "\n")

    code, payload, _ = run_cli(
        capsys, "eval-classify", "--ckpt", str(run / "ckpt-80.bin"),
        "--cache", str(cache), "--labels", str(corpus / "labels.jsonl"),
        "--protocol", "zeroshot", "--class-anchors", str(anchor_file),
    )
    assert code == 0
    assert payload["accuracy"] == 1.0


def test_eval_classify_zeroshot_requires_class_anchors(run_dir, cache_path, corpus, capsys):
    code, _, err = run_cli(
        capsys, "eval-classify", "--ckpt", str(run_dir / "ckpt-30.bin"),
        "--cache", str(cache_path), "--labels", str(corpus / "labels.jsonl"),
        "--protocol", "zeroshot",
    )
    assert code == 2 and "class-anchors" in err


def test_eval_classify_probe_leaves_checkpoint_untouched(run_dir, cache_path, corpus, tmp_path, capsys):
    ckpt = run_dir / "ckpt-30.bin"
    before = ckpt.read_bytes()
    code, payload, _ = run_cli(
        capsys, "eval-classify", "--ckpt", str(ckpt),
        "--cache", str(cache_path), "--labels", str(corpus / "labels.jsonl"),
        "--protocol", "probe", "--epochs", "20", "--run-dir", str(tmp_path / "probe"),
    )
    assert code == 0
    assert ckpt.read_bytes() == before
    assert (tmp_path / "probe" / "head.bin").exists()
    assert (tmp_path / "probe" / "manifest.json").exists()


def test_eval_classify_finetune_emits_new_checkpoint(run_dir, cache_path, corpus, tmp_path, capsys):
    ckpt = run_dir / "ckpt-30.bin"
    code, payload, _ = run_cli(
        capsys, "eval-classify", "--ckpt", str(ckpt),
        "--cache", str(cache_path), "--labels", str(corpus / "labels.jsonl"),
        "--protocol", "finetune", "--epochs", "5", "--run-dir", str(tmp_path / "ft"),
    )
    assert code == 0
    new_ckpt = tmp_path / "ft" / "ckpt-finetuned.bin"
    assert new_ckpt.exists()
    assert new_ckpt.read_bytes() != ckpt.read_bytes()


# ---------------------------------------------------------------------------
# retrieve


def test_retrieve_self_from_anchor_pool(corpus, capsys):
    line = (corpus / "anchors_video.jsonl").read_text().splitlines()[2]
    wid = json.loads(line)["window_id"]
    code, payload, _ = run_cli(
        capsys, "retrieve", "--pool", str(corpus / "anchors_video.jsonl"),
        "--query-anchor", line, "--top-k", "3",
    )
    assert code == 0
    assert payload["results"][0]["window_id"] == wid
    assert abs(payload["results"][0]["score"] - 1.0) < 1e-6
    scores = [r["score"] for r in payload["results"]]
    assert scores == sorted(scores, reverse=True)


def test_retrieve_encoded_pool_with_ckpt(run_dir, cache_path, corpus, capsys):
    line = (corpus / "anchors_video.jsonl").read_text().splitlines()[0]
    code, payload, _ = run_cli(
        capsys, "retrieve", "--ckpt", str(run_dir / "ckpt-30.bin"),
        "--pool", str(cache_path), "--query-anchor", line, "--top-k", "100",
    )
    assert code == 0
    assert payload["pool_size"] == 8
    assert len(payload["results"]) == 8  # top-k larger than pool truncates


def test_retrieve_cache_pool_without_ckpt_exit_2(cache_path, corpus, capsys):
    line = (corpus / "anchors_video.jsonl").read_text().splitlines()[0]
    code, _, err = run_cli(capsys, "retrieve", "--pool", str(cache_path),
                           "--query-anchor", line)
    assert code == 2 and "--ckpt" in err


def test_retrieve_dim_mismatch_exit_2(corpus, capsys):
    bad = json.dumps({"window_id": "q", "modality": "text", "vector": [1.0, 0.0]})
    code, _, err = run_cli(capsys, "retrieve", "--pool", str(corpus / "anchors_video.jsonl"),
                           "--query-anchor", bad)
    assert code == 2 and "dim" in err


@pytest.mark.parametrize("query", [
    '{"window_id": "q", "vector": [1.0, 0.0',  # truncated JSON
    '{"window_id": "q", "modality": "text"}',  # no "vector"
    '{"window_id": "q", "vector": ["a", "b"]}',  # not numeric
])
def test_retrieve_malformed_inline_query_exit_2(corpus, capsys, query):
    code, payload, err = run_cli(capsys, "retrieve", "--pool", str(corpus / "anchors_video.jsonl"),
                                 "--query-anchor", query)
    assert code == 2 and payload is None
    assert "--query-anchor" in err and "Traceback" not in err


@pytest.mark.parametrize("line", ["[1, 2]", "{not json", '{"window_id": "q"}'])
def test_retrieve_malformed_query_file_exit_2(corpus, tmp_path, capsys, line):
    q = tmp_path / "q.jsonl"
    q.write_text(line + "\n")
    code, payload, err = run_cli(capsys, "retrieve", "--pool", str(corpus / "anchors_video.jsonl"),
                                 "--query-anchor", str(q))
    assert code == 2 and payload is None and str(q) in err


# ---------------------------------------------------------------------------
# dispatcher contracts


def test_numeric_failure_exits_3(monkeypatch, cache_path, corpus, tmp_path, capsys):
    from imualign import cli
    from imualign.errors import NumericError

    def boom(*args, **kwargs):
        raise NumericError("non-finite loss at epoch 0: nan")

    monkeypatch.setattr(cli, "fit", boom)
    code, _, err = run_cli(
        capsys, "train", "--cache", str(cache_path),
        "--video-anchors", str(corpus / "anchors_video.jsonl"),
        "--epochs", "1", "--batch-size", "4", *TRAIN_FLAGS,
        "--run-dir", str(tmp_path / "r"),
    )
    assert code == 3
    assert "numerical failure" in err


def test_thread_cap_env_var(monkeypatch, run_dir, cache_path, corpus, capsys):
    monkeypatch.setenv("IMU_ALIGN_THREADS", "4")
    code, payload, _ = run_cli(
        capsys, "eval-retrieval", "--ckpt", str(run_dir / "ckpt-30.bin"),
        "--cache", str(cache_path), "--anchors", str(corpus / "anchors_video.jsonl"),
        "--direction", "imu2video",
    )
    assert code == 0
    monkeypatch.setenv("IMU_ALIGN_THREADS", "1")
    code2, payload2, _ = run_cli(
        capsys, "eval-retrieval", "--ckpt", str(run_dir / "ckpt-30.bin"),
        "--cache", str(cache_path), "--anchors", str(corpus / "anchors_video.jsonl"),
        "--direction", "imu2video",
    )
    assert code2 == 0
    assert payload == payload2
