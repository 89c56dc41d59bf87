"""End-to-end CLI coverage: every subcommand, exit codes, JSON outputs."""

import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from imualign import cli, evaluate
from imualign.cli import build_parser, main
from imualign.container import read_container, write_container
from imualign.encoder import EncoderConfig
from imualign.evaluate import ProbeConfig, save_head, train_probe
from imualign.signalio import (
    CACHE_MAGIC,
    CACHE_VERSION,
    ParallelDataset,
    WindowCache,
    WindowSet,
    load_anchor_embeddings,
    load_labels,
    load_window_cache,
    save_window_cache,
)
from imualign.train import TrainConfig, load_checkpoint, save_checkpoint


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


@pytest.mark.parametrize("flag, value, message", [
    ("--rate-hz", "0", "sample_rate_hz finite and > 0"),
    ("--rate-hz", "nan", "no finite sample count"),
    ("--window-s", "nan", "no finite sample count"),
    ("--window-s", "0", "n_samples >= 1"),
    ("--dim", "-1", "dim >= 1"),
    ("--dim", "0", "dim >= 1"),
    ("--noise", "nan", "noise finite and >= 0"),
    ("--noise", "1e300", "gives an anchor of norm inf"),
    ("--seed", "-1", "seed >= 0"),
    ("--window-s", "1e300", "do not fit in memory"),
])
def test_synth_refuses_sizes_it_cannot_use_and_writes_nothing(tmp_path, capsys, flag, value, message):
    out = tmp_path / "x"
    code, payload, err = run_cli(capsys, "synth", "--seed", "1", "--n", "4", "--classes", "2",
                                 "--out-dir", str(out), flag, value)  # the last of a repeated flag counts
    assert code == 2 and payload is None
    assert err.startswith("error: ") and message in err
    assert not out.exists()


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


def test_ingest_hash_identifies_samples_not_file_bytes(corpus, tmp_path, capsys):
    src = sorted(corpus.glob("synth-*.csv"))[0]
    respelled, shorter = tmp_path / "a" / src.name, tmp_path / "b" / src.name
    lines = src.read_text().splitlines()
    respelled.parent.mkdir()
    respelled.write_text("\r\n".join(lines) + "\r\n\r\n")  # other line ends, a blank line: same samples
    shorter.parent.mkdir()
    shorter.write_text("\n".join(lines[:-1]) + "\n")
    hashes = []
    for path in (src, respelled, shorter):
        code, payload, _ = run_cli(capsys, "ingest", "--imu", str(path), "--window-s", "0.16",
                                   "--out", str(tmp_path / "c.bin"))
        assert code == 0
        hashes.append(payload["content_hash"])
    assert hashes[0] == hashes[1] != hashes[2]


def test_ingest_hash_is_the_readme_definition(corpus, tmp_path, capsys):
    csvs = sorted(corpus.glob("synth-*.csv"))[:2]
    code, payload, _ = run_cli(capsys, "ingest", "--imu", str(csvs[0]), "--imu", str(csvs[1]), "--window-s", "0.16",
                               "--stride-s", "0.08", "--rate-hz", "100", "--out", str(tmp_path / "c.bin"))
    assert code == 0
    digest = hashlib.sha256()
    for csv in csvs:  # per raw stream: the source id, then '<f8' timestamps, then '<f8' values row by row
        rows = [[float(v) for v in line.split(",")] for line in csv.read_text().splitlines()[1:]]
        digest.update(csv.stem.encode())
        digest.update(b"".join(struct.pack("<d", row[0]) for row in rows))
        digest.update(b"".join(struct.pack("<6d", *row[1:]) for row in rows))
    digest.update(json.dumps({"window_s": 0.16, "stride_s": 0.08, "rate_hz": 100.0}, sort_keys=True).encode())
    assert payload["content_hash"] == digest.hexdigest()
    assert load_window_cache(tmp_path / "c.bin").content_hash == digest.hexdigest()


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


def test_ingest_same_stem_in_two_directories_exit_2(corpus, tmp_path, capsys):
    src = sorted(corpus.glob("synth-*.csv"))[0]
    a, b = tmp_path / "a" / "x.csv", tmp_path / "b" / "x.csv"
    for dst in (a, b):
        dst.parent.mkdir()
        shutil.copy(src, dst)
    out = tmp_path / "c.bin"
    code, payload, err = run_cli(capsys, "ingest", "--imu", str(a), "--imu", str(b),
                                 "--window-s", "0.32", "--out", str(out))
    assert code == 2 and payload is None
    assert "'x:0'" in err and str(a) in err and str(b) in err
    assert not out.exists()


def test_ingest_out_is_a_directory_exit_2_and_leaves_no_temp_file(corpus, tmp_path, capsys):
    src = sorted(corpus.glob("synth-*.csv"))[0]
    out = tmp_path / "out"
    out.mkdir()
    code, payload, err = run_cli(capsys, "ingest", "--imu", str(src), "--window-s", "0.32",
                                 "--out", str(out))
    assert code == 2 and payload is None and err.startswith("error: ")
    assert list(tmp_path.glob("*.tmp-*")) == []


def run_cli_process(*argv):
    """The CLI in a child process, so a traceback would reach stderr."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "imualign.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)


def test_ingest_bad_line_exit_2_without_traceback(corpus, tmp_path):
    src = sorted(corpus.glob("synth-*.csv"))[0]
    lines = src.read_text().splitlines()
    lines[4] = lines[4].rsplit(",", 1)[0] + ",nan"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "c.bin"
    proc = run_cli_process("ingest", "--imu", str(bad), "--window-s", "0.32", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {bad}:5: non-finite value\n"
    assert not out.exists()


@pytest.mark.parametrize("t0, t1, message", [
    ("-1e308", "1e308", "span no finite duration"),
    ("0", "1e12", "needs 2e+14 samples"),
    # float64 steps by 2 from 2**53 on, so the 200 Hz grid repeats its times
    (str(2**53), str(2**53 + 2), "resample: stream long at 200.0 Hz: timestamps not strictly increasing at "
                                 "sample index 1\n"),
], ids=["span-overflows", "grid-too-large", "grid-times-repeat"])
def test_ingest_time_span_too_long_exit_2(tmp_path, t0, t1, message):
    csv = tmp_path / "long.csv"
    csv.write_text(f"t,ax,ay,az,gx,gy,gz\n{t0},0,0,0,0,0,0\n{t1},0,0,0,0,0,0\n")
    out = tmp_path / "c.bin"
    proc = run_cli_process("ingest", "--imu", str(csv), "--window-s", "0.32", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and message in proc.stderr
    assert "Traceback" not in proc.stderr and not out.exists()


def test_ingest_with_no_stream_one_window_long_exit_2_and_writes_no_cache(corpus, tmp_path):
    src = sorted(corpus.glob("synth-*.csv"))[0]
    out = tmp_path / "c.bin"
    proc = run_cli_process("ingest", "--imu", str(src), "--window-s", "1e300", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: no stream is at least one window (1e+300s) long\n"
    assert list(tmp_path.iterdir()) == []


def test_train_on_a_container_with_malformed_arrays_metadata_exit_2(corpus, tmp_path):
    blob = json.dumps({"arrays": 5}).encode()
    bad = tmp_path / "bad.bin"
    bad.write_bytes(CACHE_MAGIC + bytes([CACHE_VERSION]) + len(blob).to_bytes(8, "little") + blob)
    proc = run_cli_process("train", "--cache", str(bad),
                           "--video-anchors", str(corpus / "anchors_video.jsonl"),
                           "--epochs", "1", "--batch-size", "4", *TRAIN_FLAGS,
                           "--run-dir", str(tmp_path / "r"))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {bad}: malformed arrays metadata in header\n"


def test_train_on_a_cache_without_signals_exit_2(corpus, tmp_path):
    blob = json.dumps({"arrays": []}).encode()
    bad = tmp_path / "bad.bin"
    bad.write_bytes(CACHE_MAGIC + bytes([CACHE_VERSION]) + len(blob).to_bytes(8, "little") + blob)
    proc = run_cli_process("train", "--cache", str(bad),
                           "--video-anchors", str(corpus / "anchors_video.jsonl"),
                           "--epochs", "1", "--batch-size", "4", *TRAIN_FLAGS,
                           "--run-dir", str(tmp_path / "r"))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {bad}: missing arrays ['signals'], unexpected arrays []\n"


@pytest.fixture(scope="module")
def repeated_id_cache(cache_path, tmp_path_factory):
    """The corpus cache with its first window once more; `save_window_cache` refuses to write it."""
    header, arrays = read_container(cache_path, CACHE_MAGIC, CACHE_VERSION)
    for column in ("ids", "source_ids", "start_s", "duration_s"):
        header[column].append(header[column][0])
    out = tmp_path_factory.mktemp("repeated") / "windows.bin"
    write_container(out, CACHE_MAGIC, CACHE_VERSION, header,
                    [("signals", np.concatenate([arrays["signals"], arrays["signals"][:1]]))])
    return out


@pytest.mark.parametrize("command", ["train", "eval-retrieval", "eval-classify", "retrieve"])
def test_commands_refuse_a_cache_with_repeated_ids(command, repeated_id_cache, run_dir, corpus,
                                                   tmp_path, capsys):
    cache, ckpt = str(repeated_id_cache), str(run_dir / "ckpt-30.bin")
    video = str(corpus / "anchors_video.jsonl")
    argv = {
        "train": ["--cache", cache, "--video-anchors", video, "--epochs", "1",
                  *TRAIN_FLAGS, "--run-dir", str(tmp_path / "r")],
        "eval-retrieval": ["--ckpt", ckpt, "--cache", cache, "--anchors", video,
                           "--direction", "imu2video"],
        "eval-classify": ["--ckpt", ckpt, "--cache", cache,
                          "--labels", str(corpus / "labels.jsonl"), "--protocol", "probe"],
        "retrieve": ["--ckpt", ckpt, "--pool", cache,
                     "--query-anchor", video],
    }[command]
    code, payload, err = run_cli(capsys, command, *argv)
    assert code == 2 and payload is None
    assert "repeated window ids" in err


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("command", ["train", "eval-retrieval", "retrieve"])
def test_commands_refuse_a_cache_with_non_finite_signals(command, bad, cache_path, run_dir, corpus,
                                                         tmp_path, capsys):
    header, arrays = read_container(cache_path, CACHE_MAGIC, CACHE_VERSION)
    signals = arrays["signals"]
    signals[2, 4, -1] = signals[5, 0, 0] = bad
    cache = tmp_path / "windows.bin"
    write_container(cache, CACHE_MAGIC, CACHE_VERSION, header, [("signals", signals)])
    ckpt, video = str(run_dir / "ckpt-30.bin"), str(corpus / "anchors_video.jsonl")
    argv = {
        "train": ["--cache", str(cache), "--video-anchors", video, "--epochs", "1",
                  *TRAIN_FLAGS, "--run-dir", str(tmp_path / "r")],
        "eval-retrieval": ["--ckpt", ckpt, "--cache", str(cache), "--anchors", video,
                           "--direction", "imu2video"],
        "retrieve": ["--ckpt", ckpt, "--pool", str(cache), "--query-anchor", video],
    }[command]
    code, payload, err = run_cli(capsys, command, *argv)
    assert (code, payload) == (2, None)
    assert err == f"error: window {header['ids'][2]}: non-finite signal values\n"
    assert not (tmp_path / "r").exists()


@pytest.fixture(scope="module")
def v1_cache(cache_path, tmp_path_factory):
    """The corpus cache in the version-1 layout: one header object per window."""
    header, arrays = read_container(cache_path, CACHE_MAGIC, CACHE_VERSION)
    columns = [header.pop(key) for key in ("ids", "source_ids", "start_s", "duration_s")]
    header["windows"] = [{"window_id": w, "source_id": s, "start_s": t, "duration_s": d}
                         for w, s, t, d in zip(*columns)]
    out = tmp_path_factory.mktemp("v1") / "windows.bin"
    write_container(out, CACHE_MAGIC, 1, header, list(arrays.items()))
    return out


@pytest.mark.parametrize("command", ["train", "eval-retrieval", "eval-classify", "retrieve"])
def test_cache_readers_refuse_a_version_1_cache(command, v1_cache, run_dir, corpus, tmp_path, capsys):
    cache, ckpt = str(v1_cache), str(run_dir / "ckpt-30.bin")
    video = str(corpus / "anchors_video.jsonl")
    argv = {
        "train": ["--cache", cache, "--video-anchors", video, "--epochs", "1",
                  *TRAIN_FLAGS, "--run-dir", str(tmp_path / "r")],
        "eval-retrieval": ["--ckpt", ckpt, "--cache", cache, "--anchors", video,
                           "--direction", "imu2video"],
        "eval-classify": ["--ckpt", ckpt, "--cache", cache,
                          "--labels", str(corpus / "labels.jsonl"), "--protocol", "probe"],
        "retrieve": ["--ckpt", ckpt, "--pool", cache, "--query-anchor", video],
    }[command]
    code = main([command, *argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {cache}: format version 1 unsupported (expected 2)\n"
    assert not (tmp_path / "r").exists()


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


def test_manifest_hashes_an_input_in_chunks_to_the_digest_of_its_bytes(tmp_path):
    data = np.random.default_rng(0).bytes(6 * cli._HASH_CHUNK + 3)
    p = tmp_path / "anchors.jsonl"
    p.write_bytes(data)
    tracemalloc.start()
    digest = cli._sha256(p)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert digest == hashlib.sha256(data).hexdigest()
    assert peak < 3 * cli._HASH_CHUNK, peak  # a chunk or two held at a time, not the whole file
    (tmp_path / "empty").write_bytes(b"")
    assert cli._sha256(tmp_path / "empty") == hashlib.sha256(b"").hexdigest()


def test_train_flag_defaults(capsys):
    from imualign.cli import build_parser

    args = build_parser().parse_args([
        "train", "--cache", "x", "--video-anchors", "y", "--epochs", "1", "--run-dir", "z",
    ])
    assert args.batch_size == 16
    assert args.learning_rate == 0.01
    assert args.adagrad_eps == 1e-8
    assert args.decay == 0.1


def _json_defaults(*configs) -> dict:
    return json.loads(json.dumps({k: v for c in configs for k, v in asdict(c).items()}))


def test_train_flags_set_every_config_field(cache_path, corpus, tmp_path, capsys):
    # a flag whose dest is not a field's name would leave that field at its default
    values = {"batch_size": 4, "learning_rate": 0.02, "adagrad_eps": 1e-7, "decay": 0.2, "epochs": 1,
              "seed": 3, "mode": "ivt", "temperature": 0.2, "conv_channels": [8], "conv_kernels": [7],
              "conv_strides": [3], "gru_hidden": 12, "embed_dim": 16}
    encoder_keys = {"conv_channels", "conv_kernels", "conv_strides", "gru_hidden", "embed_dim"}
    assert values.keys() == {f.name for f in fields(TrainConfig)} | encoder_keys
    defaults = _json_defaults(TrainConfig(), EncoderConfig())
    assert all(v != defaults[k] for k, v in values.items())
    run = tmp_path / "r"
    argv = ["train", "--cache", str(cache_path), "--video-anchors", str(corpus / "anchors_video.jsonl"),
            "--text-anchors", str(corpus / "anchors_text.jsonl"), "--run-dir", str(run),
            "--batch-size", "4", "--lr", "0.02", "--adagrad-eps", "1e-7", "--decay", "0.2",
            "--epochs", "1", "--seed", "3", "--mode", "ivt", "--temperature", "0.2",
            "--conv-channels", "8", "--conv-kernels", "7", "--conv-strides", "3",
            "--gru-hidden", "12", "--embed-dim", "16"]
    assert values.keys() <= vars(build_parser().parse_args(argv)).keys()
    assert main(argv) == 0
    config = json.loads((run / "config.json").read_text())
    manifest = json.loads((run / "manifest.json").read_text())["config"]
    for key, value in values.items():
        if key in encoder_keys:
            assert config["encoder"][key] == manifest["encoder"][key] == value, key
        else:
            assert config["train"][key] == manifest[key] == value, key


def test_eval_classify_flags_set_every_probe_config_field(run_dir, cache_path, corpus, tmp_path, capsys):
    values = {"epochs": 3, "learning_rate": 0.2, "batch_size": 4, "seed": 2}
    assert values.keys() == {f.name for f in fields(ProbeConfig)}
    defaults = _json_defaults(ProbeConfig())
    assert all(v != defaults[k] for k, v in values.items())
    out = tmp_path / "probe"
    argv = ["eval-classify", "--ckpt", str(run_dir / "ckpt-30.bin"), "--cache", str(cache_path),
            "--labels", str(corpus / "labels.jsonl"), "--protocol", "probe", "--run-dir", str(out),
            "--epochs", "3", "--lr", "0.2", "--batch-size", "4", "--seed", "2"]
    assert values.keys() <= vars(build_parser().parse_args(argv)).keys()
    assert main(argv) == 0
    assert json.loads((out / "manifest.json").read_text())["config"] == values


def test_train_mode_it_without_text_anchors_exit_2(cache_path, corpus, tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "train", "--cache", str(cache_path),
        "--video-anchors", str(corpus / "anchors_video.jsonl"),
        "--mode", "it", "--epochs", "1", *TRAIN_FLAGS,
        "--run-dir", str(tmp_path / "r"),
    )
    assert code == 2
    assert "--text-anchors" in err


@pytest.mark.parametrize("flag, value, message", [
    ("--embed-dim", "32", "embed_dim 32"),  # against 16-d anchors
    ("--batch-size", "16", "smaller than batch size 16"),  # 8 windows
    ("--conv-kernels", "100", "shorter than kernel 100"),  # 64-sample windows
], ids=["embed-dim", "batch-size", "conv-kernel"])
def test_train_refused_before_it_starts_leaves_no_run_dir(cache_path, corpus, tmp_path, capsys,
                                                         flag, value, message):
    run = tmp_path / "r"
    code, payload, err = run_cli(
        capsys, "train", "--cache", str(cache_path),
        "--video-anchors", str(corpus / "anchors_video.jsonl"),
        "--epochs", "1", "--batch-size", "4", *TRAIN_FLAGS, flag, value,  # the last of a repeated flag counts
        "--run-dir", str(run),
    )
    assert code == 2 and payload is None
    assert message in err
    assert not run.exists()


@pytest.mark.parametrize("video, text, where", [
    ("anchors_text.jsonl", None, "anchors_text.jsonl:1: expected a video anchor"),
    ("anchors_video.jsonl", "anchors_video.jsonl", "anchors_video.jsonl:1: expected a text anchor"),
], ids=["text-as-video", "video-as-text"])
def test_train_on_anchors_of_another_modality_exit_2(cache_path, corpus, tmp_path, capsys,
                                                     video, text, where):
    argv = ["train", "--cache", str(cache_path), "--video-anchors", str(corpus / video),
            "--mode", "iv" if text is None else "ivt", "--epochs", "1", *TRAIN_FLAGS,
            "--run-dir", str(tmp_path / "r")]
    if text is not None:
        argv += ["--text-anchors", str(corpus / text)]
    code, payload, err = run_cli(capsys, *argv)
    assert code == 2 and payload is None
    assert where in err


def test_train_with_a_temperature_whose_gradients_overflow_exit_3(cache_path, corpus, tmp_path, capsys):
    # runs under the suite's error::RuntimeWarning filter: no numpy warning on the way
    code, payload, err = run_cli(
        capsys, "train", "--cache", str(cache_path),
        "--video-anchors", str(corpus / "anchors_video.jsonl"),
        "--mode", "iv", "--epochs", "1", "--batch-size", "4", "--temperature", "1e-300",
        *TRAIN_FLAGS, "--run-dir", str(tmp_path / "r"),
    )
    assert code == 3 and payload is None
    assert "overflowing squared gradient" in err


def test_train_with_a_learning_rate_that_overflows_the_forward_exit_3(cache_path, corpus,
                                                                    tmp_path, capsys):
    # runs under the suite's error::RuntimeWarning filter: the first step moves each
    # weight by about 1e300, and the second forward overflows without a numpy warning
    code, payload, err = run_cli(
        capsys, "train", "--cache", str(cache_path),
        "--video-anchors", str(corpus / "anchors_video.jsonl"),
        "--mode", "iv", "--epochs", "1", "--batch-size", "4", "--lr", "1e300",
        *TRAIN_FLAGS, "--run-dir", str(tmp_path / "r"),
    )
    assert code == 3 and payload is None
    assert "non-finite loss" in err


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
    assert payload["dropped_anchors"] == 0 and payload["dropped_windows"] == 0
    assert "pool_lt_50" in payload["flags"]
    assert 0.0 <= payload["MRR"] <= 1.0


def test_eval_retrieval_reports_what_it_dropped(run_dir, cache_path, corpus, tmp_path, capsys):
    records = [json.loads(l) for l in (corpus / "anchors_video.jsonl").read_text().splitlines()]
    ghosts = [dict(records[0], window_id=f"ghost:{i}") for i in range(3)]
    anchors = tmp_path / "anchors.jsonl"
    anchors.write_text("".join(json.dumps(r) + "\n" for r in records[2:] + ghosts))
    code, payload, _ = run_cli(
        capsys, "eval-retrieval", "--ckpt", str(run_dir / "ckpt-30.bin"),
        "--cache", str(cache_path), "--anchors", str(anchors), "--direction", "imu2video",
    )
    assert code == 0
    assert payload["dropped_anchors"] == 3 and payload["dropped_windows"] == 2
    assert payload["n_queries"] == 6 and payload["pool_size"] == 6


def _count_encoder_passes(monkeypatch) -> list[dict]:
    """One record per `encode_batch` call made through `cli` or `evaluate`:
    the window ids it encoded and the checksum of the parameters it used."""
    passes = []
    real = cli.encode_batch

    def counted(windows, params, config):
        passes.append({"ids": [w.window_id for w in windows], "params": params.checksum()})
        return real(windows, params, config)

    for module in (cli, evaluate):
        monkeypatch.setattr(module, "encode_batch", counted)
    return passes


def test_eval_retrieval_encodes_only_the_windows_with_an_anchor(run_dir, cache_path, corpus,
                                                                tmp_path, monkeypatch, capsys):
    records = [json.loads(l) for l in (corpus / "anchors_video.jsonl").read_text().splitlines()]
    anchors = tmp_path / "anchors.jsonl"
    anchors.write_text("".join(json.dumps(r) + "\n" for r in records[2:]))
    passes = _count_encoder_passes(monkeypatch)
    code, payload, _ = run_cli(
        capsys, "eval-retrieval", "--ckpt", str(run_dir / "ckpt-30.bin"),
        "--cache", str(cache_path), "--anchors", str(anchors), "--direction", "video2imu",
    )
    assert code == 0 and payload["dropped_windows"] == 2
    anchored = [w.window_id for w in load_window_cache(cache_path).windows
                if w.window_id in {r["window_id"] for r in records[2:]}]
    assert [p["ids"] for p in passes] == [anchored] and len(anchored) == 6


def test_eval_retrieval_modality_mismatch_exit_2(run_dir, cache_path, corpus, capsys):
    code, _, err = run_cli(
        capsys, "eval-retrieval", "--ckpt", str(run_dir / "ckpt-30.bin"),
        "--cache", str(cache_path), "--anchors", str(corpus / "anchors_video.jsonl"),
        "--direction", "text2imu",
    )
    assert code == 2 and "modality" in err


@pytest.mark.parametrize("direction", ["imu2video", "video2imu"])
def test_eval_retrieval_on_anchors_of_another_dimension_exit_2(run_dir, cache_path, corpus,
                                                              tmp_path, capsys, direction):
    anchors = tmp_path / "anchors_8d.jsonl"
    anchors.write_text("".join(
        json.dumps({**rec, "vector": rec["vector"][:8]}) + "\n"
        for rec in map(json.loads, (corpus / "anchors_video.jsonl").read_text().splitlines())))
    code, payload, err = run_cli(
        capsys, "eval-retrieval", "--ckpt", str(run_dir / "ckpt-30.bin"),
        "--cache", str(cache_path), "--anchors", str(anchors), "--direction", direction,
    )
    assert code == 2 and payload is None
    assert "dim" in err and "Traceback" not in err


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
    assert payload["unlabeled_windows"] == 0 and payload["labels_without_window"] == 0


def test_eval_classify_zeroshot_predicts_what_zeroshot_classify_does(run_dir, cache_path, corpus,
                                                                     monkeypatch, capsys):
    # the command scores all windows in one call to the zero-shot head;
    # each window gets the class the one-embedding call gives it
    seen = []
    metrics = cli.classification_metrics
    monkeypatch.setattr(cli, "classification_metrics", lambda preds, *a: seen.append(preds) or metrics(preds, *a))
    code, _, _ = run_cli(
        capsys, "eval-classify", "--ckpt", str(run_dir / "ckpt-30.bin"),
        "--cache", str(cache_path), "--labels", str(corpus / "labels.jsonl"),
        "--protocol", "zeroshot", "--class-anchors", str(corpus / "class_anchors.jsonl"),
    )
    assert code == 0
    ckpt = load_checkpoint(run_dir / "ckpt-30.bin")
    labels, class_names = load_labels(corpus / "labels.jsonl")
    windows = load_window_cache(cache_path).windows.having(labels)
    anchors = load_anchor_embeddings(corpus / "class_anchors.jsonl")
    pairs = [(c, anchors[c].vector) for c in class_names]
    emb = cli.encode_batch(windows, ckpt.params, ckpt.encoder_config)
    assert seen == [[evaluate.zeroshot_classify(e, pairs) for e in emb]]


def test_eval_classify_reports_what_it_dropped(run_dir, cache_path, corpus, tmp_path, capsys):
    header, *records = (corpus / "labels.jsonl").read_text().splitlines()
    ghosts = [json.dumps(dict(json.loads(records[0]), window_id=f"ghost:{i}")) for i in range(3)]
    labels = tmp_path / "labels.jsonl"
    labels.write_text("".join(line + "\n" for line in [header] + records[2:] + ghosts))
    code, payload, _ = run_cli(
        capsys, "eval-classify", "--ckpt", str(run_dir / "ckpt-30.bin"),
        "--cache", str(cache_path), "--labels", str(labels),
        "--protocol", "zeroshot", "--class-anchors", str(corpus / "class_anchors.jsonl"),
    )
    assert code == 0
    assert payload["unlabeled_windows"] == 2 and payload["labels_without_window"] == 3
    assert payload["n"] == 6


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


@pytest.fixture
def partial_labels(corpus, tmp_path):
    """The corpus labels without their first two windows."""
    header, *records = (corpus / "labels.jsonl").read_text().splitlines()
    labels = tmp_path / "labels.jsonl"
    labels.write_text("".join(line + "\n" for line in [header] + records[2:]))
    return labels


@pytest.mark.parametrize("protocol", ["zeroshot", "probe", "finetune"])
def test_eval_classify_encodes_each_labeled_window_once(protocol, run_dir, cache_path, corpus,
                                                        partial_labels, tmp_path, monkeypatch,
                                                        capsys):
    passes = _count_encoder_passes(monkeypatch)
    events = []
    real_fine_tune = cli.fine_tune

    def fine_tune(*args):
        events.append(len(passes))  # encoder passes made before tuning
        return real_fine_tune(*args)

    monkeypatch.setattr(cli, "fine_tune", fine_tune)
    code, payload, _ = run_cli(
        capsys, "eval-classify", "--ckpt", str(run_dir / "ckpt-30.bin"),
        "--cache", str(cache_path), "--labels", str(partial_labels), "--protocol", protocol,
        "--class-anchors", str(corpus / "class_anchors.jsonl"), "--epochs", "3",
        "--run-dir", str(tmp_path / "run"),
    )
    assert code == 0 and payload["unlabeled_windows"] == 2
    labels, _ = load_labels(partial_labels)
    labeled = [w.window_id for w in load_window_cache(cache_path).windows if w.window_id in labels]
    assert [p["ids"] for p in passes] == [labeled]
    if protocol == "finetune":
        assert events == [0]
        tuned = load_checkpoint(tmp_path / "run" / "ckpt-finetuned.bin").params
        assert passes[0]["params"] == tuned.checksum()
    else:
        assert events == []
        assert passes[0]["params"] == load_checkpoint(run_dir / "ckpt-30.bin").params.checksum()


def test_eval_classify_probe_head_is_train_probes_head(run_dir, cache_path, corpus,
                                                       partial_labels, tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "eval-classify", "--ckpt", str(run_dir / "ckpt-30.bin"),
        "--cache", str(cache_path), "--labels", str(partial_labels),
        "--protocol", "probe", "--epochs", "20", "--batch-size", "2", "--seed", "3",
        "--run-dir", str(tmp_path / "probe"),
    )
    assert code == 0
    ckpt = load_checkpoint(run_dir / "ckpt-30.bin")
    labels, class_names = load_labels(partial_labels)
    windows = load_window_cache(cache_path).windows.having(labels)
    head = train_probe(ParallelDataset(windows, {}, None, labels, class_names), ckpt.params,
                       ckpt.encoder_config, ProbeConfig(epochs=20, batch_size=2, seed=3))
    save_head(tmp_path / "expected.bin", head)
    assert (tmp_path / "probe" / "head.bin").read_bytes() == (tmp_path / "expected.bin").read_bytes()


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


@pytest.mark.parametrize("protocol", ["probe", "finetune"])
def test_eval_classify_manifest_hashes_only_the_files_read(protocol, run_dir, cache_path, corpus,
                                                           tmp_path, capsys):
    # probe and finetune never open --class-anchors, so a missing file is no reason to fail
    code, payload, _ = run_cli(
        capsys, "eval-classify", "--ckpt", str(run_dir / "ckpt-30.bin"),
        "--cache", str(cache_path), "--labels", str(corpus / "labels.jsonl"),
        "--protocol", protocol, "--epochs", "2", "--class-anchors", str(tmp_path / "absent.jsonl"),
        "--run-dir", str(tmp_path / "run"),
    )
    assert code == 0 and payload["protocol"] == protocol
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert sorted(manifest["input_hashes"]) == sorted(
        [str(run_dir / "ckpt-30.bin"), str(cache_path), str(corpus / "labels.jsonl")])


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


def test_retrieve_equal_scores_come_back_in_id_order(tmp_path, capsys):
    v = np.arange(1.0, 513.0)
    ids = ["w9", "w3", "w7", "w0", "w5", "w1"]  # BLAS gemv scores these 7 rows unevenly
    pool = tmp_path / "pool.jsonl"
    pool.write_text("".join(
        json.dumps({"window_id": i, "modality": "video", "vector": v.tolist()}) + "\n"
        for i in ids) + json.dumps({"window_id": "a", "modality": "video",
                                    "vector": (-v).tolist()}) + "\n")
    query = json.dumps({"window_id": "q", "vector": v.tolist()})
    code, payload, _ = run_cli(capsys, "retrieve", "--pool", str(pool), "--query-anchor", query,
                               "--top-k", "7")
    assert code == 0
    assert [r["window_id"] for r in payload["results"]] == sorted(ids) + ["a"]


@pytest.mark.parametrize("top_k", ["0", "-1"])
def test_retrieve_top_k_below_one_exit_2(corpus, capsys, top_k):
    line = (corpus / "anchors_video.jsonl").read_text().splitlines()[0]
    code, payload, err = run_cli(capsys, "retrieve", "--pool", str(corpus / "anchors_video.jsonl"),
                                 "--query-anchor", line, "--top-k", top_k)
    assert code == 2 and payload is None and "--top-k" in err


def test_retrieve_cache_pool_without_ckpt_exit_2(cache_path, corpus, capsys):
    line = (corpus / "anchors_video.jsonl").read_text().splitlines()[0]
    code, _, err = run_cli(capsys, "retrieve", "--pool", str(cache_path),
                           "--query-anchor", line)
    assert code == 2 and "--ckpt" in err


def test_retrieve_cache_pool_without_windows_exit_2(run_dir, corpus, tmp_path, capsys):
    pool = tmp_path / "empty.bin"
    save_window_cache(WindowCache(WindowSet([], [], [], [], np.empty((0, 6, 0))), 200.0, 0.32, 0.32, "none"), pool)
    line = (corpus / "anchors_video.jsonl").read_text().splitlines()[0]
    code, payload, err = run_cli(capsys, "retrieve", "--ckpt", str(run_dir / "ckpt-30.bin"),
                                 "--pool", str(pool), "--query-anchor", line)
    assert code == 2 and payload is None
    assert err == f"error: {pool}: cache holds no windows\n"


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


def test_retrieve_refuses_a_query_vector_of_strings_and_bools(corpus, capsys):
    code, payload, err = run_cli(capsys, "retrieve", "--pool", str(corpus / "anchors_video.jsonl"),
                                 "--query-anchor", '{"vector": ["1", true]}')
    assert code == 2 and payload is None
    assert err == "error: --query-anchor: field 'vector' is missing or not a list of numbers\n"


@pytest.mark.parametrize("role", ["pool", "query-file"])
def test_a_million_deep_record_exit_2_in_a_child_process(corpus, tmp_path, role):
    deep = tmp_path / "deep.jsonl"
    deep.write_text('{"window_id": "w0", "modality": "video", "vector": ' + "[" * 10**6 + "]" * 10**6 + "}\n")
    query = (corpus / "anchors_video.jsonl").read_text().splitlines()[0]
    argv = {"pool": ["--pool", str(deep), "--query-anchor", query],
            "query-file": ["--pool", str(corpus / "anchors_video.jsonl"), "--query-anchor", str(deep)]}[role]
    proc = run_cli_process("retrieve", *argv)  # a parser without a depth limit would crash the child
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith(f"error: {deep}:1: bad JSON: maximum recursion depth exceeded")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("line", ["[1, 2]", "{not json", '{"window_id": "q"}'])
def test_retrieve_malformed_query_file_exit_2(corpus, tmp_path, capsys, line):
    q = tmp_path / "q.jsonl"
    q.write_text(line + "\n")
    code, payload, err = run_cli(capsys, "retrieve", "--pool", str(corpus / "anchors_video.jsonl"),
                                 "--query-anchor", str(q))
    assert code == 2 and payload is None and str(q) in err


# ---------------------------------------------------------------------------
# dispatcher contracts


def _refusal_argv(case, run_dir, cache_path, corpus, inputs):
    """The argv of one refused command, with the inputs it needs written under `inputs`, and its error."""
    ckpt, labels = str(run_dir / "ckpt-30.bin"), str(corpus / "labels.jsonl")
    classify = ["eval-classify", "--ckpt", ckpt, "--cache", str(cache_path), "--run-dir", str(inputs.parent / "run")]
    if case == "eval-retrieval-no-overlap":
        anchors = inputs / "anchors.jsonl"
        anchors.write_text(json.dumps({"window_id": "elsewhere:0", "modality": "video", "vector": [1.0] * 16}) + "\n")
        return (["eval-retrieval", "--ckpt", ckpt, "--cache", str(cache_path), "--anchors", str(anchors),
                 "--direction", "imu2video"], "no anchor ids overlap the cache windows")
    if case == "eval-classify-no-label":
        unlabeled = inputs / "labels.jsonl"
        unlabeled.write_text('{"classes": ["a", "b"]}\n{"window_id": "elsewhere:0", "label": "a"}\n')
        return [*classify, "--labels", str(unlabeled), "--protocol", "probe"], "no cached window has a label"
    if case == "eval-classify-zeroshot-missing-class":
        first = (corpus / "class_anchors.jsonl").read_text().splitlines()[0]
        partial = inputs / "class_anchors.jsonl"
        partial.write_text(first + "\n")
        _, classes = load_labels(labels)
        missing = ", ".join(c for c in classes if c != json.loads(first)["window_id"])
        return ([*classify, "--labels", labels, "--protocol", "zeroshot", "--class-anchors", str(partial)],
                f"class anchors missing for: {missing}")
    empty = inputs / "query.jsonl"
    empty.write_text("\n")
    return (["retrieve", "--pool", str(corpus / "anchors_video.jsonl"), "--query-anchor", str(empty)],
            f"{empty}: empty query file")


@pytest.mark.parametrize("case", ["eval-retrieval-no-overlap", "eval-classify-no-label",
                                  "eval-classify-zeroshot-missing-class", "retrieve-empty-query-file"])
def test_refused_commands_print_nothing_and_write_no_run_dir(case, run_dir, cache_path, corpus, tmp_path, capsys):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    argv, message = _refusal_argv(case, run_dir, cache_path, corpus, inputs)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines()[-1] == f"error: {message}"
    assert list(tmp_path.iterdir()) == [inputs]


def test_numeric_failure_exits_3(monkeypatch, cache_path, corpus, tmp_path, capsys):
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


@pytest.fixture(scope="module")
def nan_ckpt(run_dir, tmp_path_factory):
    """The trained checkpoint with a NaN projection bias: every embedding is NaN."""
    ckpt = load_checkpoint(run_dir / "ckpt-30.bin")
    ckpt.params["proj.b"].data[:] = np.nan
    out = tmp_path_factory.mktemp("nan") / "ckpt-nan.bin"
    save_checkpoint(out, ckpt.params, None, ckpt.encoder_config, ckpt.train_config, step=ckpt.step)
    return out


@pytest.mark.parametrize("command", ["retrieve", "eval-retrieval", "eval-classify:zeroshot",
                                     "eval-classify:probe", "eval-classify:finetune"])
def test_non_finite_embeddings_exit_3(command, nan_ckpt, cache_path, corpus, capsys):
    video = str(corpus / "anchors_video.jsonl")
    name, _, protocol = command.partition(":")
    argv = {
        "retrieve": ["--pool", str(cache_path), "--query-anchor", video],
        "eval-retrieval": ["--cache", str(cache_path), "--anchors", video, "--direction", "imu2video"],
        "eval-classify": ["--cache", str(cache_path), "--labels", str(corpus / "labels.jsonl"),
                          "--protocol", protocol, "--epochs", "2",
                          "--class-anchors", str(corpus / "class_anchors.jsonl")],
    }[name]
    code, payload, err = run_cli(capsys, name, "--ckpt", str(nan_ckpt), *argv)
    assert code == 3 and payload is None
    assert err.startswith("numerical failure: ") and "Traceback" not in err


def test_a_probe_whose_logits_overflow_exits_3_without_a_warning(tmp_path):
    corpus, cache, run = tmp_path / "corpus", tmp_path / "windows.bin", tmp_path / "run"
    assert main(["synth", "--seed", "1", "--n", "24", "--classes", "3", "--dim", "16", "--window-s", "0.32",
                 "--out-dir", str(corpus)]) == 0
    assert main(["ingest", *(a for c in sorted(corpus.glob("synth-*.csv")) for a in ("--imu", str(c))),
                 "--window-s", "0.32", "--out", str(cache)]) == 0
    assert main(["train", "--cache", str(cache), "--video-anchors", str(corpus / "anchors_video.jsonl"),
                 "--epochs", "1", "--batch-size", "4", *TRAIN_FLAGS, "--run-dir", str(run)]) == 0
    # a child process with the default warning filters, so a leaked RuntimeWarning would reach stderr
    proc = run_cli_process("eval-classify", "--ckpt", str(run / "ckpt-1.bin"), "--cache", str(cache),
                           "--labels", str(corpus / "labels.jsonl"), "--protocol", "probe", "--lr", "1e308",
                           "--epochs", "1", "--run-dir", str(tmp_path / "probe"))
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "numerical failure: classifier head: window 'synth-0001:0' has a non-finite logit"]
    assert not (tmp_path / "probe").exists()


def test_a_nan_zeroshot_score_exits_3_naming_its_window(run_dir, cache_path, corpus, monkeypatch, capsys):
    encode_batch = cli.encode_batch

    def nan_in_row_2(windows, params, config):
        emb = encode_batch(windows, params, config)
        emb[2, 0] = np.nan  # past encode_batch's own check, as a scorer's NaN would be
        return emb

    monkeypatch.setattr(cli, "encode_batch", nan_in_row_2)
    code, payload, err = run_cli(
        capsys, "eval-classify", "--ckpt", str(run_dir / "ckpt-30.bin"), "--cache", str(cache_path),
        "--labels", str(corpus / "labels.jsonl"), "--protocol", "zeroshot",
        "--class-anchors", str(corpus / "class_anchors.jsonl"))
    window = load_window_cache(cache_path).windows.ids[2]
    assert code == 3 and payload is None
    assert err.splitlines() == [f"numerical failure: classifier head: window {window!r} has a non-finite logit"]


@pytest.mark.parametrize("case", ["retrieve-query-is-a-dir", "retrieve-pool-is-a-dir",
                                  "eval-retrieval-cache-is-a-dir", "train-run-dir-is-a-file"])
def test_os_errors_exit_2(case, run_dir, cache_path, corpus, tmp_path, capsys):
    a_dir, a_file = str(tmp_path), tmp_path / "file"
    a_file.write_text("")
    ckpt, video = str(run_dir / "ckpt-30.bin"), str(corpus / "anchors_video.jsonl")
    query = (corpus / "anchors_video.jsonl").read_text().splitlines()[0]
    argv = {
        "retrieve-query-is-a-dir": ["retrieve", "--pool", video, "--query-anchor", a_dir],
        "retrieve-pool-is-a-dir": ["retrieve", "--pool", a_dir, "--query-anchor", query],
        "eval-retrieval-cache-is-a-dir": ["eval-retrieval", "--ckpt", ckpt, "--cache", a_dir,
                                          "--anchors", video, "--direction", "imu2video"],
        "train-run-dir-is-a-file": ["train", "--cache", str(cache_path), "--video-anchors", video,
                                    "--epochs", "1", "--batch-size", "4", *TRAIN_FLAGS,
                                    "--run-dir", str(a_file)],
    }[case]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("case", ["retrieve-pool", "train-video-anchors", "eval-classify-labels",
                                  "retrieve-query-file"])
def test_bytes_that_are_not_utf8_exit_2_naming_the_line(case, run_dir, cache_path, corpus,
                                                       tmp_path, capsys):
    video = corpus / "anchors_video.jsonl"
    bad = tmp_path / "bad.jsonl"
    source = corpus / "labels.jsonl" if case == "eval-classify-labels" else video
    bad.write_bytes(source.read_bytes() + b'{"window_id": "\xff"}\n')
    line = len(source.read_bytes().splitlines()) + 1
    if case == "retrieve-query-file":  # only the first record is read
        bad.write_bytes(b'{"vector": [1.0, \xff]}\n')
        line = 1
    ckpt, query = str(run_dir / "ckpt-30.bin"), video.read_text().splitlines()[0]
    argv = {
        "retrieve-pool": ["retrieve", "--pool", str(bad), "--query-anchor", query],
        "train-video-anchors": ["train", "--cache", str(cache_path), "--video-anchors", str(bad),
                                "--epochs", "1", "--batch-size", "4", *TRAIN_FLAGS,
                                "--run-dir", str(tmp_path / "r")],
        "eval-classify-labels": ["eval-classify", "--ckpt", ckpt, "--cache", str(cache_path),
                                 "--labels", str(bad), "--protocol", "probe"],
        "retrieve-query-file": ["retrieve", "--pool", str(video), "--query-anchor", str(bad)],
    }[case]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}:{line}: bytes that are not UTF-8")


_FLOATS = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e300", "1e400"])
_INTS = st.sampled_from(["nan", "inf", "-1", "0", "1.5", str(10**30), str(10**400)])
_COUNTS = st.sampled_from(["nan", "inf", "-1", "0", "1.5"])  # a huge count would just run long
# each numeric flag of a command: a value that works on the tiny corpus, and hostile ones
_FUZZ_FLAGS = {
    "ingest": {"--window-s": ("0.32", _FLOATS), "--stride-s": ("0.32", _FLOATS),
               "--rate-hz": ("200", _FLOATS)},
    "train": {"--epochs": ("1", _COUNTS), "--seed": ("0", _INTS), "--batch-size": ("4", _INTS),
              "--lr": ("0.01", _FLOATS), "--adagrad-eps": ("1e-8", _FLOATS),
              "--decay": ("0.1", _FLOATS), "--temperature": ("0.1", _FLOATS),
              "--coverage": ("1", _FLOATS), "--conv-channels": ("8", _INTS),
              "--conv-kernels": ("7", _INTS), "--conv-strides": ("2", _INTS),
              "--gru-hidden": ("12", _INTS), "--embed-dim": ("16", _INTS)},
    "eval-classify": {"--epochs": ("2", _COUNTS), "--lr": ("0.1", _FLOATS), "--seed": ("0", _INTS),
                      "--batch-size": ("0", _INTS)},
    "retrieve": {"--top-k": ("3", _INTS)},
    "synth": {"--seed": ("5", _INTS), "--n": ("4", _COUNTS), "--classes": ("2", _COUNTS),
              "--dim": ("8", _INTS), "--noise": ("0.05", _FLOATS), "--window-s": ("0.16", _FLOATS),
              "--rate-hz": ("200", _FLOATS)},
}


@st.composite
def _fuzzed_argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    spec = _FUZZ_FLAGS[command]
    chosen = draw(st.sets(st.sampled_from(sorted(spec)), min_size=1, max_size=2))
    flags = [f"{flag}={draw(hostile) if flag in chosen else valid}"
             for flag, (valid, hostile) in spec.items()]
    if command == "eval-classify":
        flags.append(f"--protocol={draw(st.sampled_from(['zeroshot', 'probe', 'finetune']))}")
    return [command, *flags]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(argv=["ingest", "--window-s=nan"])
@example(argv=["eval-classify", "--lr=1e300", "--protocol=finetune"])
@example(argv=["ingest", "--window-s=0.32", "--stride-s=inf"])
@example(argv=["train", "--epochs=1", "--seed=-1"])
@example(argv=["ingest", "--window-s=1e307"])
@example(argv=["ingest", "--stride-s=1e307"])
@given(argv=_fuzzed_argv())
def test_numeric_flags_exit_0_2_or_3_without_traceback(argv, run_dir, cache_path, corpus,
                                                        tmp_path, capsys):
    video = str(corpus / "anchors_video.jsonl")
    command, ckpt = argv[0], str(run_dir / "ckpt-30.bin")
    argv = argv + {  # a new list: the drawn one may be replayed
        "ingest": [arg for c in sorted(corpus.glob("synth-*.csv")) for arg in ("--imu", str(c))]
                  + ["--out", str(tmp_path / "c.bin")],
        "train": ["--cache", str(cache_path), "--video-anchors", video,
                  "--run-dir", str(tmp_path / "r")],
        "eval-classify": ["--ckpt", ckpt, "--cache", str(cache_path),
                          "--labels", str(corpus / "labels.jsonl"),
                          "--class-anchors", str(corpus / "class_anchors.jsonl")],
        "retrieve": ["--pool", video, "--query-anchor", video],
        "synth": ["--out-dir", str(tmp_path / "s")],
    }[command]
    try:
        code = main(argv)  # any exception but argparse's SystemExit fails the test
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 2, 3), (code, err)
    assert "Traceback" not in err
    if code == 0:
        assert isinstance(json.loads(out), dict)
    else:
        assert out == ""


def test_thread_env_var_is_ignored(monkeypatch, run_dir, cache_path, corpus, capsys):
    argv = ["eval-retrieval", "--ckpt", str(run_dir / "ckpt-30.bin"), "--cache", str(cache_path),
            "--anchors", str(corpus / "anchors_video.jsonl"), "--direction", "imu2video"]
    monkeypatch.setenv("IMU_ALIGN_THREADS", "4")
    code, payload, _ = run_cli(capsys, *argv)
    assert code == 0
    monkeypatch.delenv("IMU_ALIGN_THREADS")
    code2, payload2, _ = run_cli(capsys, *argv)
    assert code2 == 0
    assert payload == payload2
