"""Input generator for the imualign benchmark.

Writes every file a workload reads (IMU CSV streams, anchor and label
JSONL, window caches, checkpoints, distractor arrays) into a directory,
deterministically from a seed. It runs as its own process, so that its
memory never shows in the benchmark's peak-RSS figure:

    python3 perfbench/gen.py --out DIR --seed 7 --make pretrain:full --make ingest:reference

Each ``--make workload:size`` writes ``DIR/<workload>-<size>/`` plus a
``manifest.json`` describing what was written.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

if __name__ == "__main__":  # run as a script: make the package and the benchmark importable
    _ROOT = Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]

import numpy as np

from imualign.encoder import EncoderConfig, init_params
from imualign.signalio import (
    AnchorEmbedding,
    ImuStream,
    WindowCache,
    save_window_cache,
    synth_class_anchors,
    synth_dataset,
    write_anchor_embeddings,
    write_imu_stream,
    write_labels,
)
from imualign.train import save_checkpoint

from perfbench.sizes import (
    ANCHOR_DIM,
    ANCHOR_NOISE,
    RATE_HZ,
    SIZES,
    TIMESTAMP_JITTER,
    WINDOW_S,
    WORKLOADS,
)


def _unit_rows(rng, n: int, dim: int):
    v = rng.standard_normal((n, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _write_windows(ds, out: Path) -> None:
    save_window_cache(WindowCache(ds.windows, RATE_HZ, WINDOW_S, WINDOW_S), out / "windows.bin")


def _write_checkpoint(seed: int, out: Path) -> None:
    config = EncoderConfig()
    save_checkpoint(out / "ckpt.bin", init_params(config, seed), None, config, None, step=0)


def gen_pretrain(size: dict, seed: int, out: Path) -> dict:
    ds = synth_dataset(seed, size["windows"], size["classes"], ANCHOR_DIM,
                       int(RATE_HZ * WINDOW_S), ANCHOR_NOISE, RATE_HZ)
    _write_windows(ds, out)
    write_anchor_embeddings(ds.video_anchors, out / "video.jsonl")
    write_anchor_embeddings(ds.text_anchors, out / "text.jsonl")
    return {"windows": len(ds)}


def gen_retrieve(size: dict, seed: int, out: Path) -> dict:
    ds = synth_dataset(seed, size["windows"], size["classes"], ANCHOR_DIM,
                       int(RATE_HZ * WINDOW_S), ANCHOR_NOISE, RATE_HZ)
    _write_windows(ds, out)
    _write_checkpoint(seed, out)
    write_anchor_embeddings(ds.text_anchors, out / "text.jsonl")
    rng = np.random.default_rng([seed, 1])
    video = dict(ds.video_anchors)
    extra = size["video_jsonl"] - len(video)
    for i, vec in enumerate(_unit_rows(rng, extra, ANCHOR_DIM)):
        wid = f"video-distractor-{i:05d}"
        video[wid] = AnchorEmbedding(wid, "video", vec)
    write_anchor_embeddings(video, out / "video.jsonl")
    # pool entries beyond the encoded windows and the anchor file
    np.save(out / "imu_distractors.npy", _unit_rows(rng, size["imu_pool"] - len(ds), ANCHOR_DIM))
    np.save(out / "video_distractors.npy",
            _unit_rows(rng, size["video_pool"] - len(video), ANCHOR_DIM))
    return {"windows": len(ds), "video_jsonl": len(video)}


def _imu_stream_values(rng, t):
    """Six smooth channels (a few sinusoids each) plus sensor noise."""
    cols = []
    for _ in range(6):
        freqs = rng.uniform(0.3, 6.0, size=3)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=3)
        amps = rng.uniform(0.2, 2.0, size=3)
        col = (amps[:, None] * np.sin(2.0 * np.pi * freqs[:, None] * t + phases[:, None])).sum(axis=0)
        cols.append(col + 0.05 * rng.standard_normal(t.shape[0]))
    return np.column_stack(cols)


def gen_ingest(size: dict, seed: int, out: Path) -> dict:
    """CSV streams at a native rate other than 200 Hz, with jittered sample
    times, so that ingest's resampling really interpolates."""
    rng = np.random.default_rng([seed, 2])
    n_rows = int(size["stream_s"] * size["native_hz"])
    files = []
    for s in range(size["streams"]):
        steps = (1.0 + TIMESTAMP_JITTER * rng.uniform(-1.0, 1.0, n_rows)) / size["native_hz"]
        t = rng.uniform(0.0, 100.0) + np.cumsum(steps)
        name = f"stream-{s:03d}.csv"
        write_imu_stream(ImuStream(name[:-4], size["native_hz"], t, _imu_stream_values(rng, t)),
                         out / name)
        files.append({"file": name, "rows": n_rows})
    return {"files": files}


def gen_classify(size: dict, seed: int, out: Path) -> dict:
    ds = synth_dataset(seed, size["windows"], size["classes"], ANCHOR_DIM,
                       int(RATE_HZ * WINDOW_S), ANCHOR_NOISE, RATE_HZ)
    _write_windows(ds, out)
    _write_checkpoint(seed, out)
    write_anchor_embeddings(ds.video_anchors, out / "video.jsonl")
    write_labels(ds.labels, ds.class_names, out / "labels.jsonl")
    classes = {name: AnchorEmbedding(name, "text", vec)
               for name, vec in synth_class_anchors(seed, size["classes"], ANCHOR_DIM).items()}
    write_anchor_embeddings(classes, out / "class_anchors.jsonl")
    return {"windows": len(ds), "classes": ds.class_names}


GENERATORS = {"pretrain": gen_pretrain, "retrieve": gen_retrieve,
              "ingest": gen_ingest, "classify": gen_classify}


def generate(out: Path, seed: int, workload: str, size_name: str) -> None:
    size = SIZES[size_name][workload]
    target = out / f"{workload}-{size_name}"
    target.mkdir(parents=True, exist_ok=True)
    manifest = GENERATORS[workload](size, seed, target)
    manifest.update({"workload": workload, "size": size_name, "seed": seed})
    (target / "manifest.json").write_text(json.dumps(manifest, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--make", action="append", required=True, metavar="WORKLOAD:SIZE")
    args = parser.parse_args(argv)
    for item in args.make:
        workload, _, size_name = item.partition(":")
        if workload not in WORKLOADS or size_name not in SIZES:
            parser.error(f"--make {item!r}: expected one of {WORKLOADS} and a size in {tuple(SIZES)}")
        generate(args.out, args.seed, workload, size_name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
