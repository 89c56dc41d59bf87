"""Command-line entry points.

A command that succeeds prints one machine-readable JSON object to stdout
and human diagnostics to stderr. Exit codes: 0 success, 2 validation
failure, 3 numerical failure. A refused command (exit 2 or 3) prints
nothing to stdout, and its last line on stderr is `error: …` (exit 2) or
`numerical failure: …` (exit 3). Commands that create a run directory
also write a manifest with the resolved configuration and input content
hashes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .encoder import EncoderConfig, encode_batch
from .errors import DataError, ImuAlignError, NumericError
from .evaluate import (
    RETRIEVAL_DIRECTIONS,
    Pool,
    ProbeConfig,
    classification_metrics,
    eval_retrieval,
    fine_tune,
    fit_linear_head,
    label_indices,
    save_head,
    zeroshot_classify,
)
from .signalio import (
    CACHE_MAGIC,
    AnchorEmbedding,
    ImuStream,
    ParallelDataset,
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
from .train import MODES, TrainConfig, fit, load_checkpoint, save_checkpoint, write_manifest


_HASH_CHUNK = 1 << 20  # bytes of a manifest input read at a time


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(_HASH_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _config(cls, args):
    """A `cls` config from the parsed flags whose dest is one of its fields;
    a field with no flag keeps its default."""
    flags = vars(args)
    return cls(**{f.name: flags[f.name] for f in fields(cls) if f.name in flags})


def _manifest(command: str, args_map: dict, inputs: list) -> dict:
    return {
        "command": command,
        "config": {k: v for k, v in args_map.items() if v is not None},
        "input_hashes": {str(p): _sha256(p) for p in inputs},
        "tool_version": __version__,
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_ingest(args) -> int:
    paths = [Path(p) for p in args.imu]
    for p in paths:
        if not p.exists():
            raise DataError(f"input file {p} does not exist")
    # the content hash (README): per raw stream its source id, '<f8' timestamps and values; then params
    digest, parts, duration, source_of = hashlib.sha256(), [], 0.0, {}
    for path in paths:  # the raw samples of only one file are held at a time
        raw = load_imu_stream(path)
        digest.update(raw.source_id.encode())
        digest.update(np.ascontiguousarray(raw.timestamps, dtype="<f8"))
        digest.update(np.ascontiguousarray(raw.values, dtype="<f8"))
        stream = resample(raw, args.rate_hz)
        duration += stream.duration_s
        part = make_windows(stream, args.window_s, args.stride_s)
        if not source_of.keys().isdisjoint(part.ids):
            wid = next(wid for wid in part.ids if wid in source_of)
            raise DataError(f"window id {wid!r} comes from both {source_of[wid]} and {path}")
        source_of.update(dict.fromkeys(part.ids, path))
        parts.append(part)
    del raw, stream  # so the last file's raw samples and grid are not held while the windows are copied
    params = {"window_s": args.window_s, "stride_s": args.stride_s, "rate_hz": args.rate_hz}
    digest.update(json.dumps(params, sort_keys=True).encode())
    windows = WindowSet.concat(parts, "ingest")  # the one copy of the windows' samples
    if not windows:
        raise DataError(f"no stream is at least one window ({args.window_s}s) long")
    cache = WindowCache(windows, args.rate_hz, args.window_s, args.stride_s, digest.hexdigest())
    save_window_cache(cache, args.out)
    _emit({
        "n_windows": len(windows),
        "window_samples": windows.n_samples,
        "duration_s": round(duration, 6),
        "n_sources": len(paths),
        "content_hash": cache.content_hash,
        "out": str(args.out),
    })
    return 0


def cmd_train(args) -> int:
    config = _config(TrainConfig, args)
    if "text" in MODES[config.mode] and not args.text_anchors:
        raise DataError(f"mode {config.mode!r} requires --text-anchors")
    encoder_config = _config(EncoderConfig, args)
    cache = load_window_cache(args.cache)
    dataset, dropped = assemble_dataset(
        cache.windows, args.video_anchors, args.text_anchors, coverage_threshold=args.coverage
    )
    if dropped:
        print(f"dropped {len(dropped)} windows without anchors", file=sys.stderr)

    inputs = [args.cache, args.video_anchors] + ([args.text_anchors] if args.text_anchors else [])
    manifest = _manifest("train", {**asdict(config), "encoder": asdict(encoder_config)}, inputs)
    t0 = time.time()
    _, _, history = fit(dataset, encoder_config, config, run_dir=args.run_dir, manifest=manifest)
    _emit({
        "run_dir": str(args.run_dir),
        "epochs": config.epochs,
        "n_windows": len(dataset),
        "final": history[-1] if history else None,
        "wall_s": round(time.time() - t0, 3),
    })
    return 0


def _embeddings_from(ckpt_path, windows) -> dict[str, np.ndarray]:
    ckpt = load_checkpoint(ckpt_path)
    return dict(zip(windows.ids, encode_batch(windows, ckpt.params, ckpt.encoder_config)))


def cmd_eval_retrieval(args) -> int:
    anchors = load_anchor_embeddings(args.anchors, "text" if "text" in args.direction else "video")
    cache = load_window_cache(args.cache)
    windows = cache.windows.having(anchors)
    if not windows:
        raise DataError("no anchor ids overlap the cache windows")
    embeddings = _embeddings_from(args.ckpt, windows)
    metrics = eval_retrieval(embeddings, {k: anchors[k].vector for k in embeddings}, args.direction)
    metrics.update(task="retrieval", dropped_anchors=len(anchors) - len(windows),
                   dropped_windows=len(cache.windows) - len(windows))
    _emit(metrics)
    return 0


def cmd_eval_classify(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    cache = load_window_cache(args.cache)
    labels, class_names = load_labels(args.labels)
    windows = cache.windows.having(labels)
    if not windows:
        raise DataError("no cached window has a label")
    dataset = ParallelDataset(windows, {}, None, labels, class_names)
    probe_cfg = _config(ProbeConfig, args)

    params = ckpt.params
    if args.protocol == "zeroshot":
        if not args.class_anchors:
            raise DataError("zeroshot requires --class-anchors")
        anchors = load_anchor_embeddings(args.class_anchors)
        missing = [c for c in class_names if c not in anchors]
        if missing:
            raise DataError(f"class anchors missing for: {', '.join(missing)}")
        pairs = [(c, anchors[c].vector) for c in class_names]
    elif args.protocol == "finetune":
        params, head = fine_tune(dataset, params, None, ckpt.encoder_config, probe_cfg)
    emb = encode_batch(windows, params, ckpt.encoder_config)
    if args.protocol == "zeroshot":
        preds = [zeroshot_classify(e, pairs) for e in emb]
    else:
        if args.protocol == "probe":
            head = fit_linear_head(emb, label_indices(dataset, windows), class_names, probe_cfg)
        preds = head.predict(emb)
        if args.run_dir:
            _write_classify_run(args, probe_cfg, head, ckpt, params)

    metrics = classification_metrics(preds, [labels[wid] for wid in windows.ids], class_names)
    metrics.update(task="classification", protocol=args.protocol,
                   unlabeled_windows=len(cache.windows) - len(windows),
                   labels_without_window=len(labels) - len(windows))
    _emit(metrics)
    return 0


def _write_classify_run(args, probe_cfg: ProbeConfig, head, ckpt, params) -> None:
    run = Path(args.run_dir)
    run.mkdir(parents=True, exist_ok=True)
    save_head(run / "head.bin", head)
    if args.protocol == "finetune":
        save_checkpoint(run / "ckpt-finetuned.bin", params, None,
                        ckpt.encoder_config, ckpt.train_config, step=ckpt.step)
    inputs = [args.ckpt, args.cache, args.labels]  # probe and finetune read no class anchors
    write_manifest(run, _manifest(f"eval-classify:{args.protocol}", asdict(probe_cfg), inputs))


def cmd_retrieve(args) -> int:
    if args.top_k < 1:
        raise DataError(f"--top-k must be >= 1, got {args.top_k}")
    query = load_query_vector(args.query_anchor)
    pool_path = Path(args.pool)
    with open(pool_path, "rb") as fh:
        is_cache = fh.read(len(CACHE_MAGIC)) == CACHE_MAGIC
    if is_cache:
        if not args.ckpt:
            raise DataError("--ckpt is required when the pool is a window cache")
        windows = load_window_cache(pool_path).windows
        if not windows:
            raise DataError(f"{pool_path}: cache holds no windows")
        vectors = _embeddings_from(args.ckpt, windows)
    else:
        vectors = {k: v.vector for k, v in load_anchor_embeddings(pool_path).items()}
    pool = Pool(vectors)
    order, scores = pool.rank(query)
    _emit({
        "pool_size": len(pool.ids),
        "results": [{"window_id": pool.ids[j], "score": round(float(scores[j]), 6)}
                    for j in order[: args.top_k]],
    })
    return 0


def cmd_synth(args) -> int:
    samples = args.window_s * args.rate_hz
    if not math.isfinite(samples):
        raise DataError(f"--window-s {args.window_s} at --rate-hz {args.rate_hz} "
                        "gives no finite sample count")
    dataset = synth_dataset(args.seed, args.n, args.classes, args.dim, round(samples),
                            args.noise, args.rate_hz)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_paths = []
    for w in dataset.windows:
        ts = np.arange(w.n_samples) / args.rate_hz
        stream = ImuStream(w.source_id, args.rate_hz, ts, w.signal.T)
        path = out / f"{w.source_id}.csv"
        write_imu_stream(stream, path)
        csv_paths.append(str(path))
    write_anchor_embeddings(dataset.video_anchors, out / "anchors_video.jsonl")
    write_anchor_embeddings(dataset.text_anchors, out / "anchors_text.jsonl")
    write_labels(dataset.labels, dataset.class_names, out / "labels.jsonl")
    class_anchors = {
        name: AnchorEmbedding(name, "text", vec)
        for name, vec in synth_class_anchors(args.seed, args.classes, args.dim).items()
    }
    write_anchor_embeddings(class_anchors, out / "class_anchors.jsonl")
    _emit({
        "out_dir": str(out),
        "n_windows": args.n,
        "n_classes": args.classes,
        "dim": args.dim,
        "noise": args.noise,
        "window_s": args.window_s,
        "rate_hz": args.rate_hz,
        "files": {
            "imu_csv": len(csv_paths),
            "video_anchors": "anchors_video.jsonl",
            "text_anchors": "anchors_text.jsonl",
            "labels": "labels.jsonl",
            "class_anchors": "class_anchors.jsonl",
        },
    })
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imualign",
        description="Align a trainable IMU encoder with frozen video/text anchor embeddings.",
    )
    parser.add_argument("--version", action="version", version=f"imualign {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="window IMU CSVs into a binary cache")
    p.add_argument("--imu", action="append", required=True, help="IMU CSV path (repeatable)")
    p.add_argument("--window-s", type=float, required=True)
    p.add_argument("--stride-s", type=float, default=None)
    p.add_argument("--rate-hz", type=float, default=200.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="contrastive pre-training of the IMU encoder")
    p.add_argument("--cache", required=True)
    p.add_argument("--video-anchors", required=True)
    p.add_argument("--text-anchors", default=None)
    p.add_argument("--mode", choices=list(MODES), default=TrainConfig.mode)
    p.add_argument("--epochs", type=int, required=True)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--lr", dest="learning_rate", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--adagrad-eps", type=float, default=TrainConfig.adagrad_eps)
    p.add_argument("--decay", type=float, default=TrainConfig.decay)
    p.add_argument("--temperature", type=float, default=TrainConfig.temperature)
    p.add_argument("--coverage", type=float, default=1.0)
    p.add_argument("--conv-channels", type=int, nargs="+", default=list(EncoderConfig.conv_channels))
    p.add_argument("--conv-kernels", type=int, nargs="+", default=list(EncoderConfig.conv_kernels))
    p.add_argument("--conv-strides", type=int, nargs="+", default=list(EncoderConfig.conv_strides))
    p.add_argument("--gru-hidden", type=int, default=EncoderConfig.gru_hidden)
    p.add_argument("--embed-dim", type=int, default=EncoderConfig.embed_dim)
    p.add_argument("--run-dir", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval-retrieval", help="R@k / MRR over the full pool")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--anchors", required=True)
    p.add_argument("--direction", choices=RETRIEVAL_DIRECTIONS, required=True)
    p.set_defaults(func=cmd_eval_retrieval)

    p = sub.add_parser("eval-classify", help="zeroshot / probe / finetune activity recognition")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--protocol", choices=["zeroshot", "probe", "finetune"], required=True)
    p.add_argument("--class-anchors", default=None)
    p.add_argument("--epochs", type=int, default=ProbeConfig.epochs)
    p.add_argument("--lr", dest="learning_rate", type=float, default=ProbeConfig.learning_rate)
    p.add_argument("--seed", type=int, default=ProbeConfig.seed)
    p.add_argument("--batch-size", type=int, default=ProbeConfig.batch_size, help="0 = full batch")
    p.add_argument("--run-dir", default=None, help="where probe/finetune write trained weights")
    p.set_defaults(func=cmd_eval_classify)

    p = sub.add_parser("retrieve", help="rank a pool against one query vector")
    p.add_argument("--ckpt", default=None)
    p.add_argument("--pool", required=True,
                   help="window cache (encoded with --ckpt) or anchor JSONL used directly")
    p.add_argument("--query-anchor", required=True,
                   help="inline JSON anchor record or path to a JSONL file")
    p.add_argument("--top-k", type=int, default=10)
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("synth", help="generate a synthetic aligned corpus")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--window-s", type=float, default=1.0)
    p.add_argument("--rate-hz", type=float, default=200.0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "ingest" and args.stride_s is None:
        args.stride_s = args.window_s
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ImuAlignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
