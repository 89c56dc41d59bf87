"""Contrastive pre-training loop: batch construction, the optimization step
that probing and fine-tuning share (`gradients` then `adagrad_step`),
inverse-time learning-rate decay, run-directory output, checkpoints.

Anchors enter every batch as constants, so they never receive gradients;
only the encoder parameters are optimized.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from . import autodiff as ad
from .autodiff import Tape, Tensor
from .container import check_config, checked_arrays, header_config, header_field, read_container, write_container
from .contrastive import alignment_loss, similarity_matrix
from .encoder import (EncoderConfig, EncoderParams, encode_batch_on_tape, init_params, param_shapes,
                      pipeline_time_lengths)
from .errors import DataError, FormatError, NumericError
from .signalio import ParallelDataset

CKPT_MAGIC = b"IMUK"
CKPT_VERSION = 1

# a training mode is the tuple of anchor modalities the IMU embeddings align with
MODES = {"iv": ("video",), "it": ("text",), "ivt": ("video", "text")}


@dataclass
class TrainConfig:
    batch_size: int = 16
    learning_rate: float = 0.01
    adagrad_eps: float = 1e-8
    decay: float = 0.1
    epochs: int = 10
    seed: int = 0
    mode: str = "iv"
    temperature: float = 0.1

    def __post_init__(self):
        check_config(self, "train config")
        if self.batch_size < 2:
            raise DataError(f"batch_size must be >= 2 for in-batch negatives, got {self.batch_size}")
        if (min(self.epochs, self.seed, self.decay) < 0
                or min(self.learning_rate, self.adagrad_eps, self.temperature) <= 0):
            raise DataError(f"epochs, seed and decay must be >= 0, and learning_rate, adagrad_eps and "
                            f"temperature > 0; got {self}")
        if self.mode not in MODES:
            raise DataError(f"mode must be one of {tuple(MODES)}, got {self.mode!r}")


class AdagradState:
    """Per-parameter sums of squared gradients plus a step counter."""

    def __init__(self, accumulators: dict[str, np.ndarray] | None = None, step: int = 0):
        self.accumulators = accumulators or {}
        self.step = step

    def accumulator_for(self, name: str, shape) -> np.ndarray:
        if name not in self.accumulators:
            self.accumulators[name] = np.zeros(shape)
        return self.accumulators[name]


def make_batches(n_items: int, batch_size: int, seed: int, epoch: int) -> list[list[int]]:
    """Deterministic shuffle of `n_items` indices keyed by (seed, epoch); the trailing
    partial batch is dropped so every batch defines a full positive pairing.
    """
    if n_items < batch_size:
        raise DataError(f"dataset of {n_items} items is smaller than batch size {batch_size}")
    order = np.random.default_rng([seed, epoch]).permutation(n_items)
    n_full = n_items // batch_size
    return [order[i * batch_size : (i + 1) * batch_size].tolist() for i in range(n_full)]


def adagrad_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: AdagradState,
    lr: float,
    eps: float,
) -> None:
    """Per coordinate: acc += g^2; p -= lr * g / (sqrt(acc) + eps).

    A gradient that is not finite, or whose square overflows the sum, raises
    NumericError before its parameter moves; its accumulator is then spoiled.
    """
    for name, g in grads.items():
        p = params[name]
        if g.shape != p.data.shape:
            raise DataError(f"gradient shape {g.shape} != parameter shape {p.data.shape} for {name}")
        acc = state.accumulator_for(name, p.data.shape)
        with np.errstate(over="ignore"):  # refused just below, naming the parameter
            denom = g * g
            acc += denom
        if not acc.max(initial=0.0) < np.inf:  # one pass finds both a NaN and an inf
            fault = "non-finite gradient" if not np.all(np.isfinite(g)) else "overflowing squared gradient"
            raise NumericError(f"{fault} for parameter {name}")
        # in place, in the order (lr * g) / (sqrt(acc) + eps), which fixes the bits
        np.sqrt(acc, out=denom)
        denom += eps
        step = lr * g
        step /= denom
        p.data -= step
    state.step += 1


def gradients(tape: Tape, loss: Tensor, params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """d(loss)/d(param) for each named tensor; refuses a non-finite loss."""
    if not np.isfinite(loss.data):
        raise NumericError(f"non-finite loss: {loss.data}")
    return dict(zip(params, ad.backward(tape, loss, list(params.values()))))


def lr_at(epoch: int, base_lr: float, decay: float) -> float:
    """Inverse-time decay: base_lr / (1 + decay * epoch)."""
    return base_lr / (1.0 + decay * epoch)


def _batch_loss(
    tape: Tape,
    dataset: ParallelDataset,
    batch: list[int],
    params: EncoderParams,
    encoder_config: EncoderConfig,
    config: TrainConfig,
) -> tuple[dict[str, float], Tensor]:
    windows = dataset.windows
    ids = [windows.ids[i] for i in batch]
    with np.errstate(over="ignore", invalid="ignore"):  # `gradients` refuses a non-finite loss
        emb = encode_batch_on_tape(tape, windows.signals[batch], params, encoder_config)
        sims = {m: similarity_matrix(tape, emb, Tensor(dataset.anchor_matrix(ids, m)))
                for m in MODES[config.mode]}
        return alignment_loss(tape, sims, config.temperature)


def train_epoch(
    dataset: ParallelDataset,
    params: EncoderParams,
    opt_state: AdagradState,
    config: TrainConfig,
    encoder_config: EncoderConfig,
    epoch: int,
) -> dict[str, float]:
    """One pass over the shuffled dataset; returns the mean of each per-batch
    loss, keyed as `alignment_loss` reports them.
    """
    lr = lr_at(epoch, config.learning_rate, config.decay)
    batches = make_batches(len(dataset), config.batch_size, config.seed, epoch)
    sums: dict[str, float] = {}
    named = params.named()
    for batch in batches:
        tape = Tape()
        report, loss = _batch_loss(tape, dataset, batch, params, encoder_config, config)
        adagrad_step(named, gradients(tape, loss, named), opt_state, lr, config.adagrad_eps)
        for k, v in report.items():
            sums[k] = sums.get(k, 0.0) + v
    params.assert_finite()
    return {k: v / len(batches) for k, v in sums.items()}


def fit(
    dataset: ParallelDataset,
    encoder_config: EncoderConfig,
    config: TrainConfig,
    run_dir=None,
    params: EncoderParams | None = None,
    manifest: dict | None = None,
) -> tuple[EncoderParams, AdagradState, list[dict]]:
    """Run the training loop, optionally writing a run directory with
    config.json, metrics.jsonl, a manifest, and a final checkpoint.
    """
    # refuse what the first batch would refuse before anything is written
    make_batches(len(dataset), config.batch_size, config.seed, 0)
    pipeline_time_lengths(encoder_config, dataset.windows.n_samples)
    for modality in MODES[config.mode]:
        table = dataset.anchors(modality)
        if missing := [wid for wid in dataset.windows.ids if wid not in table]:
            raise DataError(f"window {missing[0]!r} has no {modality} anchor")
        widths = {a.vector.shape for a in table.values()}
        if widths != {(encoder_config.embed_dim,)}:
            raise DataError(f"{modality} anchors of shape {sorted(widths)} do not match embed_dim "
                            f"{encoder_config.embed_dim}")
    if params is None:
        params = init_params(encoder_config, config.seed)
    opt_state = AdagradState()

    run_path = None
    metrics = nullcontext()
    if run_dir is not None:
        run_path = Path(run_dir)
        run_path.mkdir(parents=True, exist_ok=True)
        (run_path / "config.json").write_text(
            json.dumps({"train": asdict(config), "encoder": asdict(encoder_config)},
                       indent=2, sort_keys=True) + "\n"
        )
        metrics = open(run_path / "metrics.jsonl", "w", encoding="utf-8")

    history = []
    with metrics as metrics_fh:
        for epoch in range(config.epochs):
            losses = train_epoch(dataset, params, opt_state, config, encoder_config, epoch)
            record = {"epoch": epoch, "lr": lr_at(epoch, config.learning_rate, config.decay),
                      **{k: v for k, v in losses.items() if not k.startswith("l_sym_")}}
            history.append(record)
            if metrics_fh is not None:
                metrics_fh.write(json.dumps(record, sort_keys=True) + "\n")
                metrics_fh.flush()

    if run_path is not None:
        save_checkpoint(run_path / f"ckpt-{config.epochs}.bin",
                        params, opt_state, encoder_config, config, step=config.epochs)
        if manifest is None:
            manifest = {"command": "imualign.train.fit"}
        write_manifest(run_path, manifest)
    return params, opt_state, history


def write_manifest(run_dir, manifest: dict) -> None:
    manifest = dict(manifest)
    manifest.setdefault("tool_version", __version__)
    manifest.setdefault("finished_at", time.strftime("%Y-%m-%dT%H:%M:%S%z"))
    (Path(run_dir) / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# checkpoints


@dataclass
class Checkpoint:
    params: EncoderParams
    opt_state: AdagradState | None
    encoder_config: EncoderConfig
    train_config: TrainConfig | None
    step: int


def _checkpoint(path, header: dict, arrays: dict[str, np.ndarray], error) -> tuple:
    """The encoder config, train config and optimizer record of a checkpoint's `header`, refused
    (`error` naming `path`) unless they and `arrays` are what `load_checkpoint` takes."""
    encoder_config = header_config(path, header, "encoder_config", EncoderConfig, error)
    train_config = (None if header.get("train_config") is None
                    else header_config(path, header, "train_config", TrainConfig, error))
    shapes = param_shapes(encoder_config)
    if header_field(path, header, "param_names", list[str], error) != list(shapes):
        raise error(f"{path}: parameter names do not match the encoder config")
    expected = {f"param.{name}": shape for name, shape in shapes.items()}
    opt = header.get("opt")
    if opt is not None:
        opt = header_field(path, header, "opt", dict, error)
        header_field(f"{path}: opt", opt, "step", int, error)
        if not set(header_field(f"{path}: opt", opt, "names", list[str], error)) <= shapes.keys():
            raise error(f"{path}: optimizer state names parameters the encoder does not have")
        expected.update({f"acc.{name}": shapes[name] for name in opt["names"]})
    checked_arrays(path, arrays, expected, error)
    header_field(path, header, "step", int, error)
    return encoder_config, train_config, opt


def save_checkpoint(
    path,
    params: EncoderParams,
    opt_state: AdagradState | None,
    encoder_config: EncoderConfig,
    train_config: TrainConfig | None,
    step: int,
) -> None:
    """Write a versioned binary checkpoint; round-trips bit-exactly. Refuses first (DataError),
    before the file is opened, what `load_checkpoint` would refuse."""
    named = params.named()
    header = {
        "kind": "checkpoint",
        "step": step,
        "encoder_config": asdict(encoder_config),
        "train_config": None if train_config is None else asdict(train_config),
        "param_names": list(named.keys()),
        "opt": None if opt_state is None else {
            "step": opt_state.step,
            "names": sorted(opt_state.accumulators.keys()),
        },
    }
    arrays = {f"param.{name}": t.data for name, t in named.items()}
    if opt_state is not None:
        arrays |= {f"acc.{name}": opt_state.accumulators[name] for name in header["opt"]["names"]}
    _checkpoint(path, header, arrays, DataError)
    write_container(path, CKPT_MAGIC, CKPT_VERSION, header, list(arrays.items()))


def load_checkpoint(path) -> Checkpoint:
    """Refuses what `save_checkpoint` would not write; allocates nothing from header sizes."""
    header, arrays = read_container(path, CKPT_MAGIC, CKPT_VERSION)
    encoder_config, train_config, opt = _checkpoint(path, header, arrays, FormatError)
    params = EncoderParams({n: Tensor(arrays[f"param.{n}"], requires_grad=True) for n in header["param_names"]})
    opt_state = None if opt is None else AdagradState(
        {name: arrays[f"acc.{name}"] for name in opt["names"]}, step=opt["step"])
    return Checkpoint(params, opt_state, encoder_config, train_config, header["step"])
