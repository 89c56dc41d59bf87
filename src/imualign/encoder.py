"""Trainable IMU encoder.

Pipeline: GroupNorm over the accelerometer and gyroscope channel groups,
a stack of strided 1-D convolutions with ReLU, max pooling, a second
GroupNorm over all feature channels, a unidirectional GRU whose final
hidden state summarizes the window, and a linear projection followed by
L2 normalization onto the unit sphere.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .errors import DataError, NumericError, ShapeMismatchError
from .signalio import ImuWindow, WindowSet


_GROUPNORM_EPS = 1e-8  # both GroupNorms' variance floor


@dataclass
class EncoderConfig:
    conv_channels: tuple[int, ...] = (32, 64, 128)
    conv_kernels: tuple[int, ...] = (10, 5, 5)
    conv_strides: tuple[int, ...] = (2, 2, 2)
    pool_kernel: int = 5
    pool_stride: int = 5
    gru_hidden: int = 128
    embed_dim: int = 512

    def __post_init__(self):
        n = len(self.conv_channels)
        if n < 1:
            raise DataError("encoder config: conv_channels must name at least one layer")
        for name in ("conv_channels", "conv_kernels", "conv_strides"):
            seq = tuple(int(v) for v in getattr(self, name))
            setattr(self, name, seq)
            if len(seq) != n:
                raise DataError(f"encoder config: {name} has {len(seq)} entries for {n} layers")
            if any(v < 1 for v in seq):
                raise DataError(f"encoder config: {name} entries must be positive, got {seq}")
        if min(self.pool_kernel, self.pool_stride, self.gru_hidden, self.embed_dim) < 1:
            raise DataError("encoder config: pool/gru/embed sizes must be positive")


def conv_out_len(time: int, kernel: int, stride: int) -> int:
    return (time - kernel) // stride + 1


def pipeline_time_lengths(config: EncoderConfig, n_samples: int) -> list[int]:
    """Time length after each conv layer and after pooling; raises a
    structured error naming the first layer where time collapses.
    """
    t = n_samples
    lengths = []
    for i, (k, s) in enumerate(zip(config.conv_kernels, config.conv_strides)):
        if t < k:
            raise ShapeMismatchError(
                f"encoder: time length {t} shorter than kernel {k} at conv layer {i}"
            )
        t = conv_out_len(t, k, s)
        lengths.append(t)
    if t < config.pool_kernel:
        raise ShapeMismatchError(
            f"encoder: time length {t} shorter than pooling kernel {config.pool_kernel}"
        )
    t = conv_out_len(t, config.pool_kernel, config.pool_stride)
    lengths.append(t)
    return lengths


def param_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in the order `EncoderParams` holds them."""
    c, h, d = (6, *config.conv_channels), config.gru_hidden, config.embed_dim
    shapes = {"input_gn.gamma": (6,), "input_gn.beta": (6,)}
    for i, k in enumerate(config.conv_kernels):
        shapes.update({f"conv{i}.w": (c[i + 1], c[i], k), f"conv{i}.b": (c[i + 1],)})
    return shapes | {
        "post_gn.gamma": (c[-1],), "post_gn.beta": (c[-1],),
        "gru.w_ih": (3 * h, c[-1]), "gru.w_hh": (3 * h, h), "gru.b_ih": (3 * h,), "gru.b_hh": (3 * h,),
        "proj.w": (d, h), "proj.b": (d,),
    }


class EncoderParams:
    """Every trainable weight of the encoder, as autodiff tensors by name in
    `param_shapes` order."""

    def __init__(self, named: dict[str, Tensor]):
        self._named = named

    def __getitem__(self, name: str) -> Tensor:
        return self._named[name]

    @property
    def conv_weights(self) -> list[Tensor]:
        """The convolution weights, first layer first."""
        return [t for name, t in self._named.items()
                if name.startswith("conv") and name.endswith(".w")]

    def named(self) -> dict[str, Tensor]:
        return dict(self._named)

    def checksum(self) -> str:
        digest = hashlib.sha256()
        for name, t in self._named.items():
            digest.update(name.encode())
            digest.update(t.data.tobytes())
        return digest.hexdigest()

    def copy(self) -> "EncoderParams":
        return EncoderParams({name: Tensor(t.data.copy(), requires_grad=t.requires_grad)
                              for name, t in self._named.items()})

    def assert_finite(self) -> None:
        for name, t in self._named.items():
            if not np.all(np.isfinite(t.data)):
                raise NumericError(f"parameter {name} contains non-finite values")


def init_params(config: EncoderConfig, seed: int) -> EncoderParams:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases,
    identity GroupNorm affine; deterministic for a given seed.
    """
    rng = np.random.default_rng(seed)

    def init(name, shape):
        if len(shape) == 1:  # GroupNorm gains start at 1, shifts and biases at 0
            return np.full(shape, 1.0 if name.endswith(".gamma") else 0.0)
        bound = 1.0 / math.sqrt(math.prod(shape[1:]))  # fan_in: every axis but the output one
        return rng.uniform(-bound, bound, size=shape)

    try:
        return EncoderParams({name: Tensor(init(name, shape), requires_grad=True)
                              for name, shape in param_shapes(config).items()})
    except (MemoryError, ValueError, OverflowError) as exc:  # sizes too large for numpy
        raise DataError(f"encoder config: parameters do not fit in memory: {exc}") from exc


_CHUNK = 64  # windows per encode_batch tape: bounds the memory one call holds


def encode_batch_on_tape(
    tape: Tape, signals, params: EncoderParams, config: EncoderConfig
) -> Tensor:
    """Run the full pipeline on a (B, 6, T) array, or B equal (6, T)
    signals; returns the (B, D) unit-norm embeddings as a tensor on the tape.
    """
    try:
        x = np.ascontiguousarray(signals, dtype=np.float64)  # no copy of a slice of a window set
    except ValueError:  # signals of unequal shapes
        x = None
    if x is None or x.ndim != 3 or x.shape[1] != 6 or not len(x):
        shapes = sorted({np.shape(s) for s in signals})
        raise ShapeMismatchError(f"encode: expected equal (6, T) signals, got shapes {shapes}")
    pipeline_time_lengths(config, x.shape[2])  # fail early, naming the layer
    x = ad.group_norm(
        tape, Tensor(x), 2, params["input_gn.gamma"], params["input_gn.beta"], _GROUPNORM_EPS
    )
    for i, stride in enumerate(config.conv_strides):
        x = ad.conv1d(tape, x, params[f"conv{i}.w"], params[f"conv{i}.b"], stride)
        x = ad.relu(tape, x)
    x = ad.max_pool1d(tape, x, config.pool_kernel, config.pool_stride)
    x = ad.group_norm(tape, x, 1, params["post_gn.gamma"], params["post_gn.beta"], _GROUPNORM_EPS)
    x = ad.gru_forward(tape, x, params["gru.w_ih"], params["gru.w_hh"], params["gru.b_ih"], params["gru.b_hh"])
    emb = ad.linear(tape, x, params["proj.w"], params["proj.b"])
    return ad.l2_normalize(tape, emb)


def encode_batch(
    windows: WindowSet, params: EncoderParams, config: EncoderConfig
) -> np.ndarray:
    """Row i embeds windows[i]. Each row is the same, bit for bit, in any
    batch (see `autodiff`). Refuses a window whose embedding is not finite.
    """
    if not windows:
        raise DataError("encode_batch: empty batch")
    out = np.empty((len(windows), config.embed_dim))
    for start in range(0, len(windows), _CHUNK):
        chunk = windows.signals[start : start + _CHUNK]
        out[start : start + len(chunk)] = encode_batch_on_tape(Tape(), chunk, params, config).data
    bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
    if bad.size:
        raise NumericError(f"encode_batch: window {windows.ids[bad[0]]!r} embeds to non-finite values")
    return out


def encode(window: ImuWindow, params: EncoderParams, config: EncoderConfig) -> np.ndarray:
    """Embed one window; pure function of (window, params, config)."""
    return encode_batch(WindowSet.of([window]), params, config)[0]
