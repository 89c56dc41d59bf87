"""Trainable IMU encoder.

Pipeline: GroupNorm over the accelerometer and gyroscope channel groups,
a stack of strided 1-D convolutions with ReLU, max pooling, a second
GroupNorm over all feature channels, a unidirectional GRU whose final
hidden state summarizes the window, and a linear projection followed by
L2 normalization onto the unit sphere.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .errors import DataError, NumericError, ShapeMismatchError
from .signalio import ImuWindow


@dataclass
class EncoderConfig:
    n_conv_layers: int = 3
    conv_channels: tuple[int, ...] = (32, 64, 128)
    conv_kernels: tuple[int, ...] = (10, 5, 5)
    conv_strides: tuple[int, ...] = (2, 2, 2)
    pool_kernel: int = 5
    pool_stride: int = 5
    gru_hidden: int = 128
    embed_dim: int = 512
    groupnorm_eps: float = 1e-8

    def __post_init__(self):
        self.conv_channels = tuple(int(c) for c in self.conv_channels)
        self.conv_kernels = tuple(int(k) for k in self.conv_kernels)
        self.conv_strides = tuple(int(s) for s in self.conv_strides)
        n = self.n_conv_layers
        if n < 1:
            raise DataError(f"encoder config: n_conv_layers must be >= 1, got {n}")
        for name, seq in (
            ("conv_channels", self.conv_channels),
            ("conv_kernels", self.conv_kernels),
            ("conv_strides", self.conv_strides),
        ):
            if len(seq) != n:
                raise DataError(f"encoder config: {name} has {len(seq)} entries for {n} layers")
            if any(v < 1 for v in seq):
                raise DataError(f"encoder config: {name} entries must be positive, got {seq}")
        if min(self.pool_kernel, self.pool_stride, self.gru_hidden, self.embed_dim) < 1:
            raise DataError("encoder config: pool/gru/embed sizes must be positive")
        if self.groupnorm_eps <= 0:
            raise DataError(f"encoder config: groupnorm_eps must be > 0, got {self.groupnorm_eps}")

    def to_dict(self) -> dict:
        return {
            "n_conv_layers": self.n_conv_layers,
            "conv_channels": list(self.conv_channels),
            "conv_kernels": list(self.conv_kernels),
            "conv_strides": list(self.conv_strides),
            "pool_kernel": self.pool_kernel,
            "pool_stride": self.pool_stride,
            "gru_hidden": self.gru_hidden,
            "embed_dim": self.embed_dim,
            "groupnorm_eps": self.groupnorm_eps,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EncoderConfig":
        return cls(**d)


def conv_out_len(time: int, kernel: int, stride: int) -> int:
    return (time - kernel) // stride + 1


def pipeline_time_lengths(config: EncoderConfig, n_samples: int) -> list[int]:
    """Time length after each conv layer and after pooling; raises a
    structured error naming the first layer where time collapses.
    """
    t = n_samples
    lengths = []
    for i in range(config.n_conv_layers):
        k, s = config.conv_kernels[i], config.conv_strides[i]
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


@dataclass
class EncoderParams:
    """Every trainable weight of the encoder, as autodiff tensors."""

    input_gn_gamma: Tensor
    input_gn_beta: Tensor
    conv_weights: list[Tensor]
    conv_biases: list[Tensor]
    post_gn_gamma: Tensor
    post_gn_beta: Tensor
    gru_w_ih: Tensor
    gru_w_hh: Tensor
    gru_b_ih: Tensor
    gru_b_hh: Tensor
    proj_w: Tensor
    proj_b: Tensor

    def named(self) -> dict[str, Tensor]:
        out = {"input_gn.gamma": self.input_gn_gamma, "input_gn.beta": self.input_gn_beta}
        for i, (w, b) in enumerate(zip(self.conv_weights, self.conv_biases)):
            out[f"conv{i}.w"] = w
            out[f"conv{i}.b"] = b
        out.update({
            "post_gn.gamma": self.post_gn_gamma, "post_gn.beta": self.post_gn_beta,
            "gru.w_ih": self.gru_w_ih, "gru.w_hh": self.gru_w_hh,
            "gru.b_ih": self.gru_b_ih, "gru.b_hh": self.gru_b_hh,
            "proj.w": self.proj_w, "proj.b": self.proj_b,
        })
        return out

    def param_count(self) -> int:
        return sum(t.data.size for t in self.named().values())

    def checksum(self) -> str:
        digest = hashlib.sha256()
        for name, t in self.named().items():
            digest.update(name.encode())
            digest.update(t.data.tobytes())
        return digest.hexdigest()

    def copy(self) -> "EncoderParams":
        def dup(t: Tensor) -> Tensor:
            return Tensor(t.data.copy(), requires_grad=t.requires_grad)

        return EncoderParams(**{k: [dup(t) for t in v] if isinstance(v, list) else dup(v)
                                for k, v in vars(self).items()})

    def assert_finite(self) -> None:
        for name, t in self.named().items():
            if not np.all(np.isfinite(t.data)):
                raise NumericError(f"parameter {name} contains non-finite values")


def init_params(config: EncoderConfig, seed: int) -> EncoderParams:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases,
    identity GroupNorm affine; deterministic for a given seed.
    """
    rng = np.random.default_rng(seed)

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)

    def zeros(shape):
        return Tensor(np.zeros(shape), requires_grad=True)

    def ones(shape):
        return Tensor(np.ones(shape), requires_grad=True)

    conv_w, conv_b = [], []
    c_in = 6
    for i in range(config.n_conv_layers):
        c_out, k = config.conv_channels[i], config.conv_kernels[i]
        conv_w.append(uniform((c_out, c_in, k), c_in * k))
        conv_b.append(zeros((c_out,)))
        c_in = c_out
    h = config.gru_hidden
    return EncoderParams(
        input_gn_gamma=ones((6,)),
        input_gn_beta=zeros((6,)),
        conv_weights=conv_w,
        conv_biases=conv_b,
        post_gn_gamma=ones((c_in,)),
        post_gn_beta=zeros((c_in,)),
        gru_w_ih=uniform((3 * h, c_in), c_in),
        gru_w_hh=uniform((3 * h, h), h),
        gru_b_ih=zeros((3 * h,)),
        gru_b_hh=zeros((3 * h,)),
        proj_w=uniform((config.embed_dim, h), h),
        proj_b=zeros((config.embed_dim,)),
    )


_CHUNK = 64  # windows per encode_batch tape: bounds the memory one call holds


def encode_batch_on_tape(
    tape: Tape, signals: list[np.ndarray], params: EncoderParams, config: EncoderConfig
) -> Tensor:
    """Run the full pipeline on equal-length (6, T) signals; returns the
    (B, D) unit-norm embeddings as a tensor on the tape.
    """
    shapes = sorted({np.shape(s) for s in signals})
    if len(shapes) != 1 or len(shapes[0]) != 2 or shapes[0][0] != 6:
        raise ShapeMismatchError(f"encode: expected equal (6, T) signals, got shapes {shapes}")
    x = np.stack(signals).astype(np.float64, copy=False)
    pipeline_time_lengths(config, x.shape[2])  # fail early, naming the layer
    x = ad.group_norm(
        tape, Tensor(x), 2, params.input_gn_gamma, params.input_gn_beta, config.groupnorm_eps
    )
    for i in range(config.n_conv_layers):
        x = ad.conv1d(tape, x, params.conv_weights[i], params.conv_biases[i], config.conv_strides[i])
        x = ad.relu(tape, x)
    x = ad.max_pool1d(tape, x, config.pool_kernel, config.pool_stride)
    x = ad.group_norm(tape, x, 1, params.post_gn_gamma, params.post_gn_beta, config.groupnorm_eps)
    seq = ad.swap_last_axes(tape, x)
    h0 = Tensor(np.zeros((len(signals), config.gru_hidden)))
    hs = ad.gru_forward(
        tape, seq, params.gru_w_ih, params.gru_w_hh, params.gru_b_ih, params.gru_b_hh, h0
    )
    emb = ad.linear(tape, ad.last_step(tape, hs), params.proj_w, params.proj_b)
    return ad.l2_normalize(tape, emb)


def encode_batch(
    windows: list[ImuWindow], params: EncoderParams, config: EncoderConfig
) -> np.ndarray:
    """Row i embeds windows[i]; windows must share one length. Each row is
    the same, bit for bit, in any batch (see `autodiff`).
    """
    if not windows:
        raise DataError("encode_batch: empty batch")
    lens = {w.n_samples for w in windows}
    if len(lens) > 1:
        raise ShapeMismatchError(f"encode_batch: mixed window lengths {sorted(lens)}")
    out = np.empty((len(windows), config.embed_dim))
    for start in range(0, len(windows), _CHUNK):
        chunk = [w.signal for w in windows[start : start + _CHUNK]]
        out[start : start + len(chunk)] = encode_batch_on_tape(Tape(), chunk, params, config).data
    return out


def encode(window: ImuWindow, params: EncoderParams, config: EncoderConfig) -> np.ndarray:
    """Embed one window; pure function of (window, params, config)."""
    return encode_batch([window], params, config)[0]
