"""Dense float64 kernels with tape-based reverse-mode differentiation.

The op set is intentionally small: exactly the layers the IMU encoder and
its losses need (1-D convolution, group normalization, max pooling, a GRU,
affine maps, L2 normalization) plus a handful of elementwise/reduction
helpers used to compose losses. There is no broadcasting engine; every op
takes exact shapes and raises ShapeMismatchError otherwise.

Shape contract: the encoder layers take a leading batch axis B, one entry
per window. `group_norm`, `conv1d`, `relu` and `max_pool1d` work on (B, C, T)
signals, `gru_forward` on (B, T, F) sequences with (B, H) initial states, and
`linear` and `l2_normalize` on (B, F) rows; `swap_last_axes` and `last_step`
connect them. The products whose rows are windows run as one fixed-shape
BLAS call per window (a stacked `np.matmul`), so a window's result has the
same bits in a batch of any size: BLAS picks its kernel, and with it the
summation order, by the operand shapes. Backward products sum over the batch.

Forward calls record entries on a Tape. `backward` replays the tape in
reverse, accumulating adjoints, and adds them into each tensor's `grad`
buffer, so calling it twice on the same tape doubles every gradient.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import GraphError, NumericError, ShapeMismatchError

Array = np.ndarray


class Tensor:
    """A float64 array plus an optional same-shape gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeMismatchError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _Entry:
    __slots__ = ("output", "inputs", "vjp")

    def __init__(self, output: Tensor, inputs: tuple[Tensor, ...], vjp: Callable):
        self.output = output
        self.inputs = inputs
        self.vjp = vjp


class Tape:
    """Ordered record of primitive operations.

    Entries are appended in execution order, which is a topological order by
    construction: an op's inputs always exist before its output.
    """

    def __init__(self):
        self._entries: list[_Entry] = []
        self._output_ids: set[int] = set()

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, output: Tensor, inputs: Sequence[Tensor], vjp: Callable) -> None:
        """Register `output = op(inputs)` with `vjp(g) -> per-input adjoints`.

        Recording is skipped when no input requires gradients; the output
        then stays a constant for everything downstream.
        """
        inputs = tuple(inputs)
        if any(t.requires_grad for t in inputs):
            output.requires_grad = True
            self._entries.append(_Entry(output, inputs, vjp))
            self._output_ids.add(id(output))

    def produced(self, t: Tensor) -> bool:
        return id(t) in self._output_ids


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(tensor) into `.grad` of every tensor on the tape.

    Repeated calls without clearing grads accumulate additively.
    """
    if loss.data.size != 1:
        raise ShapeMismatchError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not tape.produced(loss):
        raise GraphError("loss is not the output of any operation recorded on this tape")
    adjoint: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
    tensors: dict[int, Tensor] = {id(loss): loss}
    for entry in reversed(tape._entries):
        g = adjoint.get(id(entry.output))
        if g is None:
            continue
        contribs = entry.vjp(g)
        for t, c in zip(entry.inputs, contribs):
            if c is None or not t.requires_grad:
                continue
            key = id(t)
            tensors[key] = t
            if key in adjoint:
                adjoint[key] = adjoint[key] + c
            else:
                adjoint[key] = np.asarray(c, dtype=np.float64)
    for key, t in tensors.items():
        g = adjoint[key]
        if g.shape != t.data.shape:
            g = g.reshape(t.data.shape)
        t.grad = g.copy() if t.grad is None else t.grad + g


# ---------------------------------------------------------------------------
# elementwise and reduction ops


def add(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"add: shapes {a.shape} and {b.shape} differ")
    out = Tensor(a.data + b.data)
    tape.record(out, (a, b), lambda g: (g, g))
    return out


def mul(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"mul: shapes {a.shape} and {b.shape} differ")
    out = Tensor(a.data * b.data)
    tape.record(out, (a, b), lambda g: (g * b.data, g * a.data))
    return out


def scale(tape: Tape, x: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(x.data * c)
    tape.record(out, (x,), lambda g: (g * c,))
    return out


def sum_all(tape: Tape, x: Tensor) -> Tensor:
    out = Tensor(np.sum(x.data))
    tape.record(out, (x,), lambda g: (np.full_like(x.data, float(g)),))
    return out


def tanh(tape: Tape, x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    out = Tensor(y)
    tape.record(out, (x,), lambda g: (g * (1.0 - y * y),))
    return out


def relu(tape: Tape, x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0))
    tape.record(out, (x,), lambda g: (g * (out.data > 0.0),))
    return out


# ---------------------------------------------------------------------------
# shape plumbing


def swap_last_axes(tape: Tape, x: Tensor) -> Tensor:
    """(B, C, T) -> (B, T, C): channel-first features to time-major sequences."""
    if x.data.ndim != 3:
        raise ShapeMismatchError(f"swap_last_axes: expected (B,C,T) input, got {x.shape}")
    out = Tensor(np.ascontiguousarray(x.data.transpose(0, 2, 1)))
    tape.record(out, (x,), lambda g: (g.transpose(0, 2, 1),))
    return out


def last_step(tape: Tape, x: Tensor) -> Tensor:
    """(B, T, H) -> (B, H): the final time step of every sequence."""
    if x.data.ndim != 3:
        raise ShapeMismatchError(f"last_step: expected (B,T,H) input, got {x.shape}")
    out = Tensor(x.data[:, -1].copy())

    def vjp(g):
        dx = np.zeros_like(x.data)
        dx[:, -1] = g
        return (dx,)

    tape.record(out, (x,), vjp)
    return out


def _per_row(a: Array, b: Array) -> Array:
    """a @ b as one (1, K) @ (K, N) product per row of a, so that a row's
    result has the same bits whatever the number of rows: BLAS picks its
    kernel, and with it the summation order, by the operand shapes.
    """
    return np.matmul(a[:, None, :], b)[:, 0]


# ---------------------------------------------------------------------------
# affine maps


def linear(tape: Tape, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w.T + b for a batch of feature rows x: (B, F), w: (O, F), b: (O,)."""
    if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise ShapeMismatchError(
            f"linear: expected x (B,F), w (O,F), b (O,), got {x.shape}, {w.shape}, {b.shape}"
        )
    if w.shape[1] != x.shape[1] or w.shape[0] != b.shape[0]:
        raise ShapeMismatchError(
            f"linear: w {w.shape} incompatible with x {x.shape} and b {b.shape}"
        )
    out = Tensor(_per_row(x.data, w.data.T) + b.data)
    tape.record(out, (x, w, b), lambda g: (g @ w.data, g.T @ x.data, g.sum(axis=0)))
    return out


def matmul_nt(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    """a @ b.T; the natural primitive for row-vs-row inner products."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeMismatchError(f"matmul_nt: expected matrices, got {a.shape}, {b.shape}")
    if a.shape[1] != b.shape[1]:
        raise ShapeMismatchError(
            f"matmul_nt: inner dimensions differ: {a.shape} vs {b.shape}"
        )
    out = Tensor(a.data @ b.data.T)
    tape.record(out, (a, b), lambda g: (g @ b.data, g.T @ a.data))
    return out


def add_rowvec(tape: Tape, x: Tensor, v: Tensor) -> Tensor:
    """Add a vector to every row of a matrix."""
    if x.data.ndim != 2 or v.data.ndim != 1 or x.shape[1] != v.shape[0]:
        raise ShapeMismatchError(f"add_rowvec: shapes {x.shape} and {v.shape} incompatible")
    out = Tensor(x.data + v.data)
    tape.record(out, (x, v), lambda g: (g, g.sum(axis=0)))
    return out


# ---------------------------------------------------------------------------
# encoder layers


def _im2col(x: Array, kernel: int, stride: int) -> Array:
    """(B, C, T) -> (B, C * kernel, t_out); column t of window b holds the
    receptive field of output t, channel-major like a flattened weight row.
    """
    windows = np.lib.stride_tricks.sliding_window_view(x, kernel, axis=2)[:, :, ::stride]
    batch, channels, t_out, _ = windows.shape
    return windows.transpose(0, 1, 3, 2).reshape(batch, channels * kernel, t_out)


def conv1d(tape: Tape, x: Tensor, w: Tensor, b: Tensor, stride: int = 1) -> Tensor:
    """Valid (no padding) cross-correlation over the time axis, lowered to
    im2col plus one matrix product per window.

    x: (batch, channels_in, time), w: (channels_out, channels_in, kernel),
    b: (channels_out,). The output is (batch, channels_out, t_out) with
    t_out = floor((time - kernel) / stride) + 1.
    """
    if x.data.ndim != 3 or w.data.ndim != 3 or b.data.ndim != 1:
        raise ShapeMismatchError(
            f"conv1d: expected x (B,C,T), w (O,C,K), b (O,), got {x.shape}, {w.shape}, {b.shape}"
        )
    c_out, c_in, kernel = w.shape
    if x.shape[1] != c_in:
        raise ShapeMismatchError(
            f"conv1d: input has {x.shape[1]} channels but weights expect {c_in}"
        )
    if b.shape[0] != c_out:
        raise ShapeMismatchError(f"conv1d: bias {b.shape} does not match {c_out} filters")
    if stride < 1:
        raise ShapeMismatchError(f"conv1d: stride must be >= 1, got {stride}")
    time = x.shape[2]
    if time < kernel:
        raise ShapeMismatchError(f"conv1d: time {time} shorter than kernel {kernel}")
    t_out = (time - kernel) // stride + 1
    w2 = w.data.reshape(c_out, c_in * kernel)
    # a product per window: the stacked matmul runs one fixed-shape BLAS
    # call per window, so a window's output does not depend on the batch
    out = np.matmul(w2, _im2col(x.data, kernel, stride))
    out += b.data[:, None]

    def vjp(g):
        cols = _im2col(x.data, kernel, stride)  # rebuilt rather than kept alive on the tape
        dw = np.tensordot(g, cols, axes=([0, 2], [0, 2])).reshape(w.shape)
        db = g.sum(axis=(0, 2))
        dcols = np.matmul(w2.T, g).reshape(x.shape[0], c_in, kernel, t_out)
        dx = np.zeros_like(x.data)
        span = stride * (t_out - 1) + 1
        for k in range(kernel):
            # positions k, k+stride, ... receive the k-th tap of every filter
            dx[:, :, k : k + span : stride] += dcols[:, :, k]
        return (dx, dw, db)

    out = Tensor(out)
    tape.record(out, (x, w, b), vjp)
    return out


def group_norm(
    tape: Tape, x: Tensor, num_groups: int, gamma: Tensor, beta: Tensor, eps: float
) -> Tensor:
    """Normalize each window over (channel, time) within each channel group,
    then apply the per-channel affine gamma * xhat + beta. x: (B, C, T).

    Group statistics use the biased variance over all entries of the group.
    """
    if x.data.ndim != 3:
        raise ShapeMismatchError(f"group_norm: expected (B,C,T) input, got {x.shape}")
    batch, channels, time = x.shape
    if num_groups < 1 or channels % num_groups != 0:
        raise ShapeMismatchError(
            f"group_norm: {channels} channels not divisible into {num_groups} groups"
        )
    if gamma.shape != (channels,) or beta.shape != (channels,):
        raise ShapeMismatchError(
            f"group_norm: gamma {gamma.shape} / beta {beta.shape} must be ({channels},)"
        )
    if eps <= 0:
        raise ShapeMismatchError(f"group_norm: eps must be > 0, got {eps}")
    grouped = x.data.reshape(batch, num_groups, -1)
    mean = grouped.mean(axis=2, keepdims=True)
    var = grouped.var(axis=2, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xh = (grouped - mean) * inv
    xhat = xh.reshape(x.shape)
    out = Tensor(gamma.data[:, None] * xhat + beta.data[:, None])

    def vjp(g):
        dgamma = (g * xhat).sum(axis=(0, 2))
        dbeta = g.sum(axis=(0, 2))
        dxhat = (g * gamma.data[:, None]).reshape(grouped.shape)
        m1 = dxhat.mean(axis=2, keepdims=True)
        m2 = (dxhat * xh).mean(axis=2, keepdims=True)
        dx = (inv * (dxhat - m1 - xh * m2)).reshape(x.shape)
        return (dx, dgamma, dbeta)

    tape.record(out, (x, gamma, beta), vjp)
    return out


def max_pool1d(tape: Tape, x: Tensor, kernel: int, stride: int) -> Tensor:
    """Per-channel max over sliding time windows of x: (B, C, T); gradient
    routes to the first maximal position of each window.
    """
    if x.data.ndim != 3:
        raise ShapeMismatchError(f"max_pool1d: expected (B,C,T) input, got {x.shape}")
    if kernel < 1 or stride < 1:
        raise ShapeMismatchError(f"max_pool1d: kernel/stride must be >= 1, got {kernel}/{stride}")
    time = x.shape[2]
    if time < kernel:
        raise ShapeMismatchError(f"max_pool1d: time {time} shorter than kernel {kernel}")
    windows = np.lib.stride_tricks.sliding_window_view(x.data, kernel, axis=2)[:, :, ::stride]
    flat = windows.reshape(-1, kernel)  # a copy: numpy reduces short contiguous rows fastest
    argmax = flat.argmax(axis=1)  # first occurrence on ties
    out = Tensor(flat[np.arange(flat.shape[0]), argmax].reshape(windows.shape[:3]))
    argmax = argmax.reshape(windows.shape[:3])
    span = stride * (out.shape[2] - 1) + 1

    def vjp(g):
        dx = np.zeros_like(x.data)
        for k in range(kernel):
            dx[:, :, k : k + span : stride] += g * (argmax == k)
        return (dx,)

    tape.record(out, (x,), vjp)
    return out


def gru_forward(
    tape: Tape,
    x: Tensor,
    w_ih: Tensor,
    w_hh: Tensor,
    b_ih: Tensor,
    b_hh: Tensor,
    h0: Tensor,
) -> Tensor:
    """Unidirectional GRU over a batch of (time, features) sequences
    x: (B, T, F) from initial states h0: (B, H); returns every hidden state
    as (B, T, H). All B states advance together, one time step at a time.

    Gate layout stacks reset, update, candidate rows: w_ih is (3H, F), w_hh
    is (3H, H). The reset gate multiplies the hidden-side affine term of the
    candidate, and the state update is h' = (1 - z) * n + z * h.
    """
    if x.data.ndim != 3:
        raise ShapeMismatchError(f"gru_forward: expected (B,T,F) sequences, got {x.shape}")
    batch, time, feat = x.shape
    if h0.data.ndim != 2 or h0.shape[0] != batch:
        raise ShapeMismatchError(f"gru_forward: h0 must be ({batch}, H), got {h0.shape}")
    hidden = h0.shape[1]
    if w_ih.shape != (3 * hidden, feat):
        raise ShapeMismatchError(
            f"gru_forward: w_ih {w_ih.shape} does not match features {feat} / hidden {hidden}"
        )
    if w_hh.shape != (3 * hidden, hidden):
        raise ShapeMismatchError(f"gru_forward: w_hh {w_hh.shape} must be (3*{hidden}, {hidden})")
    if b_ih.shape != (3 * hidden,) or b_hh.shape != (3 * hidden,):
        raise ShapeMismatchError(
            f"gru_forward: biases {b_ih.shape}/{b_hh.shape} must be (3*{hidden},)"
        )

    H = hidden
    gi_all = np.matmul(x.data, w_ih.data.T) + b_ih.data  # (B, T, 3H), a product per window
    hs = np.empty((batch, time, H))
    cache = []
    h = h0.data
    for t in range(time):
        gh = _per_row(h, w_hh.data.T) + b_hh.data
        gi = gi_all[:, t]
        rz = _sigmoid(gi[:, : 2 * H] + gh[:, : 2 * H])
        r, z = rz[:, :H], rz[:, H:]
        hn = gh[:, 2 * H :]
        n = np.tanh(gi[:, 2 * H :] + r * hn)
        h = (1.0 - z) * n + z * h
        cache.append((r, z, n, hn))
        hs[:, t] = h
    out = Tensor(hs)

    def vjp(g):
        # pre-activation adjoints per step: input side (r, z, n) and hidden
        # side (r, z, hn); the weight products then run once over all steps
        da = np.empty((batch, time, 3 * H))
        dgh = np.empty((batch, time, 3 * H))
        h_prev = np.concatenate([h0.data[:, None], hs[:, :-1]], axis=1)
        dh = np.zeros((batch, H))
        for t in range(time - 1, -1, -1):
            r, z, n, hn = cache[t]
            dh = dh + g[:, t]
            da_n = dh * (1.0 - z) * (1.0 - n * n)
            da[:, t, :H] = da_n * hn * r * (1.0 - r)
            da[:, t, H : 2 * H] = dh * (h_prev[:, t] - n) * z * (1.0 - z)
            da[:, t, 2 * H :] = da_n
            dgh[:, t, : 2 * H] = da[:, t, : 2 * H]
            dgh[:, t, 2 * H :] = da_n * r
            dh = dh * z + dgh[:, t] @ w_hh.data
        da = da.reshape(-1, 3 * H)
        dgh = dgh.reshape(-1, 3 * H)
        dx = (da @ w_ih.data).reshape(x.shape)
        dw_ih = da.T @ x.data.reshape(-1, feat)
        dw_hh = dgh.T @ h_prev.reshape(-1, H)
        return (dx, dw_ih, dw_hh, da.sum(axis=0), dgh.sum(axis=0), dh)

    tape.record(out, (x, w_ih, w_hh, b_ih, b_hh, h0), vjp)
    return out


def l2_normalize(tape: Tape, v: Tensor, eps: float = 1e-12) -> Tensor:
    """Each row of v: (B, F) divided by max(||row||, eps); maps any row with
    norm >= eps onto the unit sphere and leaves a zero row at zero.
    """
    if v.data.ndim != 2:
        raise ShapeMismatchError(f"l2_normalize: expected (B,F) rows, got {v.shape}")
    if eps <= 0:
        raise ShapeMismatchError(f"l2_normalize: eps must be > 0, got {eps}")
    norm = np.linalg.norm(v.data, axis=1, keepdims=True)
    s = np.maximum(norm, eps)
    y = v.data / s
    out = Tensor(y)

    def vjp(g):
        tangent = (g - y * (y * g).sum(axis=1, keepdims=True)) / s
        return (np.where(norm < eps, g / eps, tangent),)

    tape.record(out, (v,), vjp)
    return out


def _sigmoid(x: Array) -> Array:
    # the tanh form cannot overflow, unlike 1 / (1 + exp(-x))
    return 0.5 * (1.0 + np.tanh(0.5 * x))


# ---------------------------------------------------------------------------
# gradient checking


def finite_difference_check(
    f: Callable[[Tape, Tensor], Tensor], point: Tensor, h: float = 1e-5
) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` must build its computation on the tape it is given and return a
    scalar Tensor. The relative error at each coordinate is
    |analytic - fd| / max(1, |analytic|).
    """
    base = np.array(point.data, dtype=np.float64)
    probe = Tensor(base.copy(), requires_grad=True)
    tape = Tape()
    out = f(tape, probe)
    if out.data.size != 1:
        raise ShapeMismatchError(f"finite_difference_check: f returned shape {out.shape}")
    backward(tape, out)
    analytic = probe.grad if probe.grad is not None else np.zeros_like(base)

    fd = np.zeros_like(base)
    flat = base.ravel()
    fd_flat = fd.ravel()
    for i in range(flat.size):
        for sign in (+1.0, -1.0):
            shifted = flat.copy()
            shifted[i] += sign * h
            val = f(Tape(), Tensor(shifted.reshape(base.shape))).item()
            if not np.isfinite(val):
                raise NumericError(f"finite_difference_check: f is non-finite at coordinate {i}")
            fd_flat[i] += sign * val
        fd_flat[i] /= 2.0 * h
    if not np.all(np.isfinite(analytic)):
        raise NumericError("finite_difference_check: non-finite analytic gradient")
    rel = np.abs(analytic - fd) / np.maximum(1.0, np.abs(analytic))
    return float(rel.max())
