"""Dense float64 kernels with tape-based reverse-mode differentiation.

The op set is exactly what the pipeline runs: the layers of the IMU
encoder (1-D convolution, group normalization, max pooling, a GRU, affine
maps, L2 normalization), whose `linear` also trains the classifier heads,
and the few ops its losses compose (`add`, `divide`, `transpose`,
`matmul_nt`). Every op takes `Tensor`s and no other input form. A new op
is one function that computes its output and hands `Tape.record` its vjp.
There is no broadcasting engine; every op takes exact shapes and raises
ShapeMismatchError otherwise.

Shape contract: the encoder layers take a leading batch axis B, one entry
per window. `group_norm`, `conv1d`, `relu` and `max_pool1d` work on (B, C, T)
signals; `gru_forward` reads such a (B, F, T) feature map as a sequence and
returns its final (B, H) state; `linear` and `l2_normalize` work on (B, F)
rows. At the tiny and default encoder configs the tests pin, a window's
result has the same bits in a batch of any size. The convolutions get this
from one fixed-shape product per window. The GRU and `linear` multiply all
their rows by a weight in one GEMM (`_row_stable_matmul`), whose row i
does not depend on the other rows at those configs' shapes, but does at
some others. Backward products sum over the batch.

Backward allocates little beyond its results: a conv vjp makes its three
outputs, one receptive-field copy for dW's single GEMM and one (B, C, t)
buffer that each tap's dx product reuses; the pool vjp makes dx, the argmax
and its routing indices.

Forward calls record entries on a Tape. `backward` replays the tape in
reverse, accumulating adjoints, and returns the gradients of the tensors it
is asked for; it leaves the tape and every tensor as they were.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import GraphError, NumericError, ShapeMismatchError

Array = np.ndarray


class Tensor:
    """A float64 array, marked when gradients should flow back to it."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeMismatchError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of primitive operations.

    Entries are (output, inputs, vjp) tuples, appended in execution order,
    which is a topological order by construction: an op's inputs always
    exist before its output.
    """

    def __init__(self):
        self._entries: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []

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
            self._entries.append((output, inputs, vjp))


def backward(tape: Tape, loss: Tensor, wrt: Sequence[Tensor]) -> list[Array]:
    """d(loss)/d(t) for each tensor t in `wrt`, zeros where the loss does not
    reach t. Two results may share memory, so treat them as read-only.

    An entry's output adjoint is released once its vjp has used it, unless
    `wrt` asks for it: the tape is in topological order, so no entry still
    to be replayed adds to it.
    """
    if loss.data.size != 1:
        raise ShapeMismatchError(f"backward needs a scalar loss, got shape {loss.shape}")
    # the loss is almost always the last entry, so scan from the end
    if not any(output is loss for output, _, _ in reversed(tape._entries)):
        raise GraphError("loss is not the output of any operation recorded on this tape")
    kept = {id(t) for t in wrt}
    adjoint: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
    for output, inputs, vjp in reversed(tape._entries):
        out = id(output)
        g = adjoint.get(out) if out in kept else adjoint.pop(out, None)
        if g is None:
            continue
        for t, c in zip(inputs, vjp(g)):
            if c is None or not t.requires_grad:
                continue
            key = id(t)
            if key in adjoint:
                adjoint[key] = adjoint[key] + c
            else:
                adjoint[key] = np.asarray(c, dtype=np.float64)
    return [adjoint[id(t)].reshape(t.shape) if id(t) in adjoint else np.zeros_like(t.data)
            for t in wrt]


# ---------------------------------------------------------------------------
# elementwise ops


def add(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"add: shapes {a.shape} and {b.shape} differ")
    out = Tensor(a.data + b.data)
    tape.record(out, (a, b), lambda g: (g, g))
    return out


def divide(tape: Tape, x: Tensor, c: float) -> Tensor:
    """x / c for a constant c."""
    c = float(c)
    out = Tensor(x.data / c)
    tape.record(out, (x,), lambda g: (g / c,))
    return out


def relu(tape: Tape, x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0))
    tape.record(out, (x,), lambda g: (g * (out.data > 0.0),))
    return out


# ---------------------------------------------------------------------------
# shape plumbing


def transpose(tape: Tape, x: Tensor) -> Tensor:
    """(M, N) -> (N, M), as a view of x's data."""
    if x.data.ndim != 2:
        raise ShapeMismatchError(f"transpose: expected a 2-D input, got {x.shape}")
    out = Tensor(x.data.T)
    tape.record(out, (x,), lambda g: (g.T,))
    return out


def _row_stable_matmul(a: Array, b: Array) -> Array:
    """a @ b for a: (M, K) and b: (K, N) as one GEMM whose row i has the
    same bits for every M at the tiny and default encoder configs' shapes;
    at some others (N of 2 or 3; K of 416-512 at most N) OpenBLAS changes
    them with M. BLAS picks its kernel, and with it the summation order, by
    the operand shapes and layouts; two facts, measured on OpenBLAS and
    pinned by the row-stability test, keep a row's order fixed at those shapes:
    - b is a C-contiguous (K, N) array. A transposed view takes another
      kernel for small M, whose rows differ from the large-M ones;
    - a lone row is padded with a zero row: numpy sends a (1, K) product
      to a matrix-vector routine that sums in another order.
    """
    b = np.ascontiguousarray(b)  # no copy when the caller hoisted one
    if a.shape[0] == 1:
        return (np.concatenate([a, np.zeros_like(a)]) @ b)[:1]
    return a @ b


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
    out = Tensor(_row_stable_matmul(x.data, w.data.T) + b.data)
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
        batch = x.shape[0]
        # dW = g (O, B*t) @ rows (B*t, C*K), in the layouts np.tensordot(g,
        # im2col) would pass BLAS, so dW has its bits (a test pins them); for
        # one window that is the transposed im2col. Rows are rebuilt rather
        # than kept alive on the tape.
        if batch == 1:
            rows = _im2col(x.data, kernel, stride)[0].T
        else:
            windows = np.lib.stride_tricks.sliding_window_view(x.data, kernel, axis=2)[:, :, ::stride]
            rows = windows.transpose(0, 2, 1, 3).reshape(batch * t_out, c_in * kernel)
        dw = (g.transpose(1, 0, 2).reshape(c_out, batch * t_out) @ rows).reshape(w.shape)
        db = g.sum(axis=(0, 2))
        # dx tap by tap through one (B, C, t) buffer: positions k, k+stride, ...
        # receive the k-th tap of every filter
        w_taps = np.ascontiguousarray(w.data.transpose(2, 0, 1))  # (K, O, C)
        tap = np.empty((batch, c_in, t_out))
        dx = np.zeros_like(x.data)
        span = stride * (t_out - 1) + 1
        for k in range(kernel):
            np.matmul(w_taps[k].T, g, out=tap)
            dx[:, :, k : k + span : stride] += tap
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
    routes to the first maximal position of each window. A window holding a
    NaN pools to NaN and routes its gradient to the first NaN.
    """
    if x.data.ndim != 3:
        raise ShapeMismatchError(f"max_pool1d: expected (B,C,T) input, got {x.shape}")
    if kernel < 1 or stride < 1:
        raise ShapeMismatchError(f"max_pool1d: kernel/stride must be >= 1, got {kernel}/{stride}")
    time = x.shape[2]
    if time < kernel:
        raise ShapeMismatchError(f"max_pool1d: time {time} shorter than kernel {kernel}")
    windows = np.lib.stride_tricks.sliding_window_view(x.data, kernel, axis=2)[:, :, ::stride]
    pooled = windows[..., 0].copy()
    for k in range(1, kernel):
        # the earlier tap second: np.maximum keeps its second operand on a
        # tie of +0 and -0, so the first maximal element is kept, as argmax does
        np.maximum(windows[..., k], pooled, out=pooled)
    out = Tensor(pooled)

    def vjp(g):
        # a copy: numpy reduces short contiguous rows fastest
        argmax = windows.reshape(-1, kernel).argmax(axis=1).reshape(out.shape)  # first on ties
        batch, channels, t_out = out.shape
        # each window's maximum as a flat index into x
        row_start = (np.arange(batch * channels) * x.shape[2]).reshape(batch, channels, 1)
        source = row_start + np.arange(t_out) * stride + argmax
        # one pass sums each adjoint into its source, windows last to first, so
        # a position that overlapping windows share adds them in tap order
        dx = np.bincount(source[..., ::-1].ravel(), g[..., ::-1].ravel(), x.data.size)
        return (dx.reshape(x.shape),)

    tape.record(out, (x,), vjp)
    return out


def gru_forward(tape: Tape, x: Tensor, w_ih: Tensor, w_hh: Tensor, b_ih: Tensor, b_hh: Tensor) -> Tensor:
    """Unidirectional GRU over the time axis of a feature map x: (B, F, T),
    started from zero states; returns the final hidden states, (B, H). All
    B states advance together, one time step at a time.

    Gate layout stacks reset, update, candidate rows: w_ih is (3H, F), w_hh
    is (3H, H). The reset gate multiplies the hidden-side affine term of the
    candidate, and the state update is h' = (1 - z) * n + z * h.
    """
    if x.data.ndim != 3 or w_hh.data.ndim != 2:
        raise ShapeMismatchError(f"gru_forward: expected x (B,F,T) and w_hh (3H,H), got {x.shape}, {w_hh.shape}")
    batch, feat, time = x.shape
    H = w_hh.shape[1]
    if w_hh.shape != (3 * H, H):
        raise ShapeMismatchError(f"gru_forward: w_hh {w_hh.shape} must be (3*{H}, {H})")
    if w_ih.shape != (3 * H, feat):
        raise ShapeMismatchError(
            f"gru_forward: w_ih {w_ih.shape} does not match features {feat} / hidden {H}"
        )
    if b_ih.shape != (3 * H,) or b_hh.shape != (3 * H,):
        raise ShapeMismatchError(f"gru_forward: biases {b_ih.shape}/{b_hh.shape} must be (3*{H},)")

    seq = np.ascontiguousarray(x.data.transpose(0, 2, 1))  # time-major: (B, T, F)
    # the input side for every step at once: one GEMM over all B*T rows
    gi_all = _row_stable_matmul(seq.reshape(-1, feat), w_ih.data.T) + b_ih.data
    gi_all = gi_all.reshape(batch, time, 3 * H)
    w_hh_t = np.ascontiguousarray(w_hh.data.T)  # copied once, not at every step
    h_prev = np.empty((batch, time, H))  # the state each step starts from
    cache = []
    h = np.zeros((batch, H))
    for t in range(time):
        h_prev[:, t] = h
        gh = _row_stable_matmul(h, w_hh_t) + b_hh.data
        gi = gi_all[:, t]
        rz = _sigmoid(gi[:, : 2 * H] + gh[:, : 2 * H])
        r, z = rz[:, :H], rz[:, H:]
        hn = gh[:, 2 * H :]
        n = np.tanh(gi[:, 2 * H :] + r * hn)
        h = (1.0 - z) * n + z * h
        cache.append((r, z, n, hn))
    out = Tensor(h)

    def vjp(g):
        # pre-activation adjoints per step: input side (r, z, n) and hidden
        # side (r, z, hn); the weight products then run once over all steps
        da = np.empty((batch, time, 3 * H))
        dgh = np.empty((batch, time, 3 * H))
        dh = g
        for t in range(time - 1, -1, -1):
            r, z, n, hn = cache[t]
            da_n = dh * (1.0 - z) * (1.0 - n * n)
            da[:, t, :H] = da_n * hn * r * (1.0 - r)
            da[:, t, H : 2 * H] = dh * (h_prev[:, t] - n) * z * (1.0 - z)
            da[:, t, 2 * H :] = da_n
            dgh[:, t, : 2 * H] = da[:, t, : 2 * H]
            dgh[:, t, 2 * H :] = da_n * r
            dh = dh * z + dgh[:, t] @ w_hh.data
        da = da.reshape(-1, 3 * H)
        dgh = dgh.reshape(-1, 3 * H)
        dx = (da @ w_ih.data).reshape(batch, time, feat).transpose(0, 2, 1)
        dw_ih = da.T @ seq.reshape(-1, feat)
        dw_hh = dgh.T @ h_prev.reshape(-1, H)
        return (dx, dw_ih, dw_hh, da.sum(axis=0), dgh.sum(axis=0))

    tape.record(out, (x, w_ih, w_hh, b_ih, b_hh), vjp)
    return out


_L2_EPS = 1e-12  # the smallest norm l2_normalize divides by


def l2_normalize(tape: Tape, v: Tensor) -> Tensor:
    """Each row of v: (B, F) divided by max(||row||, _L2_EPS); maps any row
    with norm >= _L2_EPS onto the unit sphere and leaves a zero row at zero.
    """
    if v.data.ndim != 2:
        raise ShapeMismatchError(f"l2_normalize: expected (B,F) rows, got {v.shape}")
    norm = np.linalg.norm(v.data, axis=1, keepdims=True)
    s = np.maximum(norm, _L2_EPS)
    y = v.data / s
    out = Tensor(y)

    def vjp(g):
        dv = (g - y * (y * g).sum(axis=1, keepdims=True)) / s
        small = norm[:, 0] < _L2_EPS
        dv[small] = g[small] / _L2_EPS
        return (dv,)

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
    (analytic,) = backward(tape, out, [probe])

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
