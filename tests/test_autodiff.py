"""Kernel-level tests: hand oracles, frozen example values, gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imualign import autodiff as ad
from imualign.autodiff import Tape, Tensor, backward, finite_difference_check
from imualign.errors import GraphError, NumericError, ShapeMismatchError

from helpers import mul, sum_all, tanh


# ---------------------------------------------------------------------------
# independent oracles (naive loop implementations, no shared code with the kernels)


def naive_conv1d(x, w, b, stride):
    c_out, c_in, k = w.shape
    t_out = (x.shape[1] - k) // stride + 1
    out = np.zeros((c_out, t_out))
    for o in range(c_out):
        for t in range(t_out):
            s = 0.0
            for c in range(c_in):
                for j in range(k):
                    s += w[o, c, j] * x[c, t * stride + j]
            out[o, t] = s + b[o]
    return out


def naive_group_norm(x, groups, gamma, beta, eps):
    c, t = x.shape
    per = c // groups
    out = np.zeros_like(x)
    for g in range(groups):
        block = x[g * per : (g + 1) * per]
        mu = block.mean()
        var = ((block - mu) ** 2).mean()
        out[g * per : (g + 1) * per] = (block - mu) / np.sqrt(var + eps)
    return gamma[:, None] * out + beta[:, None]


def naive_max_pool1d(x, kernel, stride):
    c, t = x.shape
    t_out = (t - kernel) // stride + 1
    out = np.zeros((c, t_out))
    for ci in range(c):
        for o in range(t_out):
            out[ci, o] = max(x[ci, o * stride : o * stride + kernel])
    return out


def naive_gru(x, w_ih, w_hh, b_ih, b_hh):
    """Final state of a GRU run over the time steps of x: (T, F) from zero."""
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    hidden = w_hh.shape[1]
    h = np.zeros(hidden)
    for t in range(x.shape[0]):
        gi = w_ih @ x[t] + b_ih
        gh = w_hh @ h + b_hh
        r = sig(gi[:hidden] + gh[:hidden])
        z = sig(gi[hidden : 2 * hidden] + gh[hidden : 2 * hidden])
        n = np.tanh(gi[2 * hidden :] + r * gh[2 * hidden :])
        h = (1 - z) * n + z * h
    return h


# ---------------------------------------------------------------------------
# conv1d


def test_conv1d_hand_example():
    out = ad.conv1d(Tape(), Tensor([[[1.0, 2, 3, 4]]]), Tensor([[[1.0, 0, -1]]]), Tensor([0.0]), 1)
    np.testing.assert_allclose(out.data, [[[-2.0, -2.0]]])


def test_conv1d_zero_weights_zero_output():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 3, 9))
    out = ad.conv1d(Tape(), Tensor(x), Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros(2)), 2)
    assert np.all(out.data == 0.0)


def test_conv1d_identity_kernel_plus_bias():
    out = ad.conv1d(Tape(), Tensor([[[5.0]]]), Tensor([[[1.0]]]), Tensor([2.0]), 1)
    np.testing.assert_allclose(out.data, [[[7.0]]])


def test_conv1d_matches_naive_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        c_in, c_out = rng.integers(1, 4, size=2)
        k = int(rng.integers(1, 5))
        t = int(rng.integers(k, k + 12))
        stride = int(rng.integers(1, 4))
        x = rng.standard_normal((c_in, t))
        w = rng.standard_normal((c_out, c_in, k))
        b = rng.standard_normal(c_out)
        out = ad.conv1d(Tape(), Tensor(x[None]), Tensor(w), Tensor(b), stride)
        np.testing.assert_allclose(out.data[0], naive_conv1d(x, w, b, stride), atol=1e-12)


def test_conv1d_channel_mismatch_names_shapes():
    with pytest.raises(ShapeMismatchError, match="2 channels.*expect 3"):
        ad.conv1d(Tape(), Tensor(np.zeros((1, 2, 8))), Tensor(np.zeros((1, 3, 3))), Tensor(np.zeros(1)), 1)


# ---------------------------------------------------------------------------
# group_norm


def test_group_norm_constant_input_is_zero():
    out = ad.group_norm(Tape(), Tensor(np.full((1, 4, 5), 3.7)), 2,
                        Tensor(np.ones(4)), Tensor(np.zeros(4)), 1e-5)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def test_group_norm_affine_collapse():
    rng = np.random.default_rng(2)
    out = ad.group_norm(Tape(), Tensor(rng.standard_normal((1, 2, 6))), 1,
                        Tensor(np.zeros(2)), Tensor(np.full(2, 4.25)), 1e-5)
    np.testing.assert_allclose(out.data, 4.25)


def test_group_norm_hand_example():
    x = np.array([[[1.0, 3.0], [2.0, 4.0]]])
    out = ad.group_norm(Tape(), Tensor(x), 1, Tensor(np.ones(2)), Tensor(np.zeros(2)), 1e-5)
    np.testing.assert_allclose(out.data, (x - 2.5) / np.sqrt(1.25 + 1e-5), atol=1e-14)


def test_group_norm_matches_naive_oracle():
    rng = np.random.default_rng(3)
    for groups in (1, 2, 3, 6):
        x = rng.standard_normal((6, 7))
        gamma, beta = rng.standard_normal(6), rng.standard_normal(6)
        out = ad.group_norm(Tape(), Tensor(x[None]), groups, Tensor(gamma), Tensor(beta), 1e-5)
        np.testing.assert_allclose(out.data[0], naive_group_norm(x, groups, gamma, beta, 1e-5), atol=1e-12)


def test_group_norm_indivisible_channels_error():
    with pytest.raises(ShapeMismatchError, match="not divisible"):
        ad.group_norm(Tape(), Tensor(np.zeros((1, 5, 3))), 2, Tensor(np.ones(5)), Tensor(np.zeros(5)), 1e-5)


def test_group_norm_standardizes_each_group():
    rng = np.random.default_rng(4)
    x = 2.0 + 3.0 * rng.standard_normal((6, 40))
    out = ad.group_norm(Tape(), Tensor(x[None]), 2, Tensor(np.ones(6)), Tensor(np.zeros(6)), 1e-9).data[0]
    for g in range(2):
        block = out[g * 3 : (g + 1) * 3]
        assert abs(block.mean()) < 1e-6
        assert abs(block.var() - 1.0) < 1e-6


def test_group_norm_standardizes_down_to_small_variances():
    # pre-affine mean 0 / var 1 within 1e-6 holds whenever the group
    # variance exceeds 1e-3, for eps well below that threshold
    rng = np.random.default_rng(5)
    for scale in (0.045, 0.1, 1.0, 30.0):  # variances from ~2e-3 up
        x = scale * rng.standard_normal((4, 50))
        assert x.reshape(2, -1).var(axis=1).min() > 1e-3
        out = ad.group_norm(Tape(), Tensor(x[None]), 2, Tensor(np.ones(4)), Tensor(np.zeros(4)), 1e-10).data[0]
        for g in range(2):
            block = out[g * 2 : (g + 1) * 2]
            assert abs(block.mean()) < 1e-6
            assert abs(block.var() - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# max_pool1d


def test_max_pool_hand_example():
    x = Tensor([[np.arange(1.0, 11.0)]])
    out = ad.max_pool1d(Tape(), x, 5, 5)
    np.testing.assert_allclose(out.data, [[[5.0, 10.0]]])


def test_max_pool_constant_and_identity():
    out = ad.max_pool1d(Tape(), Tensor(np.full((1, 2, 9), 1.5)), 3, 3)
    assert np.all(out.data == 1.5)
    x = np.random.default_rng(5).standard_normal((1, 3, 6))
    out = ad.max_pool1d(Tape(), Tensor(x), 1, 1)
    np.testing.assert_allclose(out.data, x)


def test_max_pool_matches_naive_oracle():
    rng = np.random.default_rng(6)
    for _ in range(20):
        kernel = int(rng.integers(1, 5))
        stride = int(rng.integers(1, 4))
        t = int(rng.integers(kernel, kernel + 15))
        x = rng.standard_normal((2, t))
        out = ad.max_pool1d(Tape(), Tensor(x[None]), kernel, stride)
        np.testing.assert_allclose(out.data[0], naive_max_pool1d(x, kernel, stride))


def test_max_pool_short_time_error():
    with pytest.raises(ShapeMismatchError, match="shorter than kernel"):
        ad.max_pool1d(Tape(), Tensor(np.zeros((1, 1, 3))), 5, 5)


def test_max_pool_tie_routes_gradient_to_first_max():
    tape = Tape()
    x = Tensor([[[2.0, 5.0, 5.0, 1.0]]], requires_grad=True)
    out = ad.max_pool1d(tape, x, 4, 4)
    (dx,) = backward(tape, sum_all(tape, out), [x])
    np.testing.assert_allclose(dx, [[[0.0, 1.0, 0.0, 0.0]]])


def test_max_pool_equals_the_argmax_formula_on_ties_nan_and_signed_zeros():
    # the running-maximum forward must pick the element `argmax` picks: the
    # first maximal one, a NaN if the window holds one; the gradient goes there
    rng = np.random.default_rng(19)
    x = rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0, np.nan], size=(3, 4, 23), p=[.2, .25, .25, .1, .1, .1])
    for kernel, stride in ((1, 1), (2, 1), (3, 2), (4, 4), (5, 5)):
        tape, probe = Tape(), Tensor(x, requires_grad=True)
        out = ad.max_pool1d(tape, probe, kernel, stride)
        windows = np.lib.stride_tricks.sliding_window_view(x, kernel, axis=2)[:, :, ::stride]
        flat = windows.reshape(-1, kernel)
        first = flat.argmax(axis=1)
        expected = flat[np.arange(flat.shape[0]), first].reshape(out.shape)
        np.testing.assert_array_equal(out.data, expected)
        np.testing.assert_array_equal(np.signbit(out.data), np.signbit(expected))
        assert np.array_equal(np.isnan(out.data), np.isnan(windows).any(axis=3))
        g = rng.standard_normal(out.shape)
        (dx,) = backward(tape, sum_all(tape, mul(tape, out, Tensor(g))), [probe])
        want = np.zeros_like(x)
        for (b, c, o), k in zip(np.ndindex(out.shape), first):
            want[b, c, o * stride + k] += g[b, c, o]
        np.testing.assert_array_equal(dx, want)


# ---------------------------------------------------------------------------
# the conv and pool vjps keep the bits of their plainest forms


def plain_conv1d_vjp(x, w, g, stride):
    """conv1d's vjp in its plainest form: im2col, dW by tensordot, dx from a (B, C*K, t) dcols."""
    c_out, c_in, kernel = w.shape
    t_out = g.shape[2]
    windows = np.lib.stride_tricks.sliding_window_view(x, kernel, axis=2)[:, :, ::stride]
    cols = windows.transpose(0, 1, 3, 2).reshape(x.shape[0], c_in * kernel, t_out)
    dw = np.tensordot(g, cols, axes=([0, 2], [0, 2])).reshape(w.shape)
    db = g.sum(axis=(0, 2))
    dcols = np.matmul(w.reshape(c_out, -1).T, g).reshape(x.shape[0], c_in, kernel, t_out)
    dx = np.zeros_like(x)
    span = stride * (t_out - 1) + 1
    for k in range(kernel):
        dx[:, :, k : k + span : stride] += dcols[:, :, k]
    return dx, dw, db


def plain_max_pool1d_vjp(x, kernel, stride, g):
    """max_pool1d's vjp in its plainest form: one masked product per tap."""
    windows = np.lib.stride_tricks.sliding_window_view(x, kernel, axis=2)[:, :, ::stride]
    argmax = windows.reshape(-1, kernel).argmax(axis=1).reshape(g.shape)
    dx = np.zeros_like(x)
    span = stride * (g.shape[2] - 1) + 1
    for k in range(kernel):
        dx[:, :, k : k + span : stride] += g * (argmax == k)
    return dx


def _assert_same_bits(got, want):
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _adjoints(op, inputs, g):
    """The adjoints `op`'s vjp hands each input for the output adjoint g."""
    tape = Tape()
    probes = [Tensor(a, requires_grad=True) for a in inputs]
    out = op(tape, *probes)
    return backward(tape, sum_all(tape, mul(tape, out, Tensor(g))), probes)


_VALUES = [-1.5, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0]  # repeats make ties


# (kernel, stride) with stride < kernel (down to 3+ windows on one position),
# stride == kernel and stride > kernel; then the default encoder's three layers
@pytest.mark.parametrize("c_in, c_out, kernel, stride, time", [
    (3, 4, 5, 2, 23), (2, 3, 4, 1, 13), (3, 2, 3, 3, 17), (2, 5, 2, 5, 21), (4, 3, 1, 2, 9),
    (6, 32, 10, 2, 200), (32, 64, 5, 2, 96), (64, 128, 5, 2, 46),
])
@pytest.mark.parametrize("batch", [1, 2, 16])
def test_conv1d_vjp_keeps_the_bits_of_the_plain_formula(batch, c_in, c_out, kernel, stride, time):
    rng = np.random.default_rng([batch, c_in, kernel, stride])
    shape = (batch, c_in, time)
    x = np.where(rng.random(shape) < 0.5, rng.choice(_VALUES, size=shape), rng.standard_normal(shape))
    x[-1, 0, 1] = np.nan  # one window of the last batch entry holds a NaN
    w, b = rng.standard_normal((c_out, c_in, kernel)), rng.standard_normal(c_out)
    t_out = (time - kernel) // stride + 1
    g = rng.choice(_VALUES, size=(batch, c_out, t_out)) * rng.standard_normal((batch, c_out, t_out))
    got = _adjoints(lambda t, *p: ad.conv1d(t, *p, stride), (x, w, b), g)
    for got_one, want in zip(got, plain_conv1d_vjp(x, w, g, stride)):
        _assert_same_bits(got_one, want)


@pytest.mark.parametrize("kernel, stride", [(5, 2), (4, 1), (3, 2), (2, 1), (3, 3), (5, 5), (2, 5), (1, 3)])
@pytest.mark.parametrize("batch", [1, 16])
def test_max_pool1d_vjp_keeps_the_bits_of_the_plain_formula(batch, kernel, stride):
    rng = np.random.default_rng([batch, kernel, stride])
    x = rng.choice(_VALUES + [np.nan], size=(batch, 8, 27), p=[.13] * 7 + [.09])
    t_out = (27 - kernel) // stride + 1
    g = rng.choice(_VALUES, size=(batch, 8, t_out)) * 10.0 ** rng.integers(-8, 9, size=(batch, 8, t_out))
    (dx,) = _adjoints(lambda t, p: ad.max_pool1d(t, p, kernel, stride), (x,), g)
    _assert_same_bits(dx, plain_max_pool1d_vjp(x, kernel, stride, g))


# ---------------------------------------------------------------------------
# gru_forward


def test_gru_zero_params_zero_states():
    h = 3
    out = ad.gru_forward(
        Tape(), Tensor(np.random.default_rng(7).standard_normal((1, 2, 4))),
        Tensor(np.zeros((3 * h, 2))), Tensor(np.zeros((3 * h, h))),
        Tensor(np.zeros(3 * h)), Tensor(np.zeros(3 * h)),
    )
    np.testing.assert_allclose(out.data, 0.0)


def test_gru_single_step_shape():
    h = 4
    out = ad.gru_forward(
        Tape(), Tensor(np.ones((1, 3, 1))),
        Tensor(np.zeros((3 * h, 3))), Tensor(np.zeros((3 * h, h))),
        Tensor(np.zeros(3 * h)), Tensor(np.zeros(3 * h)),
    )
    assert out.shape == (1, h)


def test_gru_deterministic_and_matches_naive_oracle():
    rng = np.random.default_rng(8)
    t, f, h = 5, 3, 4
    x = rng.standard_normal((t, f))
    w_ih = rng.standard_normal((3 * h, f))
    w_hh = rng.standard_normal((3 * h, h))
    b_ih = rng.standard_normal(3 * h)
    b_hh = rng.standard_normal(3 * h)
    args = lambda: (Tensor(x.T[None]), Tensor(w_ih), Tensor(w_hh), Tensor(b_ih), Tensor(b_hh))
    out1 = ad.gru_forward(Tape(), *args())
    out2 = ad.gru_forward(Tape(), *args())
    assert np.array_equal(out1.data, out2.data)
    np.testing.assert_allclose(out1.data[0], naive_gru(x, w_ih, w_hh, b_ih, b_hh), atol=1e-12)


def test_gru_feature_mismatch_error():
    h = 2
    with pytest.raises(ShapeMismatchError, match="does not match features"):
        ad.gru_forward(
            Tape(), Tensor(np.zeros((1, 5, 3))),
            Tensor(np.zeros((3 * h, 4))), Tensor(np.zeros((3 * h, h))),
            Tensor(np.zeros(3 * h)), Tensor(np.zeros(3 * h)),
        )


# ---------------------------------------------------------------------------
# linear / l2_normalize / small ops


def test_linear_examples():
    out = ad.linear(Tape(), Tensor([[3.0, 4.0]]), Tensor(np.eye(2)), Tensor(np.zeros(2)))
    np.testing.assert_allclose(out.data, [[3.0, 4.0]])
    out = ad.linear(Tape(), Tensor([[3.0, 4.0]]), Tensor(np.zeros((2, 2))), Tensor([7.0, 7.0]))
    np.testing.assert_allclose(out.data, [[7.0, 7.0]])
    out = ad.linear(Tape(), Tensor([[3.0, 4.0]]), Tensor([[1.0, 2.0]]), Tensor([1.0]))
    np.testing.assert_allclose(out.data, [[12.0]])


def test_linear_dimension_mismatch():
    with pytest.raises(ShapeMismatchError):
        ad.linear(Tape(), Tensor([[1.0, 2.0, 3.0]]), Tensor([[1.0, 2.0]]), Tensor([0.0]))


def test_l2_normalize_examples():
    out = ad.l2_normalize(Tape(), Tensor([[3.0, 4.0]]))
    np.testing.assert_allclose(out.data, [[0.6, 0.8]])
    unit = np.array([[1.0, 0.0, 0.0]])
    np.testing.assert_allclose(ad.l2_normalize(Tape(), Tensor(unit)).data, unit)
    np.testing.assert_allclose(ad.l2_normalize(Tape(), Tensor([[0.0, 0.0]])).data, [[0.0, 0.0]])


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=16))
def test_l2_normalize_output_norm(values):
    v = np.asarray(values)
    if np.linalg.norm(v) < 1e-6:
        return
    out = ad.l2_normalize(Tape(), Tensor(v[None])).data
    assert abs(np.linalg.norm(out) - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# batch axis: every row of a B=3 batch equals its per-window oracle


def test_batched_kernels_match_per_window_oracles():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((3, 6, 17))
    w, b = rng.standard_normal((4, 6, 3)), rng.standard_normal(4)
    gamma, beta = rng.standard_normal(6), rng.standard_normal(6)
    seq = rng.standard_normal((3, 5, 3))  # (B, T, F) for the oracle
    w_ih, w_hh = rng.standard_normal((12, 3)), rng.standard_normal((12, 4))
    b_ih, b_hh = rng.standard_normal(12), rng.standard_normal(12)
    rows, lw, lb = rng.standard_normal((3, 5)), rng.standard_normal((2, 5)), rng.standard_normal(2)
    conv = ad.conv1d(Tape(), Tensor(x), Tensor(w), Tensor(b), 2).data
    gn = ad.group_norm(Tape(), Tensor(x), 3, Tensor(gamma), Tensor(beta), 1e-5).data
    pool = ad.max_pool1d(Tape(), Tensor(x), 4, 3).data
    relu = ad.relu(Tape(), Tensor(x)).data
    gru = ad.gru_forward(Tape(), *map(Tensor, (seq.transpose(0, 2, 1), w_ih, w_hh, b_ih, b_hh))).data
    lin = ad.linear(Tape(), Tensor(rows), Tensor(lw), Tensor(lb)).data
    unit = ad.l2_normalize(Tape(), Tensor(rows)).data
    for i in range(3):
        np.testing.assert_allclose(conv[i], naive_conv1d(x[i], w, b, 2), atol=1e-12)
        np.testing.assert_allclose(gn[i], naive_group_norm(x[i], 3, gamma, beta, 1e-5), atol=1e-12)
        np.testing.assert_array_equal(pool[i], naive_max_pool1d(x[i], 4, 3))
        np.testing.assert_array_equal(relu[i], np.maximum(x[i], 0.0))
        np.testing.assert_allclose(gru[i], naive_gru(seq[i], w_ih, w_hh, b_ih, b_hh), atol=1e-12)
        np.testing.assert_allclose(lin[i], lw @ rows[i] + lb, atol=1e-12)
        np.testing.assert_allclose(unit[i], rows[i] / np.sqrt(np.sum(rows[i] ** 2)), atol=1e-12)


def test_gru_and_linear_on_a_lone_row_match_their_oracles():
    # one row is padded to two before its product; the pad must not leak
    rng = np.random.default_rng(20)
    seq = rng.standard_normal((1, 3, 5))  # (B, F, T)
    w_ih, w_hh = rng.standard_normal((12, 3)), rng.standard_normal((12, 4))
    b_ih, b_hh = rng.standard_normal(12), rng.standard_normal(12)
    row, lw, lb = rng.standard_normal((1, 5)), rng.standard_normal((2, 5)), rng.standard_normal(2)
    gru = ad.gru_forward(Tape(), *map(Tensor, (seq, w_ih, w_hh, b_ih, b_hh))).data
    np.testing.assert_allclose(gru[0], naive_gru(seq[0].T, w_ih, w_hh, b_ih, b_hh), atol=1e-12)
    lin = ad.linear(Tape(), Tensor(row), Tensor(lw), Tensor(lb)).data
    np.testing.assert_allclose(lin[0], lw @ row[0] + lb, atol=1e-12)
    parts = [seq, w_ih, w_hh, b_ih, b_hh]
    for which in range(5):
        def f(t, p, which=which):
            args = [Tensor(a) for a in parts]
            args[which] = p
            return sum_all(t, ad.gru_forward(t, *args))

        assert finite_difference_check(f, Tensor(parts[which])) < 1e-4
    lin_fd = finite_difference_check(
        lambda t, p: sum_all(t, tanh(t, ad.linear(t, p, Tensor(lw), Tensor(lb)))), Tensor(row))
    assert lin_fd < 1e-4


def test_batched_kernels_reject_unbatched_inputs():
    with pytest.raises(ShapeMismatchError, match=r"\(B,C,T\)"):
        ad.conv1d(Tape(), Tensor(np.zeros((2, 8))), Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros(1)), 1)
    with pytest.raises(ShapeMismatchError, match=r"\(B,F,T\)"):
        ad.gru_forward(Tape(), Tensor(np.zeros((1, 3))), Tensor(np.zeros((6, 1))),
                       Tensor(np.zeros((6, 2))), Tensor(np.zeros(6)), Tensor(np.zeros(6)))
    with pytest.raises(ShapeMismatchError, match=r"\(B,F\)"):
        ad.l2_normalize(Tape(), Tensor([3.0, 4.0]))
    with pytest.raises(ShapeMismatchError, match="2-D"):
        ad.transpose(Tape(), Tensor(np.zeros((2, 3, 4))))


# ---------------------------------------------------------------------------
# backward semantics


def test_backward_sum_gives_ones():
    tape = Tape()
    x = Tensor(np.random.default_rng(9).standard_normal((3, 4)), requires_grad=True)
    (dx,) = backward(tape, sum_all(tape, x), [x])
    np.testing.assert_allclose(dx, np.ones((3, 4)))


def test_backward_squared_norm():
    tape = Tape()
    x = Tensor([1.0, 2.0], requires_grad=True)
    (dx,) = backward(tape, sum_all(tape, mul(tape, x, x)), [x])
    np.testing.assert_allclose(dx, [2.0, 4.0])


def test_backward_twice_on_one_tape_returns_equal_arrays():
    tape = Tape()
    x = Tensor([1.0, -2.0, 0.5], requires_grad=True)
    loss = sum_all(tape, tanh(tape, x))
    (first,) = backward(tape, loss, [x])
    (second,) = backward(tape, loss, [x])
    np.testing.assert_array_equal(second, first)
    np.testing.assert_allclose(first, 1.0 - np.tanh(x.data) ** 2)


def test_backward_gives_zeros_where_the_loss_does_not_reach():
    tape = Tape()
    x = Tensor([1.0, 2.0], requires_grad=True)
    unused = Tensor(np.ones((2, 3)), requires_grad=True)
    tanh(tape, unused)  # on the tape, but not upstream of the loss
    dx, dunused = backward(tape, sum_all(tape, mul(tape, x, x)), [x, unused])
    np.testing.assert_allclose(dx, [2.0, 4.0])
    np.testing.assert_array_equal(dunused, np.zeros((2, 3)))


def test_backward_keeps_a_requested_intermediate_adjoint():
    # y's adjoint is consumed by tanh's vjp before x's is complete; asking
    # for y keeps it, and asking changes nothing else
    tape = Tape()
    x = Tensor([0.3, -1.2, 0.7], requires_grad=True)
    y = tanh(tape, x)
    z = mul(tape, y, y)
    loss = sum_all(tape, mul(tape, z, x))
    dz, dy, dx = backward(tape, loss, [z, y, x])
    np.testing.assert_allclose(dz, x.data)
    np.testing.assert_allclose(dy, 2.0 * y.data * x.data)
    np.testing.assert_allclose(dx, dy * (1.0 - y.data ** 2) + z.data)
    (dx_alone,) = backward(tape, loss, [x])
    np.testing.assert_array_equal(dx_alone, dx)


def test_backward_rejects_off_tape_loss():
    tape = Tape()
    x = Tensor([1.0], requires_grad=True)
    with pytest.raises(GraphError):
        backward(tape, x, [x])


def test_backward_rejects_non_scalar():
    tape = Tape()
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = mul(tape, x, x)
    with pytest.raises(ShapeMismatchError):
        backward(tape, y, [x])


def test_constants_receive_no_gradient():
    tape = Tape()
    x = Tensor([1.0, 2.0], requires_grad=True)
    c = Tensor([3.0, 4.0])  # constant
    dx, dc = backward(tape, sum_all(tape, mul(tape, x, c)), [x, c])
    np.testing.assert_allclose(dx, [3.0, 4.0])
    np.testing.assert_array_equal(dc, [0.0, 0.0])


# ---------------------------------------------------------------------------
# finite differences


def test_fd_check_square():
    err = finite_difference_check(lambda t, x: sum_all(t, mul(t, x, x)), Tensor([3.0]))
    assert err < 1e-8


def test_fd_check_linear_is_exact():
    err = finite_difference_check(lambda t, x: sum_all(t, ad.divide(t, x, 0.4)), Tensor([1.0, -2.0]))
    assert err < 1e-9


def test_fd_check_tanh():
    point = Tensor(np.random.default_rng(10).standard_normal(10))
    err = finite_difference_check(lambda t, x: sum_all(t, tanh(t, x)), point)
    assert err < 1e-6


def test_fd_check_rejects_non_finite():
    def f(tape, x):
        out = Tensor(np.array(np.inf))
        tape.record(out, (x,), lambda g: (np.full_like(x.data, np.nan),))
        return out

    with pytest.raises(NumericError):
        finite_difference_check(f, Tensor([1.0]))


def _fd_sweep(make_case, n_points, seed, tol=1e-4):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_points):
        f, point = make_case(rng)
        worst = max(worst, finite_difference_check(f, point))
    assert worst < tol, f"worst relative error {worst}"


def test_fd_conv1d_inputs_and_weights():
    def case(rng):
        x = rng.standard_normal((3, 2, 11))
        w = rng.standard_normal((3, 2, 3))
        b = rng.standard_normal(3)
        which = rng.integers(3)
        if which == 0:
            return (lambda t, p: sum_all(t, tanh(t, ad.conv1d(t, p, Tensor(w), Tensor(b), 2)))), Tensor(x)
        if which == 1:
            return (lambda t, p: sum_all(t, tanh(t, ad.conv1d(t, Tensor(x), p, Tensor(b), 2)))), Tensor(w)
        return (lambda t, p: sum_all(t, tanh(t, ad.conv1d(t, Tensor(x), Tensor(w), p, 2)))), Tensor(b)

    _fd_sweep(case, 30, seed=11)


def test_fd_group_norm_all_inputs():
    def case(rng):
        x = rng.standard_normal((3, 4, 6))
        gamma = 0.5 + rng.uniform(size=4)
        beta = rng.standard_normal(4)
        which = rng.integers(3)
        if which == 0:
            return (lambda t, p: sum_all(t, ad.group_norm(t, p, 2, Tensor(gamma), Tensor(beta), 1e-5))), Tensor(x)
        if which == 1:
            return (lambda t, p: sum_all(t, tanh(t, ad.group_norm(t, Tensor(x), 2, p, Tensor(beta), 1e-5)))), Tensor(gamma)
        return (lambda t, p: sum_all(t, tanh(t, ad.group_norm(t, Tensor(x), 2, Tensor(gamma), p, 1e-5)))), Tensor(beta)

    _fd_sweep(case, 30, seed=12)


def test_fd_gru_all_inputs():
    def case(rng):
        t_len, f, h = 4, 3, 4
        x = rng.standard_normal((3, f, t_len))
        w_ih = rng.standard_normal((3 * h, f)) * 0.5
        w_hh = rng.standard_normal((3 * h, h)) * 0.5
        b_ih = rng.standard_normal(3 * h) * 0.5
        b_hh = rng.standard_normal(3 * h) * 0.5
        parts = [x, w_ih, w_hh, b_ih, b_hh]
        which = int(rng.integers(5))

        def f_probe(t, p, which=which):
            args = [Tensor(a) for a in parts]
            args[which] = p
            return sum_all(t, ad.gru_forward(t, *args))

        return f_probe, Tensor(parts[which])

    _fd_sweep(case, 24, seed=13)


def test_fd_max_pool_away_from_ties():
    def case(rng):
        # keep entries separated so +-h perturbations cannot flip an argmax
        x = rng.permutation(np.linspace(-2.0, 2.0, 36)).reshape(3, 2, 6)
        return (lambda t, p: sum_all(t, ad.max_pool1d(t, p, 3, 2))), Tensor(x)

    _fd_sweep(case, 30, seed=14)


def test_fd_l2_normalize_and_linear_and_matmul():
    def case(rng):
        which = rng.integers(3)
        if which == 0:
            return (lambda t, p: sum_all(t, ad.l2_normalize(t, p))), Tensor(1.0 + rng.uniform(size=(3, 5)))
        if which == 1:
            w = rng.standard_normal((3, 4))
            b = rng.standard_normal(3)
            return (lambda t, p: sum_all(t, tanh(t, ad.linear(t, p, Tensor(w), Tensor(b))))), Tensor(rng.standard_normal((3, 4)))
        a = rng.standard_normal((3, 4))
        return (lambda t, p: sum_all(t, tanh(t, ad.matmul_nt(t, Tensor(a), p)))), Tensor(rng.standard_normal((2, 4)))

    _fd_sweep(case, 40, seed=15)


# ---------------------------------------------------------------------------
# shape formulas (property sweep)


@given(
    time=st.integers(1, 40),
    kernel=st.integers(1, 8),
    stride=st.integers(1, 5),
)
@settings(max_examples=120, deadline=None)
def test_shape_formulas(time, kernel, stride):
    if time < kernel:
        return
    x = Tensor(np.zeros((1, 2, time)))
    expected = (time - kernel) // stride + 1
    conv = ad.conv1d(Tape(), x, Tensor(np.zeros((3, 2, kernel))), Tensor(np.zeros(3)), stride)
    assert conv.shape == (1, 3, expected)
    pool = ad.max_pool1d(Tape(), x, kernel, stride)
    assert pool.shape == (1, 2, expected)
    gn = ad.group_norm(Tape(), x, 2, Tensor(np.ones(2)), Tensor(np.zeros(2)), 1e-5)
    assert gn.shape == (1, 2, time)
