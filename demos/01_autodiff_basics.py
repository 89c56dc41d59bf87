"""A tour of the tape-based autodiff core.

Every layer the IMU encoder needs (1-D conv, GroupNorm, max pooling, GRU,
linear, L2 normalization) is a float64 numpy kernel that records a backward
rule on a Tape. The encoder layers take a leading batch axis: (B, C, T)
signals, (B, T, F) sequences and (B, F) rows. backward() replays the tape in reverse and accumulates
gradients; finite_difference_check() compares them against central
differences.
"""

import numpy as np

from imualign import autodiff as ad
from imualign.autodiff import Tape, Tensor, backward, finite_difference_check

# --- forward + backward through a tiny expression ------------------------
tape = Tape()
x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
loss = ad.sum_all(tape, ad.mul(tape, x, x))  # ||x||^2
backward(tape, loss)
print("loss      :", loss.item())
print("d loss/dx :", x.grad, "(expected 2*x)")

# calling backward again accumulates: gradients double
backward(tape, loss)
print("after 2nd backward:", x.grad)

# --- a convolution over a batch of two one-channel signals ----------------
tape = Tape()
signal = Tensor([[[1.0, 2.0, 3.0, 4.0]], [[4.0, 3.0, 2.0, 1.0]]], requires_grad=True)
kernel = Tensor([[[1.0, 0.0, -1.0]]], requires_grad=True)
out = ad.conv1d(tape, signal, kernel, Tensor([0.0]), stride=1)
print("\nconv1d([[1,2,3,4]], [[4,3,2,1]]; taps [1,0,-1]) =", out.data.tolist())
backward(tape, ad.sum_all(tape, out))
print("d sum/d taps (summed over the batch):", kernel.grad.tolist())

# --- gradient checking -----------------------------------------------------
err = finite_difference_check(
    lambda t, p: ad.sum_all(t, ad.tanh(t, p)),
    Tensor(np.random.default_rng(0).standard_normal(10)),
)
print("\nsum(tanh(x)) gradient check, max relative error:", err)

# the GRU has the largest hand-written backward rule; check it too
rng = np.random.default_rng(1)
h = 4
seq = rng.standard_normal((2, 5, 3))  # two sequences of 5 steps, 3 features
weights = {
    "w_ih": Tensor(0.5 * rng.standard_normal((3 * h, 3))),
    "w_hh": Tensor(0.5 * rng.standard_normal((3 * h, h))),
    "b_ih": Tensor(0.5 * rng.standard_normal(3 * h)),
    "b_hh": Tensor(0.5 * rng.standard_normal(3 * h)),
}
err = finite_difference_check(
    lambda t, p: ad.sum_all(t, ad.gru_forward(
        t, Tensor(seq), p, weights["w_hh"], weights["b_ih"], weights["b_hh"],
        Tensor(np.zeros((2, h))))),
    weights["w_ih"],
)
print("GRU input-weight gradient check, max relative error:", err)
