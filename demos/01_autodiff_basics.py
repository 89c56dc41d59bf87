"""A tour of the tape-based autodiff core.

Every layer the IMU encoder needs (1-D conv, GroupNorm, max pooling, GRU,
linear, L2 normalization) is a float64 numpy kernel that records a backward
rule on a Tape. The encoder layers take a leading batch axis: (B, C, T)
signals and (B, F) rows; the GRU reads a (B, F, T) feature map and returns
its final (B, H) states. backward() replays the tape in reverse and returns
the gradients of the tensors it is asked for; finite_difference_check()
compares them against central differences.

The package holds only the ops its pipeline runs. A new op is one function
that computes its output and hands Tape.record a vjp, which maps the
output's adjoint to one adjoint per input; `sum_squares` below is the
scalarizer this tour adds that way, to turn a layer's output into a loss.
"""

import numpy as np

from imualign import autodiff as ad
from imualign.autodiff import Tape, Tensor, backward, finite_difference_check


def sum_squares(tape: Tape, x: Tensor) -> Tensor:
    """||x||^2 as a scalar tensor; its vjp is g * 2x."""
    out = Tensor(np.sum(x.data * x.data))
    tape.record(out, (x,), lambda g: (2.0 * float(g) * x.data,))
    return out


# --- forward + backward through a tiny expression ------------------------
tape = Tape()
x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
loss = sum_squares(tape, x)
(dx,) = backward(tape, loss, [x])
print("loss      :", loss.item())
print("d loss/dx :", dx, "(expected 2*x)")

# a tensor the loss does not reach gets zeros
unused = Tensor([5.0, 6.0], requires_grad=True)
dx, dunused = backward(tape, loss, [x, unused])
print("d loss/d unused:", dunused)

# --- a convolution over a batch of two one-channel signals ----------------
tape = Tape()
signal = Tensor([[[1.0, 2.0, 3.0, 4.0]], [[4.0, 3.0, 2.0, 1.0]]], requires_grad=True)
kernel = Tensor([[[1.0, 0.0, -1.0]]], requires_grad=True)
out = ad.conv1d(tape, signal, kernel, Tensor([0.0]), stride=1)
print("\nconv1d([[1,2,3,4]], [[4,3,2,1]]; taps [1,0,-1]) =", out.data.tolist())
(dkernel,) = backward(tape, sum_squares(tape, out), [kernel])
print("d ||out||^2/d taps (summed over the batch):", dkernel.tolist())

# --- gradient checking -----------------------------------------------------
rng = np.random.default_rng(0)
w, b = Tensor(rng.standard_normal((3, 4))), Tensor(rng.standard_normal(3))
err = finite_difference_check(
    lambda t, p: sum_squares(t, ad.linear(t, p, w, b)),
    Tensor(rng.standard_normal((2, 4))),
)
print("\n||x W^T + b||^2 gradient check, max relative error:", err)

# the GRU has the largest hand-written backward rule; check it too
rng = np.random.default_rng(1)
h = 4
seq = rng.standard_normal((2, 3, 5))  # two feature maps: 3 features over 5 steps
weights = {
    "w_ih": Tensor(0.5 * rng.standard_normal((3 * h, 3))),
    "w_hh": Tensor(0.5 * rng.standard_normal((3 * h, h))),
    "b_ih": Tensor(0.5 * rng.standard_normal(3 * h)),
    "b_hh": Tensor(0.5 * rng.standard_normal(3 * h)),
}
err = finite_difference_check(
    lambda t, p: sum_squares(t, ad.gru_forward(
        t, Tensor(seq), p, weights["w_hh"], weights["b_ih"], weights["b_hh"])),
    weights["w_ih"],
)
print("GRU input-weight gradient check, max relative error:", err)
