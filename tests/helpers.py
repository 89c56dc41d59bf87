"""Ops and oracles that only the tests use, built on the package's own API.

`mul`, `sum_all` and `tanh` are tape ops, each one `Tape.record` with its
vjp: the scalarizers that reduce a layer's output to the scalar a gradient
check differentiates. `retrieval_distribution` is the row softmax of a
similarity matrix through the kernel the loss uses, `contrastive.log_softmax`.
"""

import numpy as np

from imualign.autodiff import Tape, Tensor
from imualign.contrastive import log_softmax
from imualign.errors import ShapeMismatchError


def mul(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"mul: shapes {a.shape} and {b.shape} differ")
    out = Tensor(a.data * b.data)
    tape.record(out, (a, b), lambda g: (g * b.data, g * a.data))
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


def retrieval_distribution(sims, temperature: float) -> np.ndarray:
    """Row-stochastic retrieval matrix: row i is the softmax over columns
    given row item i. Pass `sims.T` for the other direction."""
    return np.exp(log_softmax(np.asarray(sims, dtype=np.float64) / temperature))
