"""Similarities, symmetric InfoNCE losses over in-batch negatives, and the
softmax cross-entropy they share with the classifier heads. The
differentiable functions take `Tensor`s, as every `autodiff` op does.

A batch pairs row i with column i as its positive. The forward loss is
InfoNCE: the softmax cross-entropy of the similarities divided by the
temperature, with labels arange(B), i.e. the mean negative log-probability
of the diagonal under a row softmax. The backward loss is InfoNCE of the
transposed matrix; the symmetric loss is their mean. The one hand-written
gradient is softmax_cross_entropy's (softmax minus one-hot, over the batch);
the losses compose it with the tape's divide, transpose and add.

A training mode aligns the IMU embeddings with one or more anchor
modalities (`train.MODES`); its loss is the sum, in this order, of one
symmetric loss per modality:

    iv   video          l_sym_iv
    it   text           l_sym_it
    ivt  video, text    l_sym_iv + l_sym_it
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tape, Tensor, add, divide, matmul_nt, transpose
from .errors import DataError, ShapeMismatchError


def similarity_matrix(tape: Tape, rows: Tensor, cols: Tensor) -> Tensor:
    """Pairwise inner products of unit-norm row sets: S[i][j] = <rows_i, cols_j>."""
    if rows.data.ndim != 2 or cols.data.ndim != 2:
        raise ShapeMismatchError(
            f"similarity_matrix: expected (B, D) inputs, got {rows.shape}, {cols.shape}"
        )
    if rows.shape[1] != cols.shape[1]:
        raise ShapeMismatchError(
            f"similarity_matrix: embedding dims differ: {rows.shape} vs {cols.shape}"
        )
    for name, t in (("rows", rows), ("cols", cols)):
        norms = np.linalg.norm(t.data, axis=1)
        worst = float(np.abs(norms - 1.0).max()) if norms.size else 0.0
        if worst > 1e-4:
            raise DataError(
                f"similarity_matrix: {name} not unit-norm (max deviation {worst:.2e})"
            )
    return matmul_nt(tape, rows, cols)


def log_softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of a (B, C) array, shifted by each row's max."""
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax_cross_entropy(tape: Tape, logits: Tensor, label_indices: np.ndarray) -> Tensor:
    """Mean negative log-softmax of the gold class; gradient is
    (softmax - onehot) / batch.
    """
    z = logits.data
    if z.ndim != 2:
        raise ShapeMismatchError(f"softmax_cross_entropy: logits must be (B, C), got {z.shape}")
    labels = np.asarray(label_indices)
    if not np.issubdtype(labels.dtype, np.integer):  # a cast would truncate 2.9 to 2, True to 1
        raise ShapeMismatchError(f"softmax_cross_entropy: labels must be integers, got dtype {labels.dtype}")
    if labels.shape != (z.shape[0],):
        raise ShapeMismatchError(
            f"softmax_cross_entropy: {labels.shape[0] if labels.ndim else 0} labels for {z.shape[0]} rows"
        )
    if labels.size and not (labels.min() >= 0 and labels.max() < z.shape[1]):
        raise ShapeMismatchError(f"softmax_cross_entropy: labels must lie in [0, {z.shape[1]}), "
                                 f"got {labels.min()}..{labels.max()}")
    b = z.shape[0]
    log_probs = log_softmax(z)
    out = Tensor(-log_probs[np.arange(b), labels].sum() / b)  # the bits of .mean(), without its overhead

    def vjp(g):
        grad = np.exp(log_probs)
        grad[np.arange(b), labels] -= 1.0
        return (grad * (float(g) / b),)

    tape.record(out, (logits,), vjp)
    return out


def info_nce(tape: Tape, sims: Tensor, temperature: float) -> Tensor:
    """Mean cross-entropy of the diagonal positives against in-batch
    negatives: the classifier loss of `sims / temperature` with labels
    arange(B); differentiable w.r.t. the similarity matrix.
    """
    if sims.data.ndim != 2 or sims.shape[0] != sims.shape[1]:
        raise ShapeMismatchError(f"info_nce: similarity matrix must be square, got {sims.shape}")
    if not temperature > 0:  # NaN too
        raise DataError(f"temperature must be > 0, got {temperature}")
    return softmax_cross_entropy(tape, divide(tape, sims, temperature), np.arange(sims.shape[0]))


def symmetric_loss(tape: Tape, sims: Tensor, temperature: float) -> tuple[Tensor, Tensor, Tensor]:
    """(forward, backward, symmetric) losses; the backward loss is InfoNCE
    of the transposed matrix, the symmetric loss their mean.
    """
    l_fwd = info_nce(tape, sims, temperature)
    l_bwd = info_nce(tape, transpose(tape, sims), temperature)
    l_sym = divide(tape, add(tape, l_fwd, l_bwd), 2.0)
    return l_fwd, l_bwd, l_sym


def alignment_loss(tape: Tape, sims: dict[str, Tensor], temperature: float) -> tuple[dict[str, float], Tensor]:
    """Sum of one symmetric loss per modality, in the order of `sims`
    (e.g. {"video": S_iv, "text": S_it}). Reports every component, keyed
    l_i2{m}, l_{m}2i and l_sym_i{m} for each modality m in that order
    (m = v or t), then l_total.
    """
    if not sims or not set(sims) <= {"video", "text"}:
        raise DataError(f"alignment_loss: modalities must be video and/or text, got {list(sims)}")
    shapes = sorted({t.shape for t in sims.values()})
    if len(shapes) > 1:
        raise ShapeMismatchError(f"alignment_loss: batch sizes differ: {shapes}")
    report, total = {}, None
    for modality, values in sims.items():
        m = modality[0]
        fwd, bwd, sym = symmetric_loss(tape, values, temperature)
        report |= {f"l_i2{m}": fwd.item(), f"l_{m}2i": bwd.item(), f"l_sym_i{m}": sym.item()}
        total = sym if total is None else add(tape, total, sym)
    report["l_total"] = total.item()
    return report, total
