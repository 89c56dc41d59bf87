"""Similarities, temperature-scaled retrieval distributions, and symmetric
InfoNCE losses over in-batch negatives.

A batch pairs row i with column i as its positive. The forward loss is the
mean negative log-probability of the diagonal under a row softmax of
similarities scaled by 1/temperature; the backward loss uses the column
softmax; the symmetric loss is their mean. All losses are recorded on the
tape with closed-form gradients (softmax minus identity, scaled).

A training mode aligns the IMU embeddings with one or more anchor
modalities (`train.MODES`); its loss is the sum, in this order, of one
symmetric loss per modality:

    iv   video          l_sym_iv
    it   text           l_sym_it
    ivt  video, text    l_sym_iv + l_sym_it
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Tensor, add, scale
from .errors import DataError, ShapeMismatchError

ROW_TO_COL = "row_to_col"
COL_TO_ROW = "col_to_row"


@dataclass
class LossReport:
    """Per-batch loss values; a mode fills the fields of its modalities."""

    l_i2v: float | None = None
    l_v2i: float | None = None
    l_sym_iv: float | None = None
    l_i2t: float | None = None
    l_t2i: float | None = None
    l_sym_it: float | None = None
    l_total: float | None = None

    def present(self) -> dict[str, float]:
        return {k: v for k, v in self.__dict__.items() if v is not None}


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def similarity_matrix(tape: Tape, rows, cols) -> Tensor:
    """Pairwise inner products of unit-norm row sets: S[i][j] = <rows_i, cols_j>."""
    rows_t, cols_t = _as_tensor(rows), _as_tensor(cols)
    if rows_t.data.ndim != 2 or cols_t.data.ndim != 2:
        raise ShapeMismatchError(
            f"similarity_matrix: expected (B, D) inputs, got {rows_t.shape}, {cols_t.shape}"
        )
    if rows_t.shape[1] != cols_t.shape[1]:
        raise ShapeMismatchError(
            f"similarity_matrix: embedding dims differ: {rows_t.shape} vs {cols_t.shape}"
        )
    for name, t in (("rows", rows_t), ("cols", cols_t)):
        norms = np.linalg.norm(t.data, axis=1)
        worst = float(np.abs(norms - 1.0).max()) if norms.size else 0.0
        if worst > 1e-4:
            raise DataError(
                f"similarity_matrix: {name} not unit-norm (max deviation {worst:.2e})"
            )
    from .autodiff import matmul_nt

    return matmul_nt(tape, rows_t, cols_t)


def _scaled_logits(values: np.ndarray, temperature: float) -> np.ndarray:
    if temperature <= 0:
        raise DataError(f"temperature must be > 0, got {temperature}")
    return values / temperature


def _row_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def retrieval_distribution(sims, temperature: float, direction: str = ROW_TO_COL) -> np.ndarray:
    """Row-stochastic retrieval matrix.

    row_to_col: row i is the softmax over columns given row item i.
    col_to_row: row i is the softmax over rows given column item i.
    """
    values = _as_tensor(sims).data
    logits = _scaled_logits(values, temperature)
    if direction == ROW_TO_COL:
        return _row_softmax(logits)
    if direction == COL_TO_ROW:
        return _row_softmax(logits.T)
    raise DataError(f"unknown direction {direction!r}")


def info_nce(tape: Tape, sims, temperature: float, direction: str = ROW_TO_COL) -> Tensor:
    """Mean cross-entropy of the diagonal positives against in-batch
    negatives; differentiable w.r.t. the similarity matrix.
    """
    values_t = _as_tensor(sims)
    values = values_t.data
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ShapeMismatchError(f"info_nce: similarity matrix must be square, got {values.shape}")
    if direction not in (ROW_TO_COL, COL_TO_ROW):
        raise DataError(f"unknown direction {direction!r}")
    b = values.shape[0]
    logits = _scaled_logits(values, temperature)
    oriented = logits if direction == ROW_TO_COL else logits.T
    shifted = oriented - oriented.max(axis=1, keepdims=True)
    log_prob_diag = np.diag(shifted) - np.log(np.exp(shifted).sum(axis=1))
    out = Tensor(-log_prob_diag.mean())

    def vjp(g):
        p = _row_softmax(oriented)
        grad = (p - np.eye(b)) / (b * temperature)
        if direction == COL_TO_ROW:
            grad = grad.T
        return (grad * float(g),)

    tape.record(out, (values_t,), vjp)
    return out


def symmetric_loss(tape: Tape, sims, temperature: float) -> tuple[Tensor, Tensor, Tensor]:
    """(forward, backward, symmetric) losses; symmetric = their mean."""
    l_fwd = info_nce(tape, sims, temperature, ROW_TO_COL)
    l_bwd = info_nce(tape, sims, temperature, COL_TO_ROW)
    l_sym = scale(tape, add(tape, l_fwd, l_bwd), 0.5)
    return l_fwd, l_bwd, l_sym


def alignment_loss(tape: Tape, sims: dict, temperature: float) -> tuple[LossReport, Tensor]:
    """Sum of one symmetric loss per modality, in the order of `sims`
    (e.g. {"video": S_iv, "text": S_it}); reports every component.
    """
    if not sims or not set(sims) <= {"video", "text"}:
        raise DataError(f"alignment_loss: modalities must be video and/or text, got {list(sims)}")
    tensors = {m: _as_tensor(s) for m, s in sims.items()}
    shapes = sorted({t.shape for t in tensors.values()})
    if len(shapes) > 1:
        raise ShapeMismatchError(f"alignment_loss: batch sizes differ: {shapes}")
    report, total = LossReport(), None
    for modality, values in tensors.items():
        m = modality[0]
        fwd, bwd, sym = symmetric_loss(tape, values, temperature)
        setattr(report, f"l_i2{m}", fwd.item())
        setattr(report, f"l_{m}2i", bwd.item())
        setattr(report, f"l_sym_i{m}", sym.item())
        total = sym if total is None else add(tape, total, sym)
    report.l_total = total.item()
    return report, total
