"""Similarities, temperature-scaled retrieval distributions, and symmetric
InfoNCE losses over in-batch negatives.

A batch pairs row i with column i as its positive. The forward loss is the
mean negative log-probability of the diagonal under a row softmax of
similarities scaled by 1/temperature; the backward loss uses the column
softmax; the symmetric loss is their mean. All losses are recorded on the
tape with closed-form gradients (softmax minus identity, scaled).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Tensor, add, scale
from .errors import DataError, ShapeMismatchError

ROW_TO_COL = "row_to_col"
COL_TO_ROW = "col_to_row"


@dataclass
class SimilarityMatrix:
    values: Tensor  # (B, B)
    row_modality: str
    col_modality: str


@dataclass
class LossReport:
    """Per-batch loss values; fields are populated per training mode."""

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


def _values(sims) -> Tensor:
    return sims.values if isinstance(sims, SimilarityMatrix) else _as_tensor(sims)


def similarity_matrix(
    tape: Tape, rows, cols, row_modality: str = "imu", col_modality: str = "video"
) -> SimilarityMatrix:
    """Pairwise inner products of unit-norm row sets: values[i][j] = <rows_i, cols_j>."""
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

    return SimilarityMatrix(matmul_nt(tape, rows_t, cols_t), row_modality, col_modality)


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
    values = _values(sims).data
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
    values_t = _values(sims)
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


def trimodal_loss(tape: Tape, sims_iv, sims_it, temperature: float) -> tuple[LossReport, Tensor]:
    """Sum of the two symmetric losses; reports every component."""
    v_iv, v_it = _values(sims_iv), _values(sims_it)
    if v_iv.shape != v_it.shape:
        raise ShapeMismatchError(
            f"trimodal_loss: batch sizes differ: {v_iv.shape} vs {v_it.shape}"
        )
    i2v, v2i, sym_iv = symmetric_loss(tape, sims_iv, temperature)
    i2t, t2i, sym_it = symmetric_loss(tape, sims_it, temperature)
    total = add(tape, sym_iv, sym_it)
    report = LossReport(
        l_i2v=i2v.item(), l_v2i=v2i.item(), l_sym_iv=sym_iv.item(),
        l_i2t=i2t.item(), l_t2i=t2i.item(), l_sym_it=sym_it.item(),
        l_total=total.item(),
    )
    return report, total
