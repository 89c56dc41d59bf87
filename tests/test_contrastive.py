"""Similarities, retrieval distributions, InfoNCE losses and their gradients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imualign import autodiff as ad
from imualign.autodiff import Tape, Tensor, backward
from imualign.contrastive import (
    COL_TO_ROW,
    ROW_TO_COL,
    alignment_loss,
    info_nce,
    retrieval_distribution,
    similarity_matrix,
    symmetric_loss,
)
from imualign.errors import DataError, ShapeMismatchError
from imualign.train import TrainConfig


def _unit_rows(rng, b, d):
    m = rng.standard_normal((b, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# similarity_matrix


def test_similarity_orthonormal_identity():
    basis = np.eye(4)[:3]
    sims = similarity_matrix(Tape(), basis, basis)
    np.testing.assert_allclose(sims.data, np.eye(3))


def test_similarity_diagonal_of_self_is_one():
    rows = _unit_rows(np.random.default_rng(0), 5, 8)
    sims = similarity_matrix(Tape(), rows, rows)
    np.testing.assert_allclose(np.diag(sims.data), 1.0, atol=1e-12)


def test_similarity_hand_value():
    sims = similarity_matrix(Tape(), np.array([[1.0, 0.0]]), np.array([[0.6, 0.8]]))
    np.testing.assert_allclose(sims.data, [[0.6]])


def test_similarity_rejects_dim_mismatch_and_non_unit():
    with pytest.raises(ShapeMismatchError, match="dims differ"):
        similarity_matrix(Tape(), np.eye(2), np.eye(3))
    with pytest.raises(DataError, match="unit-norm"):
        similarity_matrix(Tape(), 2.0 * np.eye(2), np.eye(2))


def test_similarity_bounds_cauchy_schwarz():
    rng = np.random.default_rng(1)
    sims = similarity_matrix(Tape(), _unit_rows(rng, 6, 5), _unit_rows(rng, 6, 5))
    assert np.all(sims.data <= 1.0 + 1e-12)
    assert np.all(sims.data >= -1.0 - 1e-12)


# ---------------------------------------------------------------------------
# retrieval_distribution


def test_distribution_uniform_for_equal_sims():
    p = retrieval_distribution(np.full((3, 3), 0.4), 1.0)
    np.testing.assert_allclose(p, 1.0 / 3.0)


def test_distribution_hand_softmax():
    p = retrieval_distribution(np.eye(2), 1.0)
    e = math.e
    np.testing.assert_allclose(p, [[e / (e + 1), 1 / (e + 1)], [1 / (e + 1), e / (e + 1)]],
                               atol=1e-12)
    np.testing.assert_allclose(p[0], [0.7311, 0.2689], atol=1e-4)


def test_distribution_low_temperature_concentrates():
    p = retrieval_distribution(np.eye(2), 0.01)
    assert p[0, 0] > 1.0 - 1e-10 and p[1, 1] > 1.0 - 1e-10


def test_distribution_col_to_row_transposes():
    rng = np.random.default_rng(2)
    sims = rng.standard_normal((4, 4))
    p = retrieval_distribution(sims, 0.5, COL_TO_ROW)
    expected = retrieval_distribution(sims.T, 0.5, ROW_TO_COL)
    np.testing.assert_allclose(p, expected)


@given(
    b=st.sampled_from([2, 8, 16]),
    temperature=st.sampled_from([0.05, 0.1, 1.0, 10.0]),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=100, deadline=None)
def test_distribution_rows_sum_to_one(b, temperature, seed):
    sims = np.random.default_rng(seed).uniform(-1, 1, size=(b, b))
    for direction in (ROW_TO_COL, COL_TO_ROW):
        p = retrieval_distribution(sims, temperature, direction)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)


def test_distribution_temperature_monotonicity():
    sims = np.array([[0.9, 0.1, -0.2], [0.0, 0.8, 0.3], [0.1, 0.0, 0.6]])
    last = np.zeros(3)
    for temperature in (10.0, 1.0, 0.5, 0.1, 0.05):
        p = retrieval_distribution(sims, temperature)
        top = p.max(axis=1)
        assert np.all(top > last)
        last = top


def test_distribution_row_shift_invariance():
    rng = np.random.default_rng(3)
    sims = rng.standard_normal((4, 4))
    shifted = sims.copy()
    shifted[2] += 17.3
    p0 = retrieval_distribution(sims, 0.1)
    p1 = retrieval_distribution(shifted, 0.1)
    np.testing.assert_allclose(p1[2], p0[2], atol=1e-12)


def test_distribution_rejects_bad_temperature():
    with pytest.raises(DataError):
        retrieval_distribution(np.eye(2), 0.0)
    with pytest.raises(DataError):
        TrainConfig(temperature=-1.0)


# ---------------------------------------------------------------------------
# info_nce


def test_info_nce_identity_b2():
    loss = info_nce(Tape(), np.eye(2), 1.0)
    assert abs(loss.item() - 0.31326) < 1e-5
    assert abs(loss.item() - math.log(1.0 + math.exp(-1.0))) < 1e-12


def test_info_nce_uniform_sims_is_log_b():
    for b in (2, 3, 8, 16):
        loss = info_nce(Tape(), np.full((b, b), 0.25), 1.0)
        assert abs(loss.item() - math.log(b)) < 1e-9


def test_info_nce_single_candidate_is_zero():
    assert info_nce(Tape(), np.array([[0.37]]), 0.1).item() == 0.0


def test_info_nce_non_square_error():
    with pytest.raises(ShapeMismatchError, match="square"):
        info_nce(Tape(), np.zeros((2, 3)), 1.0)


def test_info_nce_nonnegative_and_decreases_with_margin():
    rng = np.random.default_rng(4)
    for _ in range(50):
        sims = rng.uniform(-1, 1, size=(5, 5))
        assert info_nce(Tape(), sims, 0.5).item() >= 0.0
    base = np.eye(4) * 0.9 + rng.uniform(-0.05, 0.05, size=(4, 4))
    losses = [info_nce(Tape(), base, temperature).item() for temperature in (1.0, 0.3, 0.1, 0.02)]
    assert losses == sorted(losses, reverse=True)
    assert losses[-1] < 1e-6


def test_info_nce_gradient_signs_and_fd():
    rng = np.random.default_rng(5)
    sims = rng.uniform(-0.5, 0.5, size=(4, 4))
    for direction in (ROW_TO_COL, COL_TO_ROW):
        tape = Tape()
        s = Tensor(sims, requires_grad=True)
        backward(tape, info_nce(tape, s, 0.2, direction))
        grad = s.grad
        assert np.all(np.diag(grad) < 0)
        off = grad[~np.eye(4, dtype=bool)]
        assert np.all(off > 0)
        err = ad.finite_difference_check(
            lambda t, p, d=direction: info_nce(t, p, 0.2, d), Tensor(sims)
        )
        assert err < 1e-6


# ---------------------------------------------------------------------------
# symmetric and trimodal losses


def test_symmetric_loss_equal_directions_on_symmetric_matrix():
    rng = np.random.default_rng(6)
    m = rng.uniform(-0.5, 0.5, size=(4, 4))
    sym = (m + m.T) / 2
    f, b, s = symmetric_loss(Tape(), sym, 0.5)
    assert f.item() == b.item()
    assert s.item() == (f.item() + b.item()) / 2


def test_symmetric_loss_identity_value():
    _, _, s = symmetric_loss(Tape(), np.eye(2), 1.0)
    assert abs(s.item() - 0.31326) < 1e-5


def test_symmetric_loss_transpose_swaps_directions():
    rng = np.random.default_rng(7)
    m = rng.uniform(-0.5, 0.5, size=(5, 5))
    f1, b1, s1 = symmetric_loss(Tape(), m, 0.3)
    f2, b2, s2 = symmetric_loss(Tape(), m.T, 0.3)
    assert abs(f1.item() - b2.item()) < 1e-12
    assert abs(b1.item() - f2.item()) < 1e-12
    assert abs(s1.item() - s2.item()) < 1e-12


def test_trimodal_identity_total():
    report, total = alignment_loss(Tape(), {"video": np.eye(2), "text": np.eye(2)}, 1.0)
    assert abs(total.item() - 0.62652) < 1e-4
    assert abs(report.l_total - (report.l_sym_iv + report.l_sym_it)) < 1e-12


def test_trimodal_mixed_case():
    report, total = alignment_loss(Tape(), {"video": np.eye(2), "text": np.full((2, 2), 0.5)}, 1.0)
    assert abs(total.item() - (0.31326 + math.log(2))) < 1e-4


def test_trimodal_report_fields_and_bound():
    rng = np.random.default_rng(8)
    report, total = alignment_loss(Tape(), {"video": rng.uniform(-1, 1, (3, 3)),
                                            "text": rng.uniform(-1, 1, (3, 3))}, 0.1)
    assert report.l_sym_iv == (report.l_i2v + report.l_v2i) / 2
    assert report.l_sym_it == (report.l_i2t + report.l_t2i) / 2
    assert report.l_total >= max(report.l_sym_iv, report.l_sym_it)


def test_trimodal_batch_mismatch():
    with pytest.raises(ShapeMismatchError, match="batch sizes differ"):
        alignment_loss(Tape(), {"video": np.eye(2), "text": np.eye(3)}, 1.0)


def test_alignment_loss_of_one_modality_fills_only_its_fields():
    m = np.random.default_rng(10).uniform(-1, 1, (3, 3))
    report, total = alignment_loss(Tape(), {"text": m}, 0.1)
    _, _, sym = symmetric_loss(Tape(), m, 0.1)
    assert set(report.present()) == {"l_i2t", "l_t2i", "l_sym_it", "l_total"}
    assert report.l_total == report.l_sym_it == total.item() == sym.item()
    for sims in ({}, {"audio": m}):
        with pytest.raises(DataError, match="video and/or text"):
            alignment_loss(Tape(), sims, 0.1)


def test_loss_gradients_flow_to_embeddings():
    rng = np.random.default_rng(9)
    rows = _unit_rows(rng, 3, 6)
    cols = _unit_rows(rng, 3, 6)
    tape = Tape()
    r = Tensor(rows, requires_grad=True)
    sims = similarity_matrix(tape, r, Tensor(cols))
    _, _, s = symmetric_loss(tape, sims, 0.1)
    backward(tape, s)
    assert r.grad is not None and r.grad.shape == rows.shape
    assert np.any(r.grad != 0.0)
