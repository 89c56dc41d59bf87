"""Retrieval metrics, classification protocols, and their oracles."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imualign import evaluate
from imualign.encoder import EncoderConfig, encode_batch, init_params
from imualign.container import write_container
from imualign.errors import CoverageError, DataError, FormatError, NumericError, ShapeMismatchError
from imualign.evaluate import (
    ClassifierHead,
    Pool,
    ProbeConfig,
    RetrievalResult,
    classification_metrics,
    eval_retrieval,
    fine_tune,
    fit_linear_head,
    init_head,
    load_head,
    mrr,
    rank_pool,
    recall_at_k,
    save_head,
    train_probe,
    zeroshot_classify,
)
from imualign.signalio import synth_dataset

SMALL_ENC = EncoderConfig(
    n_conv_layers=1, conv_channels=(8,), conv_kernels=(7,), conv_strides=(2,),
    gru_hidden=12, embed_dim=16,
)


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def brute_force_rank(query, pool, gold_id):
    """Independent oracle: python sort on (-score, id) tuples."""
    scored = sorted(((-float(np.dot(query, v)), pid) for pid, v in pool))
    ranked = [pid for _, pid in scored]
    return ranked.index(gold_id) + 1


# ---------------------------------------------------------------------------
# rank_pool


def test_rank_pool_self_similarity_first():
    q = _unit([1.0, 0.0])
    pool = Pool({"gold": q, "other": _unit([0.0, 1.0])})
    res = rank_pool(q, pool, "gold")
    assert res.gold_rank == 1
    assert pool.ids[pool.rank(q)[0][0]] == "gold"


def test_rank_pool_tie_breaks_by_id():
    v = _unit([1.0, 1.0])
    pool = Pool({"c": v.copy(), "a": v.copy(), "b": v.copy()})
    res = rank_pool(v, pool, "b")
    assert [pool.ids[i] for i in pool.rank(v)[0]] == ["a", "b", "c"]
    assert res.gold_rank == 2


@pytest.mark.parametrize("dim", [17, 512])
def test_equal_vectors_tie_by_id_at_every_pool_size(dim):
    # BLAS gemv scores equal rows an ulp apart at some of these sizes
    rng = np.random.default_rng(dim)
    v = _unit(rng.standard_normal(dim))
    q = _unit(rng.standard_normal(dim))
    for n in range(1, 40):
        vectors = {f"id{i:02d}": v.copy() for i in reversed(range(n))}
        vectors["other"] = _unit(rng.standard_normal(dim))
        pool = Pool(vectors)
        order, scores = pool.rank(q)
        assert len(set(scores[:n].tolist())) == 1
        res = rank_pool(q, pool, "id00")
        assert [pool.ids[i] for i in order if pool.ids[i] != "other"] == sorted(vectors)[:n]
        assert res.gold_rank == 1 + (scores[n] > scores[0])


def test_rank_pool_hand_order():
    q = _unit([1.0, 0.0])
    pool = Pool({"a": _unit([0.9, np.sqrt(1 - 0.81)]), "b": _unit([0.5, np.sqrt(0.75)])})
    res = rank_pool(q, pool, "b")
    assert res.gold_rank == 2


def test_rank_pool_missing_gold():
    for gold in ("zzz", "0", "aa"):
        with pytest.raises(CoverageError):
            rank_pool(_unit([1.0, 0.0]), Pool({"a": _unit([1.0, 0.0])}), gold)


def test_pool_rejects_empty_map_and_wrong_query_dim():
    with pytest.raises(DataError, match="empty"):
        Pool({})
    with pytest.raises(ShapeMismatchError, match="dim"):
        Pool({"a": _unit([1.0, 0.0])}).rank(_unit([1.0, 0.0, 0.0]))
    with pytest.raises(ShapeMismatchError, match="unequal shape"):
        Pool({"a": _unit([1.0, 0.0]), "b": _unit([1.0, 0.0, 0.0])})
    with pytest.raises(ShapeMismatchError, match="1-D"):
        Pool({"a": np.eye(2), "b": np.eye(2)})
    with pytest.raises(ShapeMismatchError, match="1-D"):
        Pool({"a": np.float64(1.0)})


def test_rank_pool_counts_the_stable_sort_position_among_duplicates_and_zeros():
    # many exact ties: rank_pool's count must give the gold's place in
    # Pool.rank's stable ascending-id order, for every gold
    rng = np.random.default_rng(6)
    for dim in (3, 17, 512):
        base = [_unit(rng.standard_normal(dim)) for _ in range(4)] + [np.zeros(dim)]
        vectors = {f"id{i:02d}": base[int(rng.integers(len(base)))].copy() for i in range(37)}
        pool = Pool(vectors)
        for q in (_unit(rng.standard_normal(dim)), base[0], np.zeros(dim)):
            order = pool.rank(q)[0].tolist()
            for gold in vectors:
                assert rank_pool(q, pool, gold).gold_rank == 1 + order.index(pool.ids.index(gold))


def test_rank_pool_refuses_a_nan_gold_score_and_ranks_nan_rows_last():
    v = {"a": _unit([1.0, 0.0]), "b": np.array([np.nan, 0.0]), "c": _unit([1.0, 1.0]),
         "d": _unit([1.0, 0.0])}
    pool, q = Pool(v), _unit([1.0, 0.0])
    order = pool.rank(q)[0].tolist()
    assert [pool.ids[i] for i in order] == ["a", "d", "c", "b"]
    assert [rank_pool(q, pool, g).gold_rank for g in "acd"] == [1, 3, 2]
    with pytest.raises(NumericError, match="'b' scores NaN"):
        rank_pool(q, pool, "b")


def test_rank_pool_matches_brute_force_oracle():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 65))
        d = int(rng.integers(2, 9))
        pool = [(f"id{i:03d}", _unit(rng.standard_normal(d))) for i in range(n)]
        q = _unit(rng.standard_normal(d))
        gold = f"id{int(rng.integers(n)):03d}"
        ranked = Pool(dict(pool))
        res = rank_pool(q, ranked, gold)
        assert res.gold_rank == brute_force_rank(q, pool, gold)
        assert sorted(ranked.ids[i] for i in ranked.rank(q)[0]) == sorted(p[0] for p in pool)


# ---------------------------------------------------------------------------
# recall / mrr


def _results(ranks):
    return [RetrievalResult(f"q{i}", r) for i, r in enumerate(ranks)]


def test_recall_examples():
    assert recall_at_k(_results([1, 1, 1]), 1) == 1.0
    assert abs(recall_at_k(_results([1, 3, 7]), 3) - 2 / 3) < 1e-12
    assert recall_at_k(_results([4, 9, 2]), 100) == 1.0


def test_mrr_examples():
    assert mrr(_results([1, 1])) == 1.0
    assert abs(mrr(_results([1, 2, 4])) - 0.58333) < 1e-5
    assert mrr(_results([2])) == 0.5


def test_empty_results_error():
    with pytest.raises(DataError):
        recall_at_k([], 1)
    with pytest.raises(DataError):
        mrr([])


@given(st.lists(st.integers(1, 100), min_size=1, max_size=50))
@settings(max_examples=80)
def test_metric_bounds_and_monotonicity(ranks):
    results = _results(ranks)
    values = [recall_at_k(results, k) for k in (1, 5, 10, 50, 100)]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert values == sorted(values)
    m = mrr(results)
    assert 0.0 <= m <= 1.0
    assert m >= recall_at_k(results, 1) - 1e-12


# ---------------------------------------------------------------------------
# eval_retrieval


def test_eval_retrieval_self_retrieval_perfect():
    rng = np.random.default_rng(1)
    vecs = {f"w{i}": _unit(rng.standard_normal(8)) for i in range(20)}
    out = eval_retrieval(vecs, dict(vecs), "imu2video")
    assert out["R@1"] == 1.0 and out["R@10"] == 1.0 and out["MRR"] == 1.0
    assert out["pool_size"] == 20 and out["n_queries"] == 20
    assert "pool_lt_50" in out["flags"]


def test_eval_retrieval_random_mrr_matches_uniform_rank_expectation():
    # gold rank of a random query among n random pool items is uniform,
    # so the expected MRR is H(n)/n
    rng = np.random.default_rng(2)
    n = 100
    harmonic = sum(1.0 / r for r in range(1, n + 1)) / n
    total = 0.0
    trials = 10
    for _ in range(trials):
        pool = {f"p{i}": _unit(rng.standard_normal(16)) for i in range(n)}
        queries = {f"p{i}": _unit(rng.standard_normal(16)) for i in range(n)}
        out = eval_retrieval(queries, pool, "text2imu")
        total += out["MRR"]
    assert abs(total / trials - harmonic) < 0.01


def test_eval_retrieval_direction_symmetry():
    rng = np.random.default_rng(3)
    vecs = {f"w{i}": _unit(rng.standard_normal(8)) for i in range(30)}
    fwd = eval_retrieval(vecs, dict(vecs), "imu2video")
    bwd = eval_retrieval(dict(vecs), vecs, "video2imu")
    assert fwd["R@1"] == bwd["R@1"] and fwd["MRR"] == bwd["MRR"]


def test_eval_retrieval_coverage_failure():
    rng = np.random.default_rng(4)
    queries = {f"w{i}": _unit(rng.standard_normal(4)) for i in range(3)}
    pool = {k: v for k, v in queries.items() if k != "w1"}
    with pytest.raises(CoverageError) as exc:
        eval_retrieval(queries, pool, "imu2text")
    assert exc.value.missing_ids == ["w1"]


def test_eval_retrieval_direction_validation():
    with pytest.raises(DataError, match="direction"):
        eval_retrieval({}, {}, "imu2audio")


def test_eval_retrieval_repeat_calls_match_brute_force(monkeypatch):
    rng = np.random.default_rng(5)
    text = {f"w{i}": _unit(rng.standard_normal(8)) for i in range(40)}
    imu = {k: _unit(v + 0.3 * rng.standard_normal(8)) for k, v in text.items()}
    gold_ranks = []

    def recording(query, pool, gold_id):
        result = rank_pool(query, pool, gold_id)
        gold_ranks.append((gold_id, result.gold_rank))
        return result

    monkeypatch.setattr(evaluate, "rank_pool", recording)
    first = eval_retrieval(imu, text, "text2imu")
    second = eval_retrieval(imu, text, "text2imu")
    assert first == second
    expected = [(qid, brute_force_rank(q, list(imu.items()), qid))
                for qid, q in sorted(text.items())]
    assert gold_ranks == expected + expected


# ---------------------------------------------------------------------------
# zeroshot


def test_zeroshot_identity_and_tie_rule():
    a, b = _unit([1.0, 0.0]), _unit([0.0, 1.0])
    assert zeroshot_classify(a, [("first", a), ("second", b)]) == "first"
    # equidistant: first declared class wins
    q = _unit([1.0, 1.0])
    assert zeroshot_classify(q, [("x", a), ("y", b)]) == "x"
    assert zeroshot_classify(q, [("y", b), ("x", a)]) == "y"
    # many equal anchors (BLAS gemv scores some an ulp apart): still the first
    for dim in (16, 512):
        v = _unit(np.arange(1.0, dim + 1))
        for n in range(1, 40):
            assert zeroshot_classify(v, [(f"c{i}", v.copy()) for i in range(n)]) == "c0"


def test_zeroshot_matches_exhaustive_nearest_neighbor():
    rng = np.random.default_rng(6)
    anchors = [(f"c{i}", _unit(rng.standard_normal(6))) for i in range(5)]
    for _ in range(100):
        q = _unit(rng.standard_normal(6))
        scores = [float(np.dot(q, v)) for _, v in anchors]
        expected = anchors[int(np.argmax(scores))][0]
        assert zeroshot_classify(q, anchors) == expected


def test_zeroshot_empty_error():
    with pytest.raises(DataError):
        zeroshot_classify(_unit([1.0, 0.0]), [])


# ---------------------------------------------------------------------------
# linear head / probing


def _separable_embeddings(rng, n_per_class, classes, dim):
    emb, labels = [], []
    for c in range(classes):
        center = np.zeros(dim)
        center[c] = 1.0
        for _ in range(n_per_class):
            emb.append(_unit(center + 0.05 * rng.standard_normal(dim)))
            labels.append(c)
    return np.asarray(emb), np.asarray(labels)


def test_linear_head_fits_separable_fixture():
    rng = np.random.default_rng(7)
    emb, labels = _separable_embeddings(rng, 10, 3, 8)
    names = ["a", "b", "c"]
    head = fit_linear_head(emb, labels, names, ProbeConfig(epochs=100, learning_rate=0.5, seed=0))
    preds = head.predict(emb)
    acc = np.mean([p == names[l] for p, l in zip(preds, labels)])
    assert acc == 1.0


def test_zero_epoch_head_equals_init():
    rng = np.random.default_rng(8)
    emb, labels = _separable_embeddings(rng, 4, 2, 6)
    names = ["a", "b"]
    cfg = ProbeConfig(epochs=0, seed=3)
    head = fit_linear_head(emb, labels, names, cfg)
    ref = init_head(2, 6, names, seed=3)
    np.testing.assert_array_equal(head.weight, ref.weight)
    np.testing.assert_array_equal(head.bias, ref.bias)


@pytest.mark.parametrize("n_labels", [3, 5])
def test_fit_linear_head_rejects_labels_of_another_length(n_labels):
    with pytest.raises(ShapeMismatchError, match="labels of shape"):
        fit_linear_head(np.ones((4, 3)), np.arange(n_labels) % 2, ["a", "b"], ProbeConfig(epochs=1))


def test_probe_keeps_encoder_frozen():
    ds = synth_dataset(9, 8, 2, 16, 64, 0.05)
    params = init_params(SMALL_ENC, 0)
    before = params.checksum()
    train_probe(ds, params, SMALL_ENC, ProbeConfig(epochs=5, seed=0))
    assert params.checksum() == before


def test_probe_rejects_single_class():
    ds = synth_dataset(9, 8, 2, 16, 64, 0.05)
    only = ds.class_names[0]
    ds.labels = {k: only for k in ds.labels}
    with pytest.raises(DataError, match="single-class"):
        train_probe(ds, init_params(SMALL_ENC, 0), SMALL_ENC, ProbeConfig(epochs=1))


# ---------------------------------------------------------------------------
# fine-tune


def test_fine_tune_beats_or_matches_probe_on_fixture():
    ds = synth_dataset(10, 12, 3, 16, 64, 0.05)
    params = init_params(SMALL_ENC, 1)
    cfg = ProbeConfig(epochs=40, learning_rate=0.1, seed=0)
    head = train_probe(ds, params, SMALL_ENC, cfg)
    emb = encode_batch(ds.windows, params, SMALL_ENC)
    golds = [ds.labels[w.window_id] for w in ds.windows]
    probe_acc = classification_metrics(head.predict(emb), golds, ds.class_names)["accuracy"]

    ft_params, ft_head = fine_tune(ds, params, None, SMALL_ENC, cfg)
    ft_emb = encode_batch(ds.windows, ft_params, SMALL_ENC)
    ft_acc = classification_metrics(ft_head.predict(ft_emb), golds, ds.class_names)["accuracy"]
    assert ft_acc >= probe_acc


@pytest.mark.parametrize("field, value", [
    ("epochs", -1), ("batch_size", -3), ("seed", -1), ("learning_rate", -0.1),
    ("learning_rate", math.nan), ("learning_rate", math.inf), ("adagrad_eps", 0.0),
    ("adagrad_eps", math.nan),
])
def test_probe_config_refuses_a_value_it_cannot_use(field, value):
    with pytest.raises(DataError, match="probe config"):
        ProbeConfig(**{field: value})


def test_fine_tune_zero_lr_keeps_params():
    ds = synth_dataset(10, 8, 2, 16, 64, 0.05)
    params = init_params(SMALL_ENC, 2)
    before = params.checksum()
    cfg = ProbeConfig(epochs=2, learning_rate=0.0, seed=0)
    new_params, _ = fine_tune(ds, params, None, SMALL_ENC, cfg)
    assert params.checksum() == before  # input untouched
    assert new_params.checksum() == before  # zero step size changes nothing


def test_fine_tune_deterministic():
    ds = synth_dataset(10, 8, 2, 16, 64, 0.05)
    params = init_params(SMALL_ENC, 2)
    cfg = ProbeConfig(epochs=3, seed=4)
    a, _ = fine_tune(ds, params, None, SMALL_ENC, cfg)
    b, _ = fine_tune(ds, params, None, SMALL_ENC, cfg)
    assert a.checksum() == b.checksum()


# ---------------------------------------------------------------------------
# classification metrics


def test_metrics_perfect():
    out = classification_metrics(["a", "b"], ["a", "b"], ["a", "b"])
    assert out["accuracy"] == 1.0 and out["macro_f1"] == 1.0


def test_metrics_hand_confusion():
    out = classification_metrics(["a", "b", "b", "b"], ["a", "a", "b", "b"], ["a", "b"])
    assert out["accuracy"] == 0.75
    assert abs(out["per_class_f1"]["a"] - 2 / 3) < 1e-6
    assert abs(out["per_class_f1"]["b"] - 0.8) < 1e-6
    assert abs(out["macro_f1"] - (2 / 3 + 0.8) / 2) < 1e-5


def test_metrics_majority_baseline():
    out = classification_metrics(["a", "a", "a", "a"], ["a", "a", "b", "b"], ["a", "b"])
    assert out["accuracy"] == 0.5
    assert out["per_class_f1"]["b"] == 0.0


def test_metrics_absent_class_zero_f1():
    out = classification_metrics(["a", "a"], ["a", "a"], ["a", "b", "c"])
    assert out["per_class_f1"]["b"] == 0.0 and out["per_class_f1"]["c"] == 0.0
    assert abs(out["macro_f1"] - 1 / 3) < 1e-6


def test_metrics_length_mismatch():
    with pytest.raises(DataError):
        classification_metrics(["a"], ["a", "b"], ["a", "b"])


# ---------------------------------------------------------------------------
# head serialization


def test_head_round_trip(tmp_path):
    head = ClassifierHead(np.random.default_rng(0).standard_normal((3, 5)),
                          np.arange(3.0), ["x", "y", "z"])
    p = tmp_path / "head.bin"
    save_head(p, head)
    loaded = load_head(p)
    np.testing.assert_array_equal(loaded.weight, head.weight)
    np.testing.assert_array_equal(loaded.bias, head.bias)
    assert loaded.class_names == head.class_names


_HEAD = [("weight", np.zeros((2, 3))), ("bias", np.zeros(2))]


@pytest.mark.parametrize("header, arrays, message", [
    ({}, _HEAD, "'class_names' is missing or not a list of strings"),
    ({"class_names": "ab"}, _HEAD, "'class_names' is missing or not a list of strings"),
    ({"class_names": ["a", 1]}, _HEAD, "'class_names' is missing or not a list of strings"),
    ({"class_names": ["a", "b"]}, _HEAD[1:], "missing arrays ['weight']"),
    ({"class_names": ["a", "b"]}, [("weight", np.zeros(2)), _HEAD[1]], "array 'weight' has shape (2,)"),
    ({"class_names": ["a", "b"]}, _HEAD[:1], "missing arrays ['bias']"),
    ({"class_names": ["a", "b"]}, [_HEAD[0], ("bias", np.zeros(3))], "array 'bias' has shape (3,), expected (2,)"),
    ({"class_names": ["a", "b"]}, [*_HEAD, ("extra", np.zeros(1))], "unexpected arrays ['extra']"),
    ({"class_names": ["a"]}, _HEAD, "array 'weight' has shape (2, 3), expected (1, None)"),
], ids=["no-names", "string-names", "number-name", "no-weight", "1d-weight", "no-bias", "bias-length",
        "extra-array", "weight-rows"])
def test_load_head_refuses_a_malformed_head(tmp_path, header, arrays, message):
    p = tmp_path / "head.bin"
    write_container(p, evaluate.HEAD_MAGIC, evaluate.HEAD_VERSION, header, arrays)
    with pytest.raises(FormatError, match=re.escape(f"{p}: ") + ".*" + re.escape(message)):
        load_head(p)
