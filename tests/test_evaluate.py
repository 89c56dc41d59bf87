"""Retrieval metrics, classification protocols, and their oracles."""

import math
import re
import tracemalloc

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
    conv_channels=(8,), conv_kernels=(7,), conv_strides=(2,),
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
# rank_pool: gold ranks as `eval_retrieval` passes them through it


def _recorded_ranks(pool_map, queries, ks=(1, 10, 50)):
    """`eval_retrieval(..., "text2imu")` and the gold ranks it passed through `rank_pool`."""
    gold_ranks = []

    def recording(above, tied_before, gold_id):
        result = rank_pool(above, tied_before, gold_id)
        gold_ranks.append((gold_id, result.gold_rank))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluate, "rank_pool", recording)
        return eval_retrieval(pool_map, queries, "text2imu", ks), gold_ranks


def _gold_rank(pool_map, query, gold_id):
    """The gold rank of one query through `eval_retrieval`."""
    return _recorded_ranks(pool_map, {gold_id: query})[1][0][1]


def test_rank_pool_self_similarity_first():
    q = _unit([1.0, 0.0])
    vectors = {"gold": q, "other": _unit([0.0, 1.0])}
    assert _gold_rank(vectors, q, "gold") == 1
    pool = Pool(vectors)
    assert pool.ids[pool.rank(q)[0][0]] == "gold"


def test_rank_pool_tie_breaks_by_id():
    v = _unit([1.0, 1.0])
    vectors = {"c": v.copy(), "a": v.copy(), "b": v.copy()}
    pool = Pool(vectors)
    assert [pool.ids[i] for i in pool.rank(v)[0]] == ["a", "b", "c"]
    assert _gold_rank(vectors, v, "b") == 2


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
        assert [pool.ids[i] for i in order if pool.ids[i] != "other"] == sorted(vectors)[:n]
        assert _gold_rank(vectors, q, "id00") == 1 + (scores[n] > scores[0])


def test_rank_pool_hand_order():
    q = _unit([1.0, 0.0])
    vectors = {"a": _unit([0.9, np.sqrt(1 - 0.81)]), "b": _unit([0.5, np.sqrt(0.75)])}
    assert _gold_rank(vectors, q, "b") == 2


def test_rank_pool_missing_gold():
    vectors = {"a": _unit([1.0, 0.0])}
    for gold in ("zzz", "0", "aa"):
        with pytest.raises(CoverageError):
            _gold_rank(vectors, _unit([1.0, 0.0]), gold)


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
    # many exact ties: the counted rank must be the gold's place in
    # Pool.rank's stable ascending-id order, for every gold
    rng = np.random.default_rng(6)
    for dim in (3, 17, 512):
        base = [_unit(rng.standard_normal(dim)) for _ in range(4)] + [np.zeros(dim)]
        vectors = {f"id{i:02d}": base[int(rng.integers(len(base)))].copy() for i in range(37)}
        pool = Pool(vectors)
        for q in (_unit(rng.standard_normal(dim)), base[0], np.zeros(dim)):
            order = pool.rank(q)[0].tolist()
            ranks = _recorded_ranks(vectors, {gold: q for gold in vectors})[1]
            assert ranks == [(gold, 1 + order.index(pool.ids.index(gold))) for gold in sorted(vectors)]


def test_rank_pool_refuses_a_nan_gold_score_and_ranks_nan_rows_last():
    v = {"a": _unit([1.0, 0.0]), "b": np.array([np.nan, 0.0]), "c": _unit([1.0, 1.0]),
         "d": _unit([1.0, 0.0])}
    pool, q = Pool(v), _unit([1.0, 0.0])
    order = pool.rank(q)[0].tolist()
    assert [pool.ids[i] for i in order] == ["a", "d", "c", "b"]
    assert _recorded_ranks(v, {g: q for g in "acd"})[1] == [("a", 1), ("c", 3), ("d", 2)]
    with pytest.raises(NumericError, match="'b' scores NaN"):
        _gold_rank(v, q, "b")


def test_rank_pool_matches_brute_force_oracle():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 65))
        d = int(rng.integers(2, 9))
        pool = [(f"id{i:03d}", _unit(rng.standard_normal(d))) for i in range(n)]
        q = _unit(rng.standard_normal(d))
        gold = f"id{int(rng.integers(n)):03d}"
        assert _gold_rank(dict(pool), q, gold) == brute_force_rank(q, pool, gold)
        ranked = Pool(dict(pool))
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


def test_eval_retrieval_repeat_calls_match_brute_force():
    rng = np.random.default_rng(5)
    text = {f"w{i}": _unit(rng.standard_normal(8)) for i in range(40)}
    imu = {k: _unit(v + 0.3 * rng.standard_normal(8)) for k, v in text.items()}
    first, gold_ranks = _recorded_ranks(imu, text)
    second, again = _recorded_ranks(imu, text)
    assert first == second
    expected = [(qid, brute_force_rank(q, list(imu.items()), qid))
                for qid, q in sorted(text.items())]
    assert gold_ranks == again == expected


def _kernel_rank(pool, query, gold_id):
    """The per-query oracle: the count on `_inner_products`' scores for `query`."""
    s = evaluate._inner_products(pool.matrix, query)
    row = pool.ids.index(gold_id)
    return 1 + int(np.sum(s > s[row])) + int(np.sum(s[:row] == s[row]))


@st.composite
def _tie_heavy_retrieval(draw):
    """A pool full of exact and near ties (duplicate rows, rows one
    nextafter apart, zero rows) with NaN rows and rows scaled by 1e+-150,
    and a query for every id whose row is not NaN; at least 8 rows, so that
    with the test's tiles every case spans several on both axes."""
    dim = draw(st.sampled_from([1, 2, 3, 17, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.standard_normal((draw(st.integers(1, 4)), dim))
    kinds = sorted(draw(st.sets(st.sampled_from(["dup", "nextafter", "zero", "fresh"]), min_size=1)))
    scales = sorted(draw(st.sets(st.sampled_from([1e-150, 1.0, 1e150]), min_size=1)))
    n = draw(st.integers(8, 40))
    pool, queries = {}, {}
    for i in range(n):
        kind = kinds[rng.integers(len(kinds))]
        row = rng.standard_normal(dim) if kind == "fresh" else base[rng.integers(len(base))].copy()
        row *= 0.0 if kind == "zero" else scales[rng.integers(len(scales))]
        if kind == "nextafter":
            row = np.nextafter(row, rng.choice([-np.inf, np.inf], size=dim))
        pool[f"id{i:03d}"] = row
        q = base[rng.integers(len(base))] if rng.random() < 0.5 else rng.standard_normal(dim)
        queries[f"id{i:03d}"] = q * scales[rng.integers(len(scales))]
    for i in rng.choice(n, size=min(n - 1, draw(st.integers(0, 3))), replace=False):
        pool[f"id{i:03d}"][rng.integers(dim):] = np.nan
        del queries[f"id{i:03d}"]
    return queries, pool


@settings(max_examples=60, deadline=None)
@given(case=_tie_heavy_retrieval())
def test_eval_retrieval_ranks_equal_the_per_query_kernel_count(case):
    queries, pool_map = case
    with pytest.MonkeyPatch.context() as mp:  # co-prime tiles, and re-scoring chunks that cut tiles
        mp.setattr(evaluate, "_POOL_BLOCK", 7)
        mp.setattr(evaluate, "_QUERY_BLOCK", 3)
        mp.setattr(evaluate, "_RESCORE_PAIRS", 5)
        out, gold_ranks = _recorded_ranks(pool_map, queries, ks=(1, 2, 10))
    pool = Pool(pool_map)
    expected = [(qid, _kernel_rank(pool, queries[qid], qid)) for qid in sorted(queries)]
    assert gold_ranks == expected
    results = [RetrievalResult(qid, rank) for qid, rank in expected]
    assert out["MRR"] == round(mrr(results), 6)
    assert all(out[f"R@{k}"] == round(recall_at_k(results, k), 6) for k in (1, 2, 10))


def test_eval_retrieval_ranks_equal_the_kernel_count_where_dots_overflow():
    # inf components and 1e200-scaled rows and queries: scores overflow to
    # +-inf or NaN, depending on the summation order
    rng = np.random.default_rng(8)
    base = rng.standard_normal((3, 17))
    pool, queries = {}, {}
    for i in range(90):
        row = base[i % 3] * (1e200 if i % 5 == 1 else 1.0)
        if i % 7 == 2:
            row[i % 17] = np.inf
        pool[f"id{i:02d}"] = row
        queries[f"id{i:02d}"] = base[i % 2] * (1e200 if i % 5 not in (1, 2) else 1.0)
    ranked = Pool(pool)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = [(qid, _kernel_rank(ranked, queries[qid], qid)) for qid in sorted(queries)]
        assert _recorded_ranks(pool, queries)[1] == expected


def _traced_peak(f):
    """`f()` and the peak bytes Python and numpy allocated while it ran."""
    tracemalloc.start()
    try:
        return f(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_eval_retrieval_rescores_a_pool_of_duplicates_in_bounded_memory():
    # every (query, row) pair ties with the gold, so every pair is re-scored
    v = _unit(np.random.default_rng(9).standard_normal(64))
    pool = {f"id{i:04d}": v.copy() for i in range(2000)}
    queries = {f"id{i:04d}": v for i in range(0, 2000, 40)}
    (_, gold_ranks), peak = _traced_peak(lambda: _recorded_ranks(pool, queries))
    assert gold_ranks == [(f"id{i:04d}", i + 1) for i in range(0, 2000, 40)]
    assert peak < 16 * 2**20


def test_eval_retrieval_never_holds_the_pool_matrix():
    rng = np.random.default_rng(10)
    matrix = rng.standard_normal((20_000, 64))
    pool = {f"id{i:05d}": row for i, row in enumerate(matrix)}
    queries = {f"id{i:05d}": pool[f"id{i:05d}"] for i in range(0, 20_000, 2_000)}
    out, peak = _traced_peak(lambda: eval_retrieval(pool, queries, "text2imu"))
    assert out["n_queries"] == 10 and out["pool_size"] == 20_000
    assert peak < matrix.nbytes / 4


def test_eval_retrieval_refuses_misshapen_queries_and_a_nan_gold():
    pool = {"a": _unit([1.0, 0.0]), "b": _unit([1.0, 1.0]), "c": np.array([np.nan, 0.0])}
    for queries in ({"a": _unit([1.0, 0.0, 0.0])},  # another dimension
                    {"a": _unit([1.0, 0.0]), "b": _unit([1.0, 0.0, 1.0])},  # ragged
                    {"a": _unit([[1.0, 0.0]])},  # not 1-D
                    {"a": np.float64(1.0)}):
        with pytest.raises(ShapeMismatchError):
            eval_retrieval(pool, queries, "text2imu")
    with pytest.raises(NumericError, match="'c' scores NaN"):
        eval_retrieval(pool, {"a": _unit([1.0, 0.0]), "c": _unit([1.0, 0.0])}, "text2imu")


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


def test_zeroshot_refuses_a_nan_score():
    # argmax returns the first NaN, so a NaN embedding would read as the first class
    anchors = [("a", _unit([1.0, 0.0])), ("b", _unit([0.0, 1.0]))]
    with pytest.raises(NumericError, match=r"^classifier head: row 0 has a non-finite logit$"):
        zeroshot_classify(np.array([np.nan, 1.0]), anchors)
    with pytest.raises(NumericError, match=r"^classifier head: window 'w:7' has a non-finite logit$"):
        zeroshot_classify(np.array([np.nan, 1.0]), anchors, "w:7")


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
    ref = init_head(names, 6, seed=3)
    np.testing.assert_array_equal(head.weight, ref.weight)
    np.testing.assert_array_equal(head.bias, ref.bias)


@pytest.mark.parametrize("n_labels", [3, 5])
def test_fit_linear_head_rejects_labels_of_another_length(n_labels):
    with pytest.raises(ShapeMismatchError, match="labels of shape"):
        fit_linear_head(np.ones((4, 3)), np.arange(n_labels) % 2, ["a", "b"], ProbeConfig(epochs=1))


def test_fit_linear_head_refuses_single_class_labels():
    with pytest.raises(DataError, match=r"single-class dataset \(only \['b'\]\)"):
        fit_linear_head(np.ones((4, 3)), np.ones(4, dtype=np.int64), ["a", "b"], ProbeConfig(epochs=1))
    with pytest.raises(DataError, match=r"single-class dataset \(only \[\]\)"):
        fit_linear_head(np.ones((0, 3)), np.ones(0, dtype=np.int64), ["a", "b"], ProbeConfig(epochs=1))


def test_fine_tune_rejects_single_class():
    ds = synth_dataset(9, 8, 2, 16, 64, 0.05)
    ds.labels = {k: ds.class_names[1] for k in ds.labels}
    with pytest.raises(DataError, match="single-class"):
        fine_tune(ds, init_params(SMALL_ENC, 0), None, SMALL_ENC, ProbeConfig(epochs=1))


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


@pytest.mark.parametrize("protocol", [train_probe, lambda *a: fine_tune(a[0], a[1], None, *a[2:])],
                         ids=["probe", "finetune"])
def test_a_label_outside_the_declared_classes_is_refused_naming_its_window(protocol):
    ds = synth_dataset(9, 8, 2, 16, 64, 0.05)
    ds.labels["synth-0003:0"] = "flying"
    with pytest.raises(DataError, match=r"^window 'synth-0003:0': label 'flying' is not a declared class$"):
        protocol(ds, init_params(SMALL_ENC, 0), SMALL_ENC, ProbeConfig(epochs=1))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e308])
def test_predict_refuses_a_row_with_a_non_finite_logit(bad):
    head = ClassifierHead(np.array([[1.0, 1.0], [0.0, 2.0]]), np.zeros(2), ["a", "b"])
    assert head.predict(np.array([[0.9, 0.1], [0.1, 0.9]])) == ["a", "b"]
    with pytest.raises(NumericError, match=r"^classifier head: row 1 has a non-finite logit$"):
        head.predict(np.array([[0.9, 0.1], [bad, 1e308]]))  # 1e308 + 1e308 overflows
    with pytest.raises(NumericError, match=r"^classifier head: window 'w:1' has a non-finite logit$"):
        head.predict(np.array([[0.9, 0.1], [bad, 1e308]]), ["w:0", "w:1"])


def test_a_near_tie_predicts_the_first_class_in_a_batch_of_any_size():
    # row 1 is shifted until the exact kernel ties classes 0 and 1 for window 0;
    # a GEMM sums each logit in an order that depends on the batch, so there
    # the tie went either way
    tied = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        weight, emb = rng.standard_normal((3, 512)), rng.standard_normal((64, 512))
        order = np.argsort(np.abs(emb[0]))
        for j in [order[-1], *order[:20]]:  # one coarse Newton step, then fine ones
            gap = np.subtract(*evaluate._inner_products(weight[:2], emb[0]))
            if gap == 0:
                break
            weight[1, j] += gap / emb[0, j]
        else:
            continue
        tied += 1
        head = ClassifierHead(weight, np.array([0.0, 0.0, -1e9]), ["a", "b", "c"])
        for m in (2, 3, 5, 16, 64):
            assert head.predict(emb[:m])[0] == head.predict(emb[:1])[0], f"seed {seed}, batch of {m}"
        assert head.predict(emb[:1]) == ["a"]
    assert tied >= 10


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
    ("learning_rate", math.nan), ("learning_rate", math.inf), ("epochs", 1.5),
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


def _per_class_three_pass_metrics(predictions, golds, class_names):
    """The per-class loop `classification_metrics` replaced: three passes
    over the pairs for each class."""
    correct = sum(1 for p, g in zip(predictions, golds) if p == g)
    per_class = {}
    for c in class_names:
        tp = sum(1 for p, g in zip(predictions, golds) if p == c and g == c)
        fp = sum(1 for p, g in zip(predictions, golds) if p == c and g != c)
        fn = sum(1 for p, g in zip(predictions, golds) if p != c and g == c)
        denom = 2 * tp + fp + fn
        per_class[c] = 2 * tp / denom if denom else 0.0
    macro = sum(per_class.values()) / len(class_names)
    return {
        "accuracy": round(correct / len(golds), 6),
        "macro_f1": round(macro, 6),
        "per_class_f1": {c: round(v, 6) for c, v in per_class.items()},
        "n": len(golds),
    }


def test_metrics_match_the_per_class_three_pass_loop():
    rng = np.random.default_rng(17)
    for _ in range(300):
        class_names = [str(c) for c in rng.permutation(list("abcde"))[: rng.integers(1, 6)]]
        drawn = class_names + ["f"]  # "f" is a prediction or gold outside the declared classes
        n = int(rng.integers(1, 40))
        predictions = [drawn[i] for i in rng.integers(0, len(drawn), n)]
        golds = [drawn[i] for i in rng.integers(0, len(drawn), n)]
        assert (classification_metrics(predictions, golds, class_names)
                == _per_class_three_pass_metrics(predictions, golds, class_names))


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
    ({"class_names": ["a", "a"]}, _HEAD, "classifier head: class 'a' declared twice"),
], ids=["no-names", "string-names", "number-name", "no-weight", "1d-weight", "no-bias", "bias-length",
        "extra-array", "weight-rows", "repeated-name"])
def test_load_head_refuses_a_malformed_head(tmp_path, header, arrays, message):
    p = tmp_path / "head.bin"
    write_container(p, evaluate.HEAD_MAGIC, evaluate.HEAD_VERSION, header, arrays)
    with pytest.raises(FormatError, match=re.escape(f"{p}: ") + ".*" + re.escape(message)):
        load_head(p)


@pytest.mark.parametrize("names, message", [
    ([1, 2], "classifier head: class names are not a list of strings: [1, 2]"),
    (("a", "b"), "classifier head: class names are not a list of strings: ('a', 'b')"),
    (["a", "b", "a"], "classifier head: class 'a' declared twice"),
], ids=["numbers", "tuple", "repeated"])
def test_a_head_its_loader_would_refuse_cannot_be_built_so_none_is_saved(tmp_path, names, message):
    p = tmp_path / "head.bin"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        save_head(p, ClassifierHead(np.zeros((len(names), 3)), np.zeros(len(names)), names))
    assert not p.exists()
