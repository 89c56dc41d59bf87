"""Evaluation surface: bidirectional retrieval metrics (Recall@k, MRR) and
the three activity-recognition protocols (zeroshot nearest-anchor, linear
probing on the frozen encoder, full fine-tuning).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .container import JSON_NAMES, check_config, checked_arrays, header_field, json_is, read_container, write_container
from .contrastive import softmax_cross_entropy
from .encoder import EncoderConfig, EncoderParams, encode_batch, encode_batch_on_tape
from .errors import CoverageError, DataError, FormatError, NumericError, ShapeMismatchError
from .signalio import ParallelDataset, WindowSet
from .train import AdagradState, adagrad_step, gradients, make_batches

HEAD_MAGIC = b"IMUH"
HEAD_VERSION = 1

RETRIEVAL_DIRECTIONS = ("text2imu", "imu2video", "video2imu", "imu2text")

_ADAGRAD_EPS = 1e-8  # the Adagrad denominator floor of probing and fine-tuning


# ---------------------------------------------------------------------------
# retrieval


@dataclass
class RetrievalResult:
    query_id: str
    gold_rank: int  # 1-based


def _inner_products(matrix: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Each row of `matrix` dotted with `query`: one (D,) vector, or each
    row of an (n, D) array, giving (n, rows) scores."""
    # vecdot, not a GEMM or gemv: BLAS sums rows in a different order
    # depending on where they fall in its blocks, so two equal rows can score
    # an ulp apart and break a tie rule; vecdot runs the same dot on every
    # (row, query) pair, so a pair gets the same bits in any layout or batch
    if np.shape(query)[-1:] != matrix.shape[1:]:
        raise ShapeMismatchError(f"query dim {np.shape(query)} does not match pool dim {matrix.shape[1]}")
    return np.vecdot(matrix, np.asarray(query)[..., None, :])


def _stack(vectors: list, what: str) -> np.ndarray:
    """Equal-length 1-D vectors as the rows of one float64 matrix."""
    try:
        matrix = np.array(vectors, dtype=np.float64)
    except ValueError as exc:
        raise ShapeMismatchError(f"{what} vectors of unequal shape: {exc}") from exc
    if matrix.ndim != 2:
        raise ShapeMismatchError(f"{what} vectors must be 1-D, got shape {matrix.shape[1:]}")
    return matrix


class Pool:
    """Exact inner-product search over an ``{id: vector}`` map, after FAISS's
    IndexFlatIP: the ids sorted ascending, their vectors the rows of one
    matrix, so a row's position is its tie-break order.
    """

    def __init__(self, vectors: dict[str, np.ndarray]):
        if not vectors:
            raise DataError("empty pool")
        self.ids = sorted(vectors)
        self.matrix = _stack([vectors[i] for i in self.ids], "pool")

    def rank(self, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row indices by descending score, ties by ascending id, and each
        row's score.
        """
        scores = _inner_products(self.matrix, query)
        return np.argsort(-scores, kind="stable"), scores


def rank_pool(above: int, tied_before: int, gold_id: str) -> RetrievalResult:
    """The gold id's 1-based position in `Pool.rank`'s order, counted, not
    sorted: 1 + `above`, the rows scoring above the gold, + `tied_before`,
    the rows of smaller id scoring the same."""
    return RetrievalResult(gold_id, 1 + int(above) + int(tied_before))


_POOL_BLOCK = 512  # pool rows gathered at a time: bounds the pool copy
_QUERY_BLOCK = 256  # queries per GEMM: with `_POOL_BLOCK`, bounds the score tile
_RESCORE_PAIRS = 1024  # (query, row) pairs re-scored per `vecdot`: bounds their copies
_U = 2.0 ** -53  # float64 unit roundoff
_TINY = 2.0 ** -1074  # smallest subnormal: twice what one underflowing product can lose
_SAFE_SCALE = 2.0 ** 1000  # below this no product or partial sum of a dot can overflow


def _norm_bounds(matrix: np.ndarray) -> np.ndarray:
    """An upper bound on each row's 2-norm, up to a (1 + D·u) factor, even
    where the squares underflow; inf where they overflow."""
    with np.errstate(over="ignore"):
        return np.sqrt(np.vecdot(matrix, matrix) + matrix.shape[1] * _TINY)


def _count_tile(queries: np.ndarray, rows: np.ndarray, gold: np.ndarray, band: np.ndarray,
                gold_cols: np.ndarray, above: np.ndarray, tied: np.ndarray) -> None:
    """Add to each query's `above` count the rows whose `_inner_products`
    score exceeds its gold score `gold`, and to `tied` the rows left of its
    gold column `gold_cols` that score the same: one GEMM, then the kernel
    on every pair whose GEMM score is not more than `band` from `gold`."""
    band = band[:, None]
    with np.errstate(over="ignore", invalid="ignore"):  # what overflows here is re-scored below
        diff = queries @ rows.T
        diff -= gold[:, None]
        above += np.count_nonzero(diff > band, axis=1)
        np.abs(diff, out=diff)
        qi, rj = np.divmod(np.flatnonzero(~(diff > band)), diff.shape[1])  # NaN and inf differences too
    for start in range(0, len(qi), _RESCORE_PAIRS):
        q, r = qi[start:start + _RESCORE_PAIRS], rj[start:start + _RESCORE_PAIRS]
        s, g = np.vecdot(rows[r], queries[q]), gold[q]  # the kernel of `_inner_products`, pair by pair
        above += np.bincount(q[s > g], minlength=len(gold))
        tied += np.bincount(q[(s == g) & (r < gold_cols[q])], minlength=len(gold))


def recall_at_k(results: list[RetrievalResult], k: int) -> float:
    if not results:
        raise DataError("recall_at_k: no results")
    if k < 1:
        raise DataError(f"recall_at_k: k must be >= 1, got {k}")
    return sum(1 for r in results if r.gold_rank <= k) / len(results)


def mrr(results: list[RetrievalResult]) -> float:
    if not results:
        raise DataError("mrr: no results")
    return sum(1.0 / r.gold_rank for r in results) / len(results)


def eval_retrieval(
    imu_embeddings: dict[str, np.ndarray],
    anchors: dict[str, np.ndarray],
    direction: str,
    ks: tuple[int, ...] = (1, 10, 50),
) -> dict:
    """Each query's gold rank in the pool (`rank_pool`), aggregated into R@k and MRR.

    Queries and pool are assigned by direction: ``text2imu``/``video2imu``
    use anchors as queries against the IMU-embedding pool; ``imu2video``/
    ``imu2text`` use IMU embeddings as queries against the anchor pool.
    Gold is the entry sharing the query's window id.

    The sorted pool is walked once, gathered `_POOL_BLOCK` rows at a time,
    and each pool block is scored against the sorted queries `_QUERY_BLOCK`
    at a time, one GEMM per tile, after FAISS's exhaustive inner-product
    search; neither the pool matrix nor a queries × pool score matrix is
    ever held. Each query's gold score `g` is computed once, up front, with
    the kernel of `_inner_products`, so it is the kernel's value bit for
    bit. A GEMM sums a dot product in its own order, so its score for a
    row can differ from the kernel's in the last bits. Any summation order
    of a D-term dot product is within γ_D·Σ|q_k·p_k| ≤ γ_D·‖q‖·‖p‖ of the
    exact value, γ_D = D·u/(1 - D·u) with u = 2⁻⁵³ (Higham, *Accuracy and
    Stability of Numerical Algorithms*, §3.1), plus D·2⁻¹⁰⁷⁴ where products
    underflow. A row's GEMM score and its kernel score therefore differ by
    at most half of ``band = 4·(D+2)·(u·‖q‖·max_j‖p_j‖ + 2⁻¹⁰⁷⁴)``, the max
    taken over the tile's own pool block (every row's norm is at most it).
    A row whose GEMM score is more than `band` from `g` compares with the
    gold as its kernel score would, and is counted as above or below from
    the GEMM alone. Every other pair, the gold's own among them, and every
    NaN or inf difference is re-scored with the kernel, `_RESCORE_PAIRS`
    pairs at a time, and compared with `g` exactly: above if greater, tied
    if equal and of smaller id (an exact tie is always such a pair). The
    band is infinite where ‖q‖·max‖p‖ is large enough for a dot to
    overflow. `rank_pool` then turns each query's two counts into its rank,
    bit for bit the count on the per-query kernel's scores.
    """
    if direction not in RETRIEVAL_DIRECTIONS:
        raise DataError(f"direction must be one of {RETRIEVAL_DIRECTIONS}, got {direction!r}")
    if direction.startswith("imu"):
        queries, pool_map = imu_embeddings, anchors
    else:
        queries, pool_map = anchors, imu_embeddings
    missing = sorted(qid for qid in queries if qid not in pool_map)
    if missing:
        raise CoverageError(
            f"eval_retrieval: {len(missing)} query ids missing from pool: {', '.join(missing[:20])}",
            missing,
        )
    if not pool_map:
        raise DataError("empty pool")
    if not queries:
        raise DataError("eval_retrieval: no queries")
    pool_ids, qids = sorted(pool_map), sorted(queries)
    query = _stack([queries[qid] for qid in qids], "query")
    dim = query.shape[1]
    gold = np.empty(len(qids))
    for start in range(0, len(qids), _QUERY_BLOCK):
        block = slice(start, start + _QUERY_BLOCK)
        golds = _stack([pool_map[qid] for qid in qids[block]], "pool")
        if golds.shape[1] != dim:
            raise ShapeMismatchError(f"query dim {dim} does not match pool dim {golds.shape[1]}")
        gold[block] = np.vecdot(golds, query[block])  # the kernel of `_inner_products`
    nan = np.flatnonzero(np.isnan(gold))
    if nan.size:  # NaN compares false with everything: the count would read rank 1
        raise NumericError(f"eval_retrieval: gold id {qids[nan[0]]!r} scores NaN")
    gold_rows = np.array([bisect_left(pool_ids, qid) for qid in qids])
    query_norms = _norm_bounds(query)
    above = np.zeros(len(qids), dtype=np.int64)
    tied = np.zeros(len(qids), dtype=np.int64)
    for start in range(0, len(pool_ids), _POOL_BLOCK):
        rows = _stack([pool_map[pid] for pid in pool_ids[start:start + _POOL_BLOCK]], "pool")
        if rows.shape[1] != dim:
            raise ShapeMismatchError(f"query dim {dim} does not match pool dim {rows.shape[1]}")
        with np.errstate(over="ignore"):  # NaN rows are re-scored anyway
            scale = query_norms * np.fmax.reduce(_norm_bounds(rows))
        band = np.where(scale < _SAFE_SCALE, 4 * (dim + 2) * (_U * scale + _TINY), np.inf)
        for q0 in range(0, len(qids), _QUERY_BLOCK):
            block = slice(q0, q0 + _QUERY_BLOCK)
            _count_tile(query[block], rows, gold[block], band[block], gold_rows[block] - start,
                        above[block], tied[block])
    results = [rank_pool(a, t, qid) for a, t, qid in zip(above.tolist(), tied.tolist(), qids)]
    out = {"direction": direction}
    for k in ks:
        out[f"R@{k}"] = round(recall_at_k(results, k), 6)
    out["MRR"] = round(mrr(results), 6)
    out["pool_size"] = len(pool_ids)
    out["n_queries"] = len(results)
    out["flags"] = ["pool_lt_50"] if len(pool_ids) < 50 else []
    return out


# ---------------------------------------------------------------------------
# classification protocols


@dataclass(eq=False)
class ClassifierHead:
    weight: np.ndarray  # (classes, D)
    bias: np.ndarray  # (classes,)
    class_names: list[str]

    def __post_init__(self):
        if not json_is(self.class_names, list[str]):
            raise DataError(f"classifier head: class names are not {JSON_NAMES[list[str]]}: {self.class_names!r}")
        if repeated := [c for c, n in Counter(self.class_names).items() if n > 1]:
            raise DataError(f"classifier head: class {repeated[0]!r} declared twice")
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.shape[0] != len(self.class_names) or self.bias.shape != (self.weight.shape[0],):
            raise ShapeMismatchError(
                f"classifier head: weight {self.weight.shape} / bias {self.bias.shape} "
                f"do not match {len(self.class_names)} classes"
            )

    def predict(self, embeddings: np.ndarray, ids: list[str] | None = None) -> list[str]:
        """The class of each row's largest logit, ties to the first declared class; refuses
        (NumericError naming the row's window id in `ids`, else its index) a row with a NaN or
        ±inf logit, as argmax would pick the first NaN. Logits are `_inner_products`' exact
        kernel plus the bias, so a row's class does not depend on the batch it is in."""
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            logits = _inner_products(self.weight, np.atleast_2d(embeddings)) + self.bias
        bad = np.flatnonzero(~np.isfinite(logits).all(axis=1))
        if bad.size:
            row = f"row {bad[0]}" if ids is None else f"window {ids[bad[0]]!r}"
            raise NumericError(f"classifier head: {row} has a non-finite logit")
        return [self.class_names[i] for i in np.argmax(logits, axis=1)]


@dataclass
class ProbeConfig:
    epochs: int = 100
    learning_rate: float = 0.1
    batch_size: int = 0  # 0 = full batch
    seed: int = 0

    def __post_init__(self):
        check_config(self, "probe config")
        if min(self.epochs, self.batch_size, self.seed, self.learning_rate) < 0:
            raise DataError(f"probe config: epochs, batch_size, seed and learning_rate must be >= 0; got {self}")


def zeroshot_head(class_anchors: list[tuple[str, np.ndarray]]) -> ClassifierHead:
    """The zero-shot classifier, after CLIP: a head whose rows are the class
    anchors in declared order and whose bias is 0."""
    if not class_anchors:
        raise DataError("zeroshot head: no class anchors")
    return ClassifierHead(_stack([vec for _, vec in class_anchors], "class anchor"),
                          np.zeros(len(class_anchors)), [name for name, _ in class_anchors])


def zeroshot_classify(
    imu_embedding: np.ndarray, class_anchors: list[tuple[str, np.ndarray]], window_id: str | None = None
) -> str:
    """Nearest class anchor by inner product: `zeroshot_head`'s prediction
    for one embedding, scored with the exact kernel, so it is the class
    that embedding gets in any batch; ties keep the first declared class
    and a non-finite score is refused (naming `window_id` if given)."""
    return zeroshot_head(class_anchors).predict(imu_embedding, None if window_id is None else [window_id])[0]


def label_indices(dataset: ParallelDataset, windows: WindowSet) -> np.ndarray:
    index = {name: i for i, name in enumerate(dataset.class_names)}
    return np.asarray([index[dataset.labels[wid]] for wid in windows.ids], dtype=np.int64)


def _labeled_windows(dataset: ParallelDataset) -> WindowSet:
    if not dataset.labels or not dataset.class_names:
        raise DataError("dataset has no labels")
    windows = dataset.windows.having(dataset.labels)
    if not windows:
        raise DataError("dataset has no labeled windows")
    for wid in windows.ids:
        if dataset.labels[wid] not in dataset.class_names:
            raise DataError(f"window {wid!r}: label {dataset.labels[wid]!r} is not a declared class")
    return windows


def init_head(class_names: list[str], dim: int, seed: int) -> ClassifierHead:
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(dim)
    return ClassifierHead(
        rng.uniform(-bound, bound, size=(len(class_names), dim)), np.zeros(len(class_names)), list(class_names)
    )


def _fit_head(
    head: ClassifierHead,
    features,
    labels: np.ndarray,
    config: ProbeConfig,
    encoder_tensors: dict[str, Tensor],
) -> ClassifierHead:
    """Adagrad on the softmax cross-entropy of a copy of `head` and, in
    place, `encoder_tensors`; `features(tape, batch)` is the head's (B, D)
    input for a batch of row indices. Returns the fitted head; refuses
    labels of fewer than two classes."""
    present = np.unique(labels).tolist()
    if len(present) < 2:
        name_of = dict(enumerate(head.class_names))
        raise DataError(f"single-class dataset (only {[name_of.get(i, i) for i in present]}); need >= 2 classes")
    w = Tensor(head.weight.copy(), requires_grad=True)
    b = Tensor(head.bias.copy(), requires_grad=True)
    named = {**encoder_tensors, "head.w": w, "head.b": b}
    state = AdagradState()
    n = len(labels)
    batch_size = min(config.batch_size or n, n)
    for epoch in range(config.epochs):
        for batch in make_batches(n, batch_size, config.seed, epoch):
            tape = Tape()
            with np.errstate(over="ignore", invalid="ignore"):  # `gradients` refuses a non-finite loss
                logits = ad.linear(tape, features(tape, batch), w, b)
                loss = softmax_cross_entropy(tape, logits, labels[batch])
            adagrad_step(named, gradients(tape, loss, named), state, config.learning_rate, _ADAGRAD_EPS)
    return ClassifierHead(w.data, b.data, list(head.class_names))


def fit_linear_head(
    embeddings: np.ndarray,
    label_indices: np.ndarray,
    class_names: list[str],
    config: ProbeConfig,
) -> ClassifierHead:
    """Train a softmax linear head with Adagrad on fixed embeddings."""
    emb = np.asarray(embeddings, dtype=np.float64)
    n, dim = emb.shape
    if np.shape(label_indices) != (n,):
        raise ShapeMismatchError(f"fit_linear_head: labels of shape {np.shape(label_indices)} for {n} rows")
    head = init_head(class_names, dim, config.seed)
    return _fit_head(head, lambda tape, batch: Tensor(emb[batch]), label_indices, config, {})


def train_probe(
    dataset: ParallelDataset,
    params: EncoderParams,
    encoder_config: EncoderConfig,
    config: ProbeConfig,
) -> ClassifierHead:
    """Probing: the encoder stays frozen; only the linear head is trained."""
    windows = _labeled_windows(dataset)
    emb = encode_batch(windows, params, encoder_config)
    return fit_linear_head(emb, label_indices(dataset, windows), dataset.class_names, config)


def fine_tune(
    dataset: ParallelDataset,
    params: EncoderParams,
    head: ClassifierHead | None,
    encoder_config: EncoderConfig,
    config: ProbeConfig,
) -> tuple[EncoderParams, ClassifierHead]:
    """Joint supervised training of encoder and head; the inputs are left
    untouched and updated copies are returned.
    """
    windows = _labeled_windows(dataset)
    params = params.copy()
    if head is None:
        head = init_head(dataset.class_names, encoder_config.embed_dim, config.seed)

    def features(tape, batch):
        return encode_batch_on_tape(tape, windows.signals[batch], params, encoder_config)

    head = _fit_head(head, features, label_indices(dataset, windows), config, params.named())
    params.assert_finite()
    return params, head


def classification_metrics(
    predictions: list[str], golds: list[str], class_names: list[str]
) -> dict:
    """Accuracy and macro-F1 (unweighted mean of per-class F1; classes
    absent from both predictions and golds contribute 0).
    """
    if len(predictions) != len(golds):
        raise DataError(f"{len(predictions)} predictions vs {len(golds)} golds")
    if not predictions:
        raise DataError("classification_metrics: empty input")
    hits = Counter(p for p, g in zip(predictions, golds) if p == g)
    denoms = Counter(predictions) + Counter(golds)  # per class, 2·tp + fp + fn
    per_class = {c: 2 * hits[c] / denoms[c] if denoms[c] else 0.0 for c in class_names}
    macro = sum(per_class.values()) / len(class_names)
    return {
        "accuracy": round(hits.total() / len(golds), 6),
        "macro_f1": round(macro, 6),
        "per_class_f1": {c: round(v, 6) for c, v in per_class.items()},
        "n": len(golds),
    }


# ---------------------------------------------------------------------------
# head serialization (used by the CLI run directories)


def save_head(path, head: ClassifierHead) -> None:
    write_container(path, HEAD_MAGIC, HEAD_VERSION,
                    {"kind": "classifier-head", "class_names": head.class_names},
                    [("weight", head.weight), ("bias", head.bias)])


def load_head(path) -> ClassifierHead:
    header, arrays = read_container(path, HEAD_MAGIC, HEAD_VERSION)
    names = header_field(path, header, "class_names", list[str])
    checked_arrays(path, arrays, {"weight": (len(names), None), "bias": (len(names),)})
    try:
        return ClassifierHead(arrays["weight"], arrays["bias"], names)
    except DataError as exc:  # a repeated class name
        raise FormatError(f"{path}: {exc}") from exc
