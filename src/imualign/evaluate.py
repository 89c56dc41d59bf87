"""Evaluation surface: bidirectional retrieval metrics (Recall@k, MRR) and
the three activity-recognition protocols (zeroshot nearest-anchor, linear
probing on the frozen encoder, full fine-tuning).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .container import checked_arrays, header_field, read_container, write_container
from .encoder import EncoderConfig, EncoderParams, encode_batch, encode_batch_on_tape
from .errors import CoverageError, DataError, NumericError, ShapeMismatchError
from .signalio import ParallelDataset
from .train import AdagradState, adagrad_step, gradients, make_batches

HEAD_MAGIC = b"IMUH"
HEAD_VERSION = 1

RETRIEVAL_DIRECTIONS = ("text2imu", "imu2video", "video2imu", "imu2text")


# ---------------------------------------------------------------------------
# retrieval


@dataclass
class RetrievalResult:
    query_id: str
    gold_rank: int  # 1-based


def _inner_products(matrix: np.ndarray, query: np.ndarray) -> np.ndarray:
    # vecdot, not `matrix @ query`: BLAS gemv sums rows in a different order
    # depending on where they fall in its blocks, so two equal rows can score
    # an ulp apart and break a tie rule; vecdot runs the same dot on every row
    if np.shape(query) != matrix.shape[1:]:
        raise ShapeMismatchError(f"query dim {np.shape(query)} does not match pool dim {matrix.shape[1]}")
    return np.vecdot(matrix, query)


class Pool:
    """Exact inner-product search over an ``{id: vector}`` map, after FAISS's
    IndexFlatIP: the ids sorted ascending, their vectors the rows of one
    matrix, so a row's position is its tie-break order.
    """

    def __init__(self, vectors: dict[str, np.ndarray]):
        if not vectors:
            raise DataError("empty pool")
        self.ids = sorted(vectors)
        try:
            self.matrix = np.array([vectors[i] for i in self.ids], dtype=np.float64)
        except ValueError as exc:
            raise ShapeMismatchError(f"pool vectors of unequal shape: {exc}") from exc
        if self.matrix.ndim != 2:
            raise ShapeMismatchError(f"pool vectors must be 1-D, got shape {self.matrix.shape[1:]}")

    def rank(self, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row indices by descending score, ties by ascending id, and each
        row's score.
        """
        scores = _inner_products(self.matrix, query)
        return np.argsort(-scores, kind="stable"), scores


def rank_pool(query: np.ndarray, pool: Pool, gold_id: str) -> RetrievalResult:
    """The gold id's 1-based position in `Pool.rank`'s order, counted, not sorted."""
    row = bisect_left(pool.ids, gold_id)
    if row == len(pool.ids) or pool.ids[row] != gold_id:
        raise CoverageError(f"rank_pool: gold id {gold_id!r} not in pool", [gold_id])
    s = _inner_products(pool.matrix, query)
    if np.isnan(s[row]):  # NaN compares false with everything: the count would read rank 1
        raise NumericError(f"rank_pool: gold id {gold_id!r} scores NaN")
    rank = 1 + np.count_nonzero(s > s[row]) + np.count_nonzero(s[:row] == s[row])
    return RetrievalResult(gold_id, int(rank))


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
    """
    if direction not in RETRIEVAL_DIRECTIONS:
        raise DataError(f"direction must be one of {RETRIEVAL_DIRECTIONS}, got {direction!r}")
    if direction.startswith("imu"):
        queries, pool_map = imu_embeddings, anchors
    else:
        queries, pool_map = anchors, imu_embeddings
    missing = sorted(set(queries) - set(pool_map))
    if missing:
        raise CoverageError(
            f"eval_retrieval: {len(missing)} query ids missing from pool: {', '.join(missing[:20])}",
            missing,
        )
    pool = Pool(pool_map)
    results = [rank_pool(queries[qid], pool, qid) for qid in sorted(queries)]
    out = {"direction": direction}
    for k in ks:
        out[f"R@{k}"] = round(recall_at_k(results, k), 6)
    out["MRR"] = round(mrr(results), 6)
    out["pool_size"] = len(pool.ids)
    out["n_queries"] = len(results)
    out["flags"] = ["pool_lt_50"] if len(pool.ids) < 50 else []
    return out


# ---------------------------------------------------------------------------
# classification protocols


@dataclass
class ClassifierHead:
    weight: np.ndarray  # (classes, D)
    bias: np.ndarray  # (classes,)
    class_names: list[str]

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.shape[0] != len(self.class_names) or self.bias.shape != (self.weight.shape[0],):
            raise ShapeMismatchError(
                f"classifier head: weight {self.weight.shape} / bias {self.bias.shape} "
                f"do not match {len(self.class_names)} classes"
            )

    def logits(self, embeddings: np.ndarray) -> np.ndarray:
        return embeddings @ self.weight.T + self.bias

    def predict(self, embeddings: np.ndarray) -> list[str]:
        idx = np.argmax(self.logits(np.atleast_2d(embeddings)), axis=1)
        return [self.class_names[i] for i in idx]

    def copy(self) -> "ClassifierHead":
        return ClassifierHead(self.weight.copy(), self.bias.copy(), list(self.class_names))


@dataclass
class ProbeConfig:
    epochs: int = 100
    learning_rate: float = 0.1
    adagrad_eps: float = 1e-8
    batch_size: int = 0  # 0 = full batch
    seed: int = 0

    def __post_init__(self):
        if (min(self.epochs, self.batch_size, self.seed) < 0
                or not (0 <= self.learning_rate < np.inf and 0 < self.adagrad_eps < np.inf)):
            raise DataError(f"probe config: epochs, batch_size, seed and learning_rate must be finite "
                            f"and >= 0, adagrad_eps finite and > 0; got {self}")


def zeroshot_classify(
    imu_embedding: np.ndarray, class_anchors: list[tuple[str, np.ndarray]]
) -> str:
    """Nearest class anchor by inner product; ties keep the first declared class."""
    if not class_anchors:
        raise DataError("zeroshot_classify: no class anchors")
    scores = _inner_products(np.stack([vec for _, vec in class_anchors]), imu_embedding)
    return class_anchors[int(np.argmax(scores))][0]


def softmax_cross_entropy(tape: Tape, logits: Tensor, label_indices: np.ndarray) -> Tensor:
    """Mean negative log-softmax of the gold class; gradient is
    (softmax - onehot) / batch.
    """
    z = logits.data
    if z.ndim != 2:
        raise ShapeMismatchError(f"softmax_cross_entropy: logits must be (B, C), got {z.shape}")
    labels = np.asarray(label_indices, dtype=np.int64)
    if labels.shape != (z.shape[0],):
        raise ShapeMismatchError(
            f"softmax_cross_entropy: {labels.shape[0] if labels.ndim else 0} labels for {z.shape[0]} rows"
        )
    b = z.shape[0]
    shifted = z - z.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out = Tensor(-log_probs[np.arange(b), labels].mean())

    def vjp(g):
        grad = np.exp(log_probs)
        grad[np.arange(b), labels] -= 1.0
        return (grad * (float(g) / b),)

    tape.record(out, (logits,), vjp)
    return out


def _label_indices(dataset: ParallelDataset, ids: list[str]) -> np.ndarray:
    index = {name: i for i, name in enumerate(dataset.class_names)}
    return np.asarray([index[dataset.labels[wid]] for wid in ids], dtype=np.int64)


def _labeled_ids(dataset: ParallelDataset) -> list[str]:
    if not dataset.labels or not dataset.class_names:
        raise DataError("dataset has no labels")
    ids = [w.window_id for w in dataset.windows if w.window_id in dataset.labels]
    if not ids:
        raise DataError("dataset has no labeled windows")
    present = {dataset.labels[w] for w in ids}
    if len(present) < 2:
        raise DataError(f"single-class dataset (only {present.pop()!r}); need >= 2 classes")
    return ids


def init_head(n_classes: int, dim: int, class_names: list[str], seed: int) -> ClassifierHead:
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(dim)
    return ClassifierHead(
        rng.uniform(-bound, bound, size=(n_classes, dim)), np.zeros(n_classes), list(class_names)
    )


def _fit_head(
    head: ClassifierHead,
    features,
    labels: np.ndarray,
    config: ProbeConfig,
    encoder_tensors: dict[str, Tensor],
) -> tuple[np.ndarray, np.ndarray]:
    """Adagrad on the softmax cross-entropy of a copy of `head` and, in
    place, `encoder_tensors`; `features(tape, batch)` is the head's (B, D)
    input for a batch of row indices. Returns the fitted weight and bias."""
    w = Tensor(head.weight.copy(), requires_grad=True)
    b = Tensor(head.bias.copy(), requires_grad=True)
    named = {**encoder_tensors, "head.w": w, "head.b": b}
    state = AdagradState()
    n = len(labels)
    batch_size = min(config.batch_size or n, n)
    for epoch in range(config.epochs):
        for batch in make_batches(n, batch_size, config.seed, epoch):
            tape = Tape()
            logits = ad.add_rowvec(tape, ad.matmul_nt(tape, features(tape, batch), w), b)
            loss = softmax_cross_entropy(tape, logits, labels[batch])
            adagrad_step(named, gradients(tape, loss, named), state,
                         config.learning_rate, config.adagrad_eps)
    return w.data, b.data


def fit_linear_head(
    embeddings: np.ndarray,
    label_indices: np.ndarray,
    class_names: list[str],
    config: ProbeConfig,
    head: ClassifierHead | None = None,
) -> ClassifierHead:
    """Train a softmax linear head with Adagrad on fixed embeddings."""
    emb = np.asarray(embeddings, dtype=np.float64)
    n, dim = emb.shape
    if np.shape(label_indices) != (n,):
        raise ShapeMismatchError(f"fit_linear_head: labels of shape {np.shape(label_indices)} for {n} rows")
    if head is None:
        head = init_head(len(class_names), dim, class_names, config.seed)
    weight, bias = _fit_head(head, lambda tape, batch: Tensor(emb[batch]), label_indices, config, {})
    return ClassifierHead(weight, bias, list(class_names))


def train_probe(
    dataset: ParallelDataset,
    params: EncoderParams,
    encoder_config: EncoderConfig,
    config: ProbeConfig,
) -> ClassifierHead:
    """Probing: the encoder stays frozen; only the linear head is trained."""
    ids = _labeled_ids(dataset)
    by_id = {w.window_id: w for w in dataset.windows}
    emb = encode_batch([by_id[i] for i in ids], params, encoder_config)
    return fit_linear_head(emb, _label_indices(dataset, ids), dataset.class_names, config)


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
    ids = _labeled_ids(dataset)
    by_id = {w.window_id: w for w in dataset.windows}
    signals = [by_id[i].signal for i in ids]
    params = params.copy()
    if head is None:
        head = init_head(len(dataset.class_names), encoder_config.embed_dim,
                         dataset.class_names, config.seed)

    def features(tape, batch):
        return encode_batch_on_tape(tape, [signals[i] for i in batch], params, encoder_config)

    weight, bias = _fit_head(head, features, _label_indices(dataset, ids), config, params.named())
    params.assert_finite()
    return params, ClassifierHead(weight, bias, list(head.class_names))


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
    return ClassifierHead(arrays["weight"], arrays["bias"], names)
