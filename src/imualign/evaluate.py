"""Evaluation surface: bidirectional retrieval metrics (Recall@k, MRR) and
the three activity-recognition protocols (zeroshot nearest-anchor, linear
probing on the frozen encoder, full fine-tuning).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .container import read_container, write_container
from .encoder import EncoderConfig, EncoderParams, encode_batch, encode_batch_on_tape
from .errors import CoverageError, DataError, NumericError, ShapeMismatchError
from .signalio import ParallelDataset
from .train import AdagradState, adagrad_step, make_batches

HEAD_MAGIC = b"IMUH"
HEAD_VERSION = 1

RETRIEVAL_DIRECTIONS = ("text2imu", "imu2video", "video2imu", "imu2text")


# ---------------------------------------------------------------------------
# retrieval


@dataclass
class RetrievalResult:
    query_id: str
    ranked_pool_ids: list[str]
    gold_rank: int  # 1-based


def rank_pool(query: np.ndarray, pool: list[tuple[str, np.ndarray]], gold_id: str) -> RetrievalResult:
    """Rank a pool by inner product with the query, descending; ties break
    by ascending id so rankings are deterministic.
    """
    if not pool:
        raise DataError("rank_pool: empty pool")
    ids = [pid for pid, _ in pool]
    if gold_id not in set(ids):
        raise CoverageError(f"rank_pool: gold id {gold_id!r} not in pool", [gold_id])
    scores = np.asarray([float(np.dot(query, v)) for _, v in pool])
    order = np.lexsort((np.asarray(ids), -scores))
    ranked = [ids[i] for i in order]
    return RetrievalResult(gold_id, ranked, ranked.index(gold_id) + 1)


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
    max_workers: int = 1,
) -> dict:
    """Rank the full pool for every query and aggregate R@k and MRR.

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
    pool = sorted(pool_map.items())

    def one(item):
        qid, vec = item
        return rank_pool(vec, pool, qid)

    items = sorted(queries.items())
    if max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool_exec:
            results = list(pool_exec.map(one, items))
    else:
        results = [one(it) for it in items]

    flags = []
    if len(pool) < 50:
        flags.append("pool_lt_50")
    out = {"direction": direction}
    for k in ks:
        out[f"R@{k}"] = round(recall_at_k(results, k), 6)
    out["MRR"] = round(mrr(results), 6)
    out["pool_size"] = len(pool)
    out["n_queries"] = len(results)
    out["flags"] = flags
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


FineTuneConfig = ProbeConfig


def zeroshot_classify(
    imu_embedding: np.ndarray, class_anchors: list[tuple[str, np.ndarray]]
) -> str:
    """Nearest class anchor by inner product; ties keep the first declared class."""
    if not class_anchors:
        raise DataError("zeroshot_classify: no class anchors")
    best_name, best_score = None, -np.inf
    for name, vec in class_anchors:
        score = float(np.dot(imu_embedding, vec))
        if score > best_score:
            best_name, best_score = name, score
    return best_name


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


def _head_tensors(head: ClassifierHead) -> tuple[Tensor, Tensor]:
    return (Tensor(head.weight.copy(), requires_grad=True),
            Tensor(head.bias.copy(), requires_grad=True))


def init_head(n_classes: int, dim: int, class_names: list[str], seed: int) -> ClassifierHead:
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(dim)
    return ClassifierHead(
        rng.uniform(-bound, bound, size=(n_classes, dim)), np.zeros(n_classes), list(class_names)
    )


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
    if head is None:
        head = init_head(len(class_names), dim, class_names, config.seed)
    w, b = _head_tensors(head)
    named = {"head.w": w, "head.b": b}
    state = AdagradState()
    batch_size = config.batch_size or n
    for epoch in range(config.epochs):
        batches = make_batches(n, min(batch_size, n), config.seed, epoch)
        for batch in batches:
            w.grad = b.grad = None
            tape = Tape()
            x = Tensor(emb[batch])
            logits = ad.add_rowvec(tape, ad.matmul_nt(tape, x, w), b)
            loss = softmax_cross_entropy(tape, logits, label_indices[batch])
            if not np.isfinite(loss.data):
                raise NumericError(f"non-finite probe loss at epoch {epoch}")
            ad.backward(tape, loss)
            adagrad_step(named, {k: t.grad for k, t in named.items()}, state,
                         config.learning_rate, config.adagrad_eps)
    return ClassifierHead(w.data, b.data, list(class_names))


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
    config: FineTuneConfig,
) -> tuple[EncoderParams, ClassifierHead]:
    """Joint supervised training of encoder and head; the inputs are left
    untouched and updated copies are returned.
    """
    ids = _labeled_ids(dataset)
    by_id = {w.window_id: w for w in dataset.windows}
    labels = _label_indices(dataset, ids)
    params = params.copy()
    if head is None:
        head = init_head(len(dataset.class_names), encoder_config.embed_dim,
                         dataset.class_names, config.seed)
    w, b = _head_tensors(head)
    named = dict(params.named())
    named["head.w"] = w
    named["head.b"] = b
    state = AdagradState()
    n = len(ids)
    batch_size = config.batch_size or n
    for epoch in range(config.epochs):
        batches = make_batches(n, min(batch_size, n), config.seed, epoch)
        for batch in batches:
            for t in named.values():
                t.grad = None
            tape = Tape()
            emb = encode_batch_on_tape(tape, [by_id[ids[i]].signal for i in batch],
                                       params, encoder_config)
            logits = ad.add_rowvec(tape, ad.matmul_nt(tape, emb, w), b)
            loss = softmax_cross_entropy(tape, logits, labels[batch])
            if not np.isfinite(loss.data):
                raise NumericError(f"non-finite fine-tune loss at epoch {epoch}")
            ad.backward(tape, loss)
            adagrad_step(named, {k: t.grad for k, t in named.items()}, state,
                         config.learning_rate, config.adagrad_eps)
    params.assert_finite()
    return params, ClassifierHead(w.data, b.data, list(head.class_names))


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
    return ClassifierHead(arrays["weight"], arrays["bias"], list(header["class_names"]))
