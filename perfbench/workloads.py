"""The four benchmark workloads, each with the correctness checks of its
operations.

Every workload has a ``setup(inputs)`` that does the program's own set-up
(loaders, ``init_params`` and one warm-up call) and returns a state, and a
``run(state, inputs, budget, ledger)`` generator that performs the timed
operations and yields between them, so that several workloads can take
turns.
All calls go through module attributes (``train.fit``, not a bound
``fit``), so that the tracer sees them. Only the program call of an
operation is timed; its checks run after the clock stops.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from imualign import cli, encoder, evaluate, signalio, train

from perfbench.sizes import RATE_HZ, WINDOW_S
from perfbench.speed import Stopwatch

RETRIEVAL_KS = (1, 10, 50)  # eval_retrieval's default cut-offs


@dataclass
class Inputs:
    """Where a workload's generated files are, and how big it is."""

    dir: Path
    size: dict
    seed: int
    manifest: dict
    scratch: Path  # where the program may write (run directories, caches)


class Budget:
    """Decides how many operations a phase runs: until its share of the
    run's seconds is spent (and at least `min_ops`), or exactly the counts
    given, so that a second pass can replay the first one's work.
    """

    def __init__(self, seconds: float = 0.0, min_ops: int = 5, counts: dict | None = None):
        self.seconds = seconds
        self.min_ops = min_ops
        self.fixed = counts
        self.counts: dict[str, int] = {}

    def ops(self, phase: str, share: float = 1.0):
        start = time.perf_counter()
        n = 0
        while True:
            if self.fixed is not None:
                if n >= self.fixed[phase]:
                    break
            elif n >= self.min_ops and time.perf_counter() - start >= share * self.seconds:
                break
            yield n
            n += 1
        self.counts[phase] = n


class Ledger:
    """Counts operations and failures and keeps one list of samples per metric."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.stopwatch = Stopwatch()
        self.timed_s = 0.0  # seconds inside program calls, at nominal speed
        self.raw_s = 0.0  # the same, raw CPU seconds

    def op(self, label: str, call, check):
        """Time `call()` (see speed.py). The operation fails if it raises or
        if `check(result)` returns a problem. Returns (result, seconds at
        nominal speed), or (None, None) for a failed operation.
        """
        self.attempted += 1

        def traced_call():
            with self.tracer.span("bench.op") if self.tracer else contextlib.nullcontext():
                return call()

        try:
            result, seconds, raw = self.stopwatch.time(traced_call)
            self.timed_s += seconds
            self.raw_s += raw
            with self.tracer.paused() if self.tracer else contextlib.nullcontext():
                problem = check(result)
        except Exception as exc:  # a failed operation is counted and the run goes on
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: {problem}")
            return None, None
        return result, seconds

    def add(self, metric: str, value: float) -> None:
        self.samples[metric].append(value)


def _rotate(ids: list, i: int, n: int) -> list:
    """The i-th block of n ids, wrapping around the list."""
    n = min(n, len(ids))
    return [ids[(i * n + j) % len(ids)] for j in range(n)]


# ---------------------------------------------------------------------------
# pretrain: contrastive training at the paper default (B=16, T=200, ivt)


@dataclass
class PretrainState:
    dataset: object
    encoder_config: object
    params: object


def setup_pretrain(inp: Inputs) -> PretrainState:
    cache = signalio.load_window_cache(inp.dir / "windows.bin")
    dataset, dropped = signalio.assemble_dataset(
        cache.windows, inp.dir / "video.jsonl", inp.dir / "text.jsonl")
    if dropped:
        raise RuntimeError(f"{len(dropped)} windows dropped for missing anchors")
    config = encoder.EncoderConfig()
    params = encoder.init_params(config, inp.seed)
    warm = signalio.ParallelDataset(dataset.windows[:16], dataset.video_anchors,
                                    dataset.text_anchors)
    train.fit(warm, config, train.TrainConfig(mode="ivt", epochs=1, seed=inp.seed),
              params=params.copy())
    return PretrainState(dataset, config, params)


def run_pretrain(s: PretrainState, inp: Inputs, budget: Budget, ledger: Ledger):
    config = train.TrainConfig(mode="ivt", epochs=inp.size["epochs"], seed=inp.seed)
    windows_per_fit = len(s.dataset) // config.batch_size * config.batch_size * config.epochs
    anchors = s.dataset.anchor_checksum()
    run_dir = inp.scratch / "pretrain-run"
    losses: list[float] = []

    def check(result):
        loss = result[2][-1]["l_total"]
        if not math.isfinite(loss):
            return f"non-finite final loss {loss}"
        if s.dataset.anchor_checksum() != anchors:
            return "fit changed the frozen anchors"
        if losses and loss != losses[0]:
            return f"final loss {loss!r} differs from {losses[0]!r} of an identical fit"
        losses.append(loss)
        return None

    for _ in budget.ops("fit"):
        params = s.params.copy()
        result, dt = ledger.op("fit", lambda: train.fit(
            s.dataset, s.encoder_config, config, run_dir=run_dir, params=params), check)
        if result is not None:
            ledger.add("train_windows_per_s", windows_per_fit / dt)
            ledger.add("train_loss_final", result[2][-1]["l_total"])
        yield


# ---------------------------------------------------------------------------
# retrieve: encode a 2k IMU pool, then rank it (text2imu) and a 10k
# video-anchor pool (imu2video)


@dataclass
class RetrieveState:
    checkpoint: object
    windows: list
    text: dict
    video: dict


def setup_retrieve(inp: Inputs) -> RetrieveState:
    ckpt = train.load_checkpoint(inp.dir / "ckpt.bin")
    cache = signalio.load_window_cache(inp.dir / "windows.bin")
    text = signalio.load_anchor_embeddings(inp.dir / "text.jsonl")
    video = signalio.load_anchor_embeddings(inp.dir / "video.jsonl")
    encoder.encode_batch(cache.windows[:2], ckpt.params, ckpt.encoder_config)
    return RetrieveState(ckpt, cache.windows, text, video)


def retrieval_oracle(queries: dict, pool: dict, ks=RETRIEVAL_KS) -> dict:
    """R@k and MRR from one matmul and a rank count. A query's rank is 1 +
    the pool entries scoring strictly higher + the equal scores with a
    smaller id, which is eval_retrieval's ascending-id tie rule.
    """
    pool_ids = sorted(pool)
    position = {pid: j for j, pid in enumerate(pool_ids)}
    query_ids = sorted(queries)
    scores = np.stack([queries[q] for q in query_ids]) @ np.stack([pool[p] for p in pool_ids]).T
    ranks = []
    for row, qid in zip(scores, query_ids):
        gold = position[qid]
        ranks.append(1 + int(np.sum(row > row[gold])) + int(np.sum(row[:gold] == row[gold])))
    out = {f"R@{k}": round(sum(1 for r in ranks if r <= k) / len(ranks), 6) for k in ks}
    out["MRR"] = round(sum(1.0 / r for r in ranks) / len(ranks), 6)
    out["pool_size"] = len(pool)
    out["n_queries"] = len(ranks)
    return out


def _check_retrieval(result: dict, queries: dict, pool: dict):
    expected = retrieval_oracle(queries, pool)
    wrong = {k: (result.get(k), v) for k, v in expected.items() if result.get(k) != v}
    return f"differs from the oracle (got, expected): {wrong}" if wrong else None


def _check_embeddings(emb, part, ckpt, sample: int, pooled: dict | None):
    """Unit norm; row `sample` equals the single-window encode; rows equal
    an earlier encode of the same windows (`pooled`) bit for bit."""
    if emb.shape != (len(part), ckpt.encoder_config.embed_dim):
        return f"embedding matrix has shape {emb.shape}"
    if pooled is not None and any(not np.array_equal(row, pooled[w.window_id])
                                  for row, w in zip(emb, part)):
        return "re-encoding the same windows gave different embeddings"
    worst = float(np.abs(np.linalg.norm(emb, axis=1) - 1.0).max())
    if worst > 1e-9:
        return f"embedding norms deviate from 1 by {worst:.3e}"
    single = encoder.encode(part[sample], ckpt.params, ckpt.encoder_config)
    diff = float(np.abs(emb[sample] - single).max())
    if diff > 1e-12:
        return f"row {sample} differs from the single-window encode by {diff:.3e}"
    return None


def _distractors(path: Path, prefix: str) -> dict:
    return {f"{prefix}-{i:05d}": v for i, v in enumerate(np.load(path))}


def run_retrieve(s: RetrieveState, inp: Inputs, budget: Budget, ledger: Ledger):
    ckpt, size = s.checkpoint, inp.size
    chunk = size["encode_chunk"]
    chunks = [s.windows[i:i + chunk] for i in range(0, len(s.windows), chunk)]
    imu_pool: dict[str, np.ndarray] = {}
    encoded: list[str] = []
    video_pool = {wid: a.vector for wid, a in s.video.items()}
    video_pool.update(_distractors(inp.dir / "video_distractors.npy", "video-pool"))

    def encode(n, pooled):
        part = chunks[n % len(chunks)]
        emb, dt = ledger.op("encode", lambda: encoder.encode_batch(
            part, ckpt.params, ckpt.encoder_config),
            lambda e: _check_embeddings(e, part, ckpt, n % len(part), pooled))
        if emb is not None:
            ledger.add("encode_windows_per_s", len(part) / dt)
            if pooled is None:
                imu_pool.update(zip((w.window_id for w in part), emb))
                encoded.extend(w.window_id for w in part)

    def rank_video(i):
        queries = {q: imu_pool[q] for q in _rotate(encoded, i, size["video_queries"])}
        result, dt = ledger.op("imu2video", lambda: evaluate.eval_retrieval(
            queries, video_pool, "imu2video"), lambda r: _check_retrieval(r, queries, video_pool))
        if result is not None:
            ledger.add("retrieval_queries_per_s_pool10k", len(queries) / dt)

    # the 10k video pool is ranked (after every other chunk) while the IMU
    # pool is being encoded, so that both are sampled over the whole run
    for n in range(len(chunks)):
        encode(n, None)
        if encoded and n % 2 == 0:
            rank_video(n // 2)
        yield
    first_encode = dict(imu_pool)
    imu_pool.update(_distractors(inp.dir / "imu_distractors.npy", "imu-distractor"))

    # then rank the 2k IMU pool, keep ranking the video pool and re-encode
    # pool chunks, in turn
    for i in budget.ops("rank", size["rank_share"]):
        queries = {q: s.text[q].vector for q in _rotate(encoded, i, size["text_queries"])}
        result, dt = ledger.op("text2imu", lambda: evaluate.eval_retrieval(
            imu_pool, queries, "text2imu"), lambda r: _check_retrieval(r, queries, imu_pool))
        if result is not None:
            ledger.add("retrieval_queries_per_s_pool2k", len(queries) / dt)
        rank_video(len(chunks) + i)
        encode(i, first_encode)
        yield


# ---------------------------------------------------------------------------
# ingest: the CLI's CSV -> resample -> window -> cache path, then reloads

RELOADS = 5  # reloads of each written cache: a reload is short, so it is sampled more


def run_cli(argv: list[str]) -> tuple[int, str]:
    """imualign.cli.main in-process, with its stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _ingest_argv(files: list[Path], out: Path) -> list[str]:
    argv = ["ingest"]
    for f in files:
        argv += ["--imu", str(f)]
    return argv + ["--window-s", str(WINDOW_S), "--rate-hz", str(RATE_HZ), "--out", str(out)]


def single_json_object(text: str):
    """(object, None) when `text` is exactly one JSON object, else (None, problem)."""
    body = text.strip()
    try:
        obj, end = json.JSONDecoder().raw_decode(body)
    except json.JSONDecodeError as exc:
        return None, f"stdout is not JSON: {exc}"
    if body[end:].strip():
        return None, "stdout holds more than one JSON value"
    if not isinstance(obj, dict):
        return None, f"stdout holds a JSON {type(obj).__name__}, not an object"
    return obj, None


def _check_ingest(result, n_files: int):
    code, text = result
    if code != 0:
        return f"exit code {code}"
    obj, problem = single_json_object(text)
    if problem:
        return problem
    if obj.get("n_sources") != n_files or not obj.get("n_windows"):
        return f"unexpected summary {obj}"
    return None


def _check_reload(cache, n_windows: int, sample: Path):
    if len(cache.windows) != n_windows:
        return f"reloaded {len(cache.windows)} windows, ingest reported {n_windows}"
    stream = signalio.resample(signalio.load_imu_stream(sample), RATE_HZ)
    expected = signalio.make_windows(stream, WINDOW_S, WINDOW_S)
    got = [w for w in cache.windows if w.source_id == sample.stem]
    if [w.window_id for w in got] != [w.window_id for w in expected]:
        return f"window ids of {sample.name} differ from make_windows(resample(...))"
    for a, b in zip(got, expected):
        if not np.array_equal(a.signal, b.signal) or a.start_s != b.start_s:
            return f"window {a.window_id} differs from make_windows(resample(...))"
    return None


def _check_same_cache(cache, first):
    if len(cache.windows) != len(first.windows) or any(
            a.window_id != b.window_id or not np.array_equal(a.signal, b.signal)
            for a, b in zip(cache.windows, first.windows)):
        return "a reload of the same cache gave different windows"
    return None


def setup_ingest(inp: Inputs) -> None:
    first = inp.dir / inp.manifest["files"][0]["file"]
    code, _ = run_cli(_ingest_argv([first], inp.scratch / "warmup.bin"))
    if code != 0:
        raise RuntimeError(f"warm-up ingest exited {code}")


def run_ingest(_state, inp: Inputs, budget: Budget, ledger: Ledger):
    files = [(inp.dir / f["file"], f["rows"]) for f in inp.manifest["files"]]
    per_op = inp.size["streams_per_op"]
    out = inp.scratch / "ingest.bin"
    for i in budget.ops("ingest"):
        group = [files[(i * per_op + j) % len(files)] for j in range(per_op)]
        paths = [p for p, _ in group]
        result, dt = ledger.op("ingest", lambda: run_cli(_ingest_argv(paths, out)),
                               lambda r: _check_ingest(r, len(paths)))
        if result is not None:
            ledger.add("ingest_rows_per_s", sum(rows for _, rows in group) / dt)
            n_windows = json.loads(result[1])["n_windows"]
            sample = paths[i % len(paths)]
            first = None
            for _ in range(RELOADS):
                cache, dt = ledger.op(
                    "cache-load", lambda: signalio.load_window_cache(out),
                    lambda c: _check_reload(c, n_windows, sample) if first is None
                    else _check_same_cache(c, first))
                if cache is not None:
                    ledger.add("cache_load_windows_per_s", len(cache.windows) / dt)
                    first = first or cache
                cache = None  # at most two caches alive: peak memory does not depend on timing
        yield


# ---------------------------------------------------------------------------
# classify: zeroshot, linear probe and fine-tuning on labeled windows


@dataclass
class ClassifyState:
    checkpoint: object
    dataset: object
    class_anchors: dict


def setup_classify(inp: Inputs) -> ClassifyState:
    ckpt = train.load_checkpoint(inp.dir / "ckpt.bin")
    cache = signalio.load_window_cache(inp.dir / "windows.bin")
    dataset, dropped = signalio.assemble_dataset(
        cache.windows, inp.dir / "video.jsonl", labels_path=inp.dir / "labels.jsonl")
    if dropped:
        raise RuntimeError(f"{len(dropped)} windows dropped for missing anchors")
    classes = signalio.load_anchor_embeddings(inp.dir / "class_anchors.jsonl")
    encoder.encode_batch(dataset.windows[:2], ckpt.params, ckpt.encoder_config)
    return ClassifyState(ckpt, dataset, classes)


def _zeroshot(windows, ckpt, pairs):
    emb = encoder.encode_batch(windows, ckpt.params, ckpt.encoder_config)
    return emb, [evaluate.zeroshot_classify(e, pairs) for e in emb]


def _check_zeroshot(result, names: list[str], anchors: np.ndarray):
    emb, preds = result
    expected = [names[j] for j in np.argmax(emb @ anchors.T, axis=1)]  # first class wins a tie
    wrong = sum(1 for p, e in zip(preds, expected) if p != e)
    return f"{wrong} of {len(preds)} predictions differ from the argmax oracle" if wrong else None


def _check_params(params, before: str, *outputs):
    if params.checksum() != before:
        return "the input encoder parameters changed"
    for out in outputs:
        if not all(np.all(np.isfinite(a)) for a in out):
            return "non-finite trained weights"
    return None


def run_classify(s: ClassifyState, inp: Inputs, budget: Budget, ledger: Ledger):
    ckpt, dataset, size = s.checkpoint, s.dataset, inp.size
    names = dataset.class_names
    pairs = [(c, s.class_anchors[c].vector) for c in names]
    anchors = np.stack([v for _, v in pairs])
    before = ckpt.params.checksum()
    probe = evaluate.ProbeConfig(epochs=size["probe_epochs"], seed=inp.seed)
    tune = evaluate.ProbeConfig(epochs=size["finetune_epochs"], batch_size=16, seed=inp.seed)
    tuned_windows = len(dataset) // 16 * 16 * tune.epochs
    for _ in budget.ops("round"):
        ledger.op("zeroshot", lambda: _zeroshot(dataset.windows, ckpt, pairs),
                  lambda r: _check_zeroshot(r, names, anchors))
        head, dt = ledger.op(
            "probe", lambda: evaluate.train_probe(dataset, ckpt.params, ckpt.encoder_config, probe),
            lambda h: _check_params(ckpt.params, before, [h.weight, h.bias]))
        if head is not None:
            ledger.add("probe_fit_s", dt)
        tuned, dt = ledger.op(
            "finetune",
            lambda: evaluate.fine_tune(dataset, ckpt.params, None, ckpt.encoder_config, tune),
            lambda r: _check_params(ckpt.params, before,
                                    [t.data for t in r[0].named().values()],
                                    [r[1].weight, r[1].bias]))
        if tuned is not None:
            ledger.add("finetune_windows_per_s", tuned_windows / dt)
        yield


WORKLOADS = {
    "pretrain": (setup_pretrain, run_pretrain),
    "retrieve": (setup_retrieve, run_retrieve),
    "ingest": (setup_ingest, run_ingest),
    "classify": (setup_classify, run_classify),
}

# the end-to-end metrics each workload measures itself (setup_s and
# peak_rss_mib come from every workload's own run)
OWN_METRICS = {
    "pretrain": ("train_windows_per_s", "train_loss_final"),
    "retrieve": ("encode_windows_per_s", "retrieval_queries_per_s_pool2k",
                 "retrieval_queries_per_s_pool10k"),
    "ingest": ("ingest_rows_per_s", "cache_load_windows_per_s"),
    "classify": ("probe_fit_s", "finetune_windows_per_s"),
}
