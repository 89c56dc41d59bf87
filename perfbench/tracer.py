"""Outside-in tracing of imualign's layers.

The tracer wraps, from outside the package, every public function of the
eight layer modules wherever a module binds it by name (``evaluate`` binds
``adagrad_step``, ``cli`` binds the ``signalio`` loaders), plus
``Tape.record``, whose ``vjp`` it wraps so that backward time is measured
per kernel. Each wrapped call records a span (key, layer, start, end,
parent) in memory. ``uninstall`` puts every original back.

The tracer assumes one thread: the benchmark keeps ``IMU_ALIGN_THREADS``
unset, so the package runs no worker threads.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import time
import types
from collections import Counter, defaultdict

LAYERS = ("signalio", "container", "encoder", "autodiff", "contrastive", "train", "evaluate", "cli")

# content_hash is the ingest command's provenance step; it stays inside
# cmd_ingest's self time, which is how cli.ingest_self_s is defined
NOT_WRAPPED = frozenset({"content_hash"})

ENCODER_KERNELS = ("input_gn", "conv0", "conv1", "conv2", "relu", "pool", "post_gn", "gru",
                   "proj", "l2norm")
_KERNEL_OF = {"relu": "relu", "max_pool1d": "pool", "gru_forward": "gru", "linear": "proj",
              "l2_normalize": "l2norm"}

# In this benchmark text2imu ranks the 2,000-entry IMU pool and imu2video
# the 10,000-entry video-anchor pool.
_POOL_OF_DIRECTION = {"text2imu": "pool2k", "imu2video": "pool10k"}


def _argument(signature: inspect.Signature, name: str):
    """A reader for one named argument of a call, by position or keyword."""
    position = list(signature.parameters).index(name)

    def read(args, kwargs):
        return args[position] if len(args) > position else kwargs[name]

    return read


class Tracer:
    """Spans and counters for one traced run.

    `conv_shapes` are the encoder's conv weight shapes in layer order; a
    conv1d call is named conv<i> by the shape of its weight.
    """

    def __init__(self, conv_shapes):
        self.conv_names = {tuple(shape): f"conv{i}" for i, shape in enumerate(conv_shapes)}
        self.spans: list[list] = []  # [key, layer, start, end, parent index or -1]
        self.counters: Counter = Counter()
        self.errors: Counter = Counter()
        self.active = True
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- spans ----------------------------------------------------------

    def _open(self, key: str, layer: str) -> int:
        index = len(self.spans)
        self.spans.append([key, layer, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, key: str, layer: str = "bench"):
        index = self._open(key, layer)
        try:
            yield
        finally:
            self._close(index)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside record no spans (used for correctness checks)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # -- wrapping -------------------------------------------------------

    def _key_function(self, func, layer: str):
        name = func.__name__
        if layer == "evaluate" and name == "eval_retrieval":
            direction = _argument(inspect.signature(func), "direction")
            return lambda a, k: f"evaluate.eval_retrieval.{direction(a, k)}"
        if layer != "autodiff":
            key = f"{layer}.{name}"
            return lambda a, k: key
        if name == "backward":
            return lambda a, k: "autodiff.backward"
        if name == "group_norm":
            groups = _argument(inspect.signature(func), "num_groups")
            return lambda a, k: ("autodiff.input_gn.fwd" if groups(a, k) == 2
                                 else "autodiff.post_gn.fwd")
        if name == "conv1d":
            weight = _argument(inspect.signature(func), "w")
            return lambda a, k: f"autodiff.{self.conv_names.get(weight(a, k).shape, 'other')}.fwd"
        key = f"autodiff.{_KERNEL_OF.get(name, 'other')}.fwd"
        return lambda a, k: key

    def _counter_hook(self, func, layer: str):
        name = f"{layer}.{func.__name__}"
        if name == "signalio.load_imu_stream":
            return lambda a, k, out: self.counters.update({"signalio.rows_parsed": out.n_samples})
        if name in ("container.write_container", "container.read_container"):
            path = _argument(inspect.signature(func), "path")
            counter = "container.bytes_written" if "write" in name else "container.bytes_read"
            return lambda a, k, out: self.counters.update({counter: os.path.getsize(path(a, k))})
        return None

    def _wrap(self, func, layer: str):
        key_of = self._key_function(func, layer)
        after = self._counter_hook(func, layer)
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            index = tracer._open(key_of(args, kwargs), layer)
            try:
                out = func(*args, **kwargs)
            except BaseException:
                tracer.errors[layer] += 1
                raise
            finally:
                tracer._close(index)
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def _wrap_record(self, record):
        tracer = self

        def replay_with_span(vjp, key, layer):
            def traced_vjp(g):
                if not tracer.active:
                    return vjp(g)
                tracer.counters["autodiff.tape_entries_replayed"] += 1
                index = tracer._open(key, layer)
                try:
                    return vjp(g)
                finally:
                    tracer._close(index)

            return traced_vjp

        @functools.wraps(record)
        def traced_record(tape, output, inputs, vjp):
            if not tracer.active:
                return record(tape, output, inputs, vjp)
            if tracer._stack:
                key, layer = tracer.spans[tracer._stack[-1]][:2]
            else:
                key, layer = "autodiff.other.fwd", "autodiff"
            key = key[:-4] if key.endswith(".fwd") else key
            before = len(tape)
            record(tape, output, inputs, replay_with_span(vjp, key + ".bwd", layer))
            if len(tape) > before:
                tracer.counters["autodiff.tape_entries"] += 1

        return traced_record

    def install(self) -> None:
        import imualign

        modules = [imualign] + [importlib.import_module(f"imualign.{m}") for m in LAYERS]
        wrappers = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                layer = value.__module__.rpartition(".")[2]
                if value.__module__ != f"imualign.{layer}" or layer not in LAYERS:
                    continue
                if value.__name__ in NOT_WRAPPED:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(value, layer)
                self._patches.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
        tape = importlib.import_module("imualign.autodiff").Tape
        self._patches.append((tape, "record", tape.__dict__["record"]))
        tape.record = self._wrap_record(tape.__dict__["record"])

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results --------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(s[3] - s[2]) - c for s, c in zip(self.spans, child)]

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric but trace.overhead_*, which needs the
        untraced pass."""
        selfs = self.self_times()
        own, total, calls = defaultdict(float), defaultdict(float), Counter()
        layer_self, layer_calls = defaultdict(float), Counter()
        probe_steps = 0
        for index, (key, layer, start, end, parent) in enumerate(self.spans):
            own[key] += selfs[index]
            total[key] += end - start
            calls[key] += 1
            layer_self[layer] += selfs[index]
            if not key.endswith(".bwd"):
                layer_calls[layer] += 1
            if key == "train.adagrad_step" and self._has_ancestor(index, "evaluate.fit_linear_head"):
                probe_steps += 1

        m: dict[str, float] = {}
        for kernel in ENCODER_KERNELS + ("other",):
            m[f"autodiff.{kernel}.fwd_s"] = own[f"autodiff.{kernel}.fwd"]
            m[f"autodiff.{kernel}.bwd_s"] = own[f"autodiff.{kernel}.bwd"]
        recorded = self.counters["autodiff.tape_entries"]
        replayed = self.counters["autodiff.tape_entries_replayed"]
        contrastive = [(k, v) for k, v in own.items() if k.startswith("contrastive.")]
        m.update({
            "autodiff.backward_s": own["autodiff.backward"],
            "autodiff.tape_entries": recorded,
            "autodiff.tape_entries_replayed": replayed,
            "autodiff.replay_ratio": replayed / recorded if recorded else 0.0,
            "encoder.forward_s": total["encoder.encode_signal"],
            "encoder.windows": calls["encoder.encode_signal"],
            "contrastive.loss.fwd_s": sum(v for k, v in contrastive if not k.endswith(".bwd")),
            "contrastive.loss.bwd_s": sum(v for k, v in contrastive if k.endswith(".bwd")),
            "train.adagrad_step_s": total["train.adagrad_step"],
            "train.steps": calls["train.adagrad_step"],
            "train.make_batches_s": total["train.make_batches"],
            "train.checkpoint_write_s": total["train.save_checkpoint"],
            "evaluate.rank_pool_calls": calls["evaluate.rank_pool"],
            "evaluate.fit_linear_head_s": total["evaluate.fit_linear_head"],
            "evaluate.probe_steps": probe_steps,
            "evaluate.fine_tune_s": total["evaluate.fine_tune"],
            "evaluate.zeroshot_s": total["evaluate.zeroshot_classify"],
            "signalio.load_imu_stream_s": total["signalio.load_imu_stream"],
            "signalio.resample_s": total["signalio.resample"],
            "signalio.make_windows_s": total["signalio.make_windows"],
            "signalio.load_anchor_embeddings_s": total["signalio.load_anchor_embeddings"],
            "signalio.assemble_dataset_s": own["signalio.assemble_dataset"],
            "signalio.rows_parsed": self.counters["signalio.rows_parsed"],
            "container.write_s": total["container.write_container"],
            "container.read_s": total["container.read_container"],
            "container.bytes_written": self.counters["container.bytes_written"],
            "container.bytes_read": self.counters["container.bytes_read"],
            "cli.ingest_self_s": own["cli.cmd_ingest"],
        })
        for direction, pool in _POOL_OF_DIRECTION.items():
            m[f"evaluate.eval_retrieval_s.{pool}"] = total[f"evaluate.eval_retrieval.{direction}"]
        for layer in LAYERS:
            m[f"{layer}.calls"] = layer_calls[layer]
            m[f"{layer}.self_s"] = layer_self[layer]
            m[f"{layer}.errors"] = self.errors[layer]
        bench_total = sum(s[3] - s[2] for s in self.spans if s[1] == "bench")
        m["trace.uncovered_s"] = layer_self["bench"]
        m["trace.covered_frac"] = 1.0 - layer_self["bench"] / bench_total if bench_total else 0.0
        m["trace.spans"] = len(self.spans)
        return m

    def _has_ancestor(self, index: int, key: str) -> bool:
        parent = self.spans[index][4]
        while parent >= 0:
            if self.spans[parent][0] == key:
                return True
            parent = self.spans[parent][4]
        return False

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (key, layer, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": key, "layer": layer, "start": start,
                                     "end": end, "parent": None if parent < 0 else parent}) + "\n")
