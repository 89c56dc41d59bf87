"""Tests of the benchmark itself, at tiny sizes:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import imualign  # noqa: E402
from imualign import cli, evaluate  # noqa: E402

from perfbench import run, speed, workloads  # noqa: E402
from perfbench.sizes import WORKLOADS  # noqa: E402
from perfbench.tracer import ENCODER_KERNELS, LAYERS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _measure(tmp_path, workload: str, trace: bool) -> dict:
    run.generate(tmp_path, 5, run.makes_for(workload, trace, "tiny"))
    return run.measure(workload, 5, 0.01, trace, tmp_path, size="tiny")


def _bindings() -> dict:
    modules = [imualign] + [importlib.import_module(f"imualign.{m}") for m in LAYERS]
    found = {(m.__name__, name): value for m in modules for name, value in vars(m).items()}
    found[("Tape", "record")] = imualign.autodiff.Tape.__dict__["record"]
    return found


def _same_bindings(before: dict, after: dict) -> bool:
    return before.keys() == after.keys() and all(after[k] is v for k, v in before.items())


def test_benchmark_json_workloads_are_runnable():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert set(workloads.WORKLOADS) == set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(tmp_path, workload):
    result = _measure(tmp_path, workload, False)
    assert result["correct"], result["problems"]
    metrics = run.with_units(result["metrics"], SPEC["end_to_end"])
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric_and_unpatches(tmp_path, workload):
    before = _bindings()
    result = _measure(tmp_path, workload, True)
    assert _same_bindings(before, _bindings())
    assert result["correct"], result["problems"]
    m = result["metrics"]
    run.with_units(m, SPEC["per_layer"])  # raises unless the names match exactly
    assert m["trace.spans"] > 0 and 0.0 < m["trace.covered_frac"] <= 1.0
    if workload == "pretrain":
        for kernel in ENCODER_KERNELS:
            assert m[f"autodiff.{kernel}.fwd_s"] > 0 and m[f"autodiff.{kernel}.bwd_s"] > 0, kernel
        assert m["contrastive.loss.fwd_s"] > 0 and m["contrastive.loss.bwd_s"] > 0
        assert m["train.adagrad_step_s"] > 0 and m["train.checkpoint_write_s"] > 0
        assert m["autodiff.tape_entries_replayed"] == m["autodiff.tape_entries"]
    if workload == "retrieve":
        assert m["evaluate.eval_retrieval_s.pool2k"] > 0
        assert m["evaluate.eval_retrieval_s.pool10k"] > 0
        # encode records tape entries that no backward pass replays
        assert m["autodiff.tape_entries"] > 0 and m["autodiff.tape_entries_replayed"] == 0
    if workload == "ingest":
        assert m["signalio.rows_parsed"] > 0 and m["container.bytes_written"] > 0
        assert m["cli.ingest_self_s"] > 0
        assert m["autodiff.calls"] == 0 and m["encoder.windows"] == 0
    if workload == "classify":
        assert m["evaluate.probe_steps"] > 0 and m["evaluate.fine_tune_s"] > 0
        assert m["evaluate.zeroshot_s"] > 0


def test_swapped_retrieval_rank_counts_as_failure(tmp_path, monkeypatch):
    rank_pool = evaluate.rank_pool

    def swapped(query, pool, gold_id):
        result = rank_pool(query, pool, gold_id)
        result.gold_rank += 1 if result.gold_rank == 1 else -1  # gold trades places
        return result

    monkeypatch.setattr(evaluate, "rank_pool", swapped)
    result = _measure(tmp_path, "retrieve", False)
    assert not result["correct"] and result["failed"] > 0
    assert any("oracle" in p for p in result["problems"])


def test_extra_cli_output_counts_as_failure(tmp_path, monkeypatch):
    emit = cli._emit

    def twice(obj):
        emit(obj)
        emit(obj)

    monkeypatch.setattr(cli, "_emit", twice)
    result = _measure(tmp_path, "ingest", False)
    assert not result["correct"]
    assert any("more than one JSON value" in p for p in result["problems"])


def test_retrieval_oracle_keeps_the_ascending_id_tie_rule():
    v = np.array([1.0, 0.0])
    pool = {"a": v, "b": v.copy(), "c": np.array([0.0, 1.0])}
    queries = {"b": v, "c": np.array([0.6, 0.8])}
    expected = evaluate.eval_retrieval(queries, pool, "imu2video", ks=(1, 2))
    got = workloads.retrieval_oracle(queries, pool, ks=(1, 2))
    assert got["R@1"] == expected["R@1"] == 0.5  # "b" ties with "a" and ranks second
    assert got == {k: expected[k] for k in got}


def test_self_time_subtracts_child_spans():
    tracer = Tracer([])
    tracer.spans = [["a", "bench", 0.0, 10.0, -1], ["b", "x", 2.0, 5.0, 0],
                    ["c", "x", 6.0, 7.0, 0], ["d", "y", 3.0, 4.0, 1]]
    assert tracer.self_times() == [6.0, 2.0, 1.0, 1.0]


def test_tracer_wraps_names_where_they_are_looked_up():
    before = _bindings()
    tracer = Tracer([(32, 6, 10)])
    tracer.install()
    try:
        during = _bindings()
    finally:
        tracer.uninstall()
    changed = {k for k, v in before.items() if during[k] is not v}
    assert {("imualign.evaluate", "adagrad_step"), ("imualign.cli", "load_imu_stream"),
            ("imualign.train", "encode_batch_on_tape"), ("imualign", "fit"),
            ("Tape", "record")} <= changed
    assert ("imualign.signalio", "content_hash") not in changed
    assert _same_bindings(before, _bindings())


def test_fingerprint_tells_environments_apart(monkeypatch):
    monkeypatch.delenv("IMU_ALIGN_THREADS", raising=False)
    first = run.fingerprint(ROOT)
    assert first["nproc"] >= 1 and first["numpy"] == np.__version__
    monkeypatch.setenv("IMU_ALIGN_THREADS", "4")
    second = run.fingerprint(ROOT)
    assert first["env_key"] != second["env_key"]
    assert first["source_sha256"] == second["source_sha256"]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_stopwatch_scales_cpu_time_to_nominal_speed(monkeypatch):
    probes = iter([0.002, 0.006])  # the host runs at half the nominal speed
    monkeypatch.setattr(speed, "probe_s", lambda: next(probes))
    monkeypatch.setattr(speed, "PROBE_NOMINAL_S", 0.002)
    watch = speed.Stopwatch()
    result, scaled, raw = watch.time(lambda: sum(range(200_000)))
    assert result == sum(range(200_000))
    assert raw > 0 and scaled == pytest.approx(raw * 0.5)
    assert watch.speeds == [pytest.approx(0.5)]
