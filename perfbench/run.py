"""imualign benchmark: one workload per run, from the root of a checkout.

    python3 perfbench/run.py --workload pretrain --seed 1 --seconds 10 --trace 0

The inputs are generated from --seed in a separate process, into a
temporary directory under .perfbench/. With --trace 0 the run measures the
workload untraced and prints every end-to-end metric of BENCHMARK.json;
with --trace 1 it measures it once untraced and once traced, and prints
every per-layer metric. The last line of stdout is the result object; the
line before it is the environment fingerprint. A copy of both, plus the
samples and any failed checks, goes to .perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":  # run as a script: make the benchmark importable
    sys.path.insert(0, str(ROOT))

from perfbench import speed  # noqa: E402
from perfbench.sizes import RUN_SIZES, SIZES, WORKLOADS  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_REPS = 3


def pin_threads() -> None:
    """One package worker (IMU_ALIGN_THREADS unset) and one BLAS thread, so
    that the program runs on one thread at a time and its CPU time is its
    run time on an idle core. Call before numpy loads."""
    os.environ.pop("IMU_ALIGN_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


# ---------------------------------------------------------------------------
# environment fingerprint


def _blas_threads():
    import numpy

    libs = Path(numpy.__file__).resolve().parents[1] / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.argtypes, func.restype = [], ctypes.c_int
                return int(func())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = root / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def fingerprint(root: Path) -> dict:
    """What makes two runs comparable. Runs with different `env_key`s were
    taken under different environments; `git_commit` and `source_sha256`
    name the code measured and are left out of the key."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = None
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "imu_align_threads": os.environ.get("IMU_ALIGN_THREADS"),
        "cpu": _cpu_model(),
        "machine": platform.machine(),
    }
    env["env_key"] = hashlib.sha256(json.dumps(env, sort_keys=True).encode()).hexdigest()[:16]
    source = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        source.update(str(path.relative_to(root)).encode())
        source.update(path.read_bytes())
    env["git_commit"] = _git_commit(root)
    env["source_sha256"] = source.hexdigest()
    return env


# ---------------------------------------------------------------------------
# measurement


def generate(out: Path, seed: int, makes: list[str]) -> None:
    argv = [sys.executable, str(ROOT / "perfbench" / "gen.py"), "--out", str(out), "--seed", str(seed)]
    for item in makes:
        argv += ["--make", item]
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)


def _inputs(workloads, base: Path, workload: str, size_name: str, seed: int, scratch: Path):
    folder = base / f"{workload}-{size_name}"
    manifest = json.loads((folder / "manifest.json").read_text())
    return workloads.Inputs(folder, SIZES[size_name][workload], seed, manifest, scratch)


def _median(ledger, names) -> dict:
    """Each metric's median over the operations of the run."""
    return {name: statistics.median(ledger.samples[name]) if ledger.samples[name] else 0.0
            for name in names}


def _take_turns(runs) -> None:
    """Advance several workload runs one operation at a time, always the one
    that has had the least time so far, so that each gets an equal share."""
    used, done = {run: 0.0 for run in runs}, object()
    while used:
        run = min(used, key=used.get)
        start = time.perf_counter()
        if next(run, done) is done:
            del used[run]
        else:
            used[run] += time.perf_counter() - start


def measure(workload: str, seed: int, seconds: float, trace: bool, base: Path,
            size: str = "full") -> dict:
    """Run one workload on the inputs generated under `base`; returns the
    result object (correct/attempted/failed/metrics without units) plus
    `problems`, `samples` and the `tracer` of a traced run."""
    start = speed.clock()
    import imualign  # noqa: F401  (the program's import is part of its set-up)
    import imualign.cli  # noqa: F401
    raw_import_s = speed.clock() - start

    from perfbench import workloads as wl  # after the timed import: it imports imualign

    setup_watch = speed.Stopwatch()
    import_s = setup_watch.scale(raw_import_s)

    main_size, ref_size, min_ops, ref_min_ops = RUN_SIZES[size]
    scratch = base / "scratch"
    scratch.mkdir(exist_ok=True)
    inputs = _inputs(wl, base, workload, main_size, seed, scratch)
    setup, run = wl.WORKLOADS[workload]
    tracer = None
    if trace:
        config = imualign.EncoderConfig()
        tracer = Tracer([w.shape for w in imualign.init_params(config, 0).conv_weights])
        tracer.install()
    def set_up():
        with tracer.span("bench.setup") if tracer else contextlib.nullcontext():
            return setup(inputs)

    setup_times, state = [], None
    for _ in range(SETUP_REPS):
        state = None  # one set-up's state alive at a time, as in a fresh process
        state, setup_s, _ = setup_watch.time(set_up)
        setup_times.append(setup_s)

    ledger = wl.Ledger()
    budget = wl.Budget(seconds, min_ops)
    if tracer:
        tracer.uninstall()
    _take_turns([run(state, inputs, budget, ledger)])
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ledgers = [ledger]

    if tracer:
        traced = wl.Ledger(tracer)
        tracer.install()
        try:
            _take_turns([run(state, inputs, wl.Budget(counts=budget.counts), traced)])
        finally:
            tracer.uninstall()
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = traced.timed_s - ledger.timed_s
        metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / ledger.timed_s
        ledgers.append(traced)
    else:
        metrics = {"setup_s": import_s + statistics.median(setup_times),
                   "peak_rss_mib": peak_rss_mib}
        metrics.update(_median(ledger, wl.OWN_METRICS[workload]))
        # every other workload's end-to-end metrics, from a small pass run
        # for `seconds` more after this workload's peak memory has been read
        # and its state dropped; the three workloads take turns, so that each
        # is sampled across it
        state = None
        others = [w for w in WORKLOADS if w != workload]
        refs = []
        for other in others:
            ref = _inputs(wl, base, other, ref_size, seed, scratch)
            ref_setup, ref_run = wl.WORKLOADS[other]
            ref_budget = wl.Budget(seconds, ref_min_ops, ref.size.get("counts"))
            refs.append(ref_run(ref_setup(ref), ref, ref_budget, ledger))
        _take_turns(refs)
        for other in others:
            metrics.update(_median(ledger, wl.OWN_METRICS[other]))
    failed = sum(lg.failed for lg in ledgers)
    return {"correct": failed == 0, "attempted": sum(lg.attempted for lg in ledgers),
            "failed": failed, "problems": [p for lg in ledgers for p in lg.problems],
            "samples": dict(ledger.samples), "metrics": metrics, "tracer": tracer,
            "speeds": {"setup": setup_watch.speeds, "ops": ledger.stopwatch.speeds},
            "timed_cpu_s": ledger.raw_s}


def makes_for(workload: str, trace: bool, size: str = "full") -> list[str]:
    main_size, ref_size, _, _ = RUN_SIZES[size]
    makes = [f"{workload}:{main_size}"]
    if not trace:
        makes += [f"{other}:{ref_size}" for other in WORKLOADS if other != workload]
    return makes


def with_units(metrics: dict, spec: list[dict]) -> dict:
    """Metrics in BENCHMARK.json order with their units; the names must
    match the spec exactly."""
    names = [m["name"] for m in spec]
    if set(metrics) != set(names):
        raise RuntimeError(f"metric names differ from BENCHMARK.json: "
                           f"missing {sorted(set(names) - set(metrics))}, "
                           f"unknown {sorted(set(metrics) - set(names))}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="imualign benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "imualign" / "__init__.py").is_file():
        print(f"error: no imualign sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(ROOT / "src"))

    out_dir = ROOT / ".perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    base = ROOT / ".perfbench" / f"tmp-{os.getpid()}"
    wall_start = time.perf_counter()
    try:
        generate(base, args.seed, makes_for(args.workload, bool(args.trace)))
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), base)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    final = {"correct": result["correct"], "attempted": result["attempted"],
             "failed": result["failed"], "metrics": with_units(result["metrics"], SPEC[kind])}
    env = fingerprint(ROOT)
    host = {"speeds": result["speeds"], "timed_cpu_s": result["timed_cpu_s"],
            "wall_s": time.perf_counter() - wall_start}
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result["tracer"].write_spans(stem.with_suffix(".spans.jsonl"))
    stem.with_suffix(".json").write_text(json.dumps(
        {"fingerprint": env, "result": final, "problems": result["problems"],
         "samples": result["samples"], "host": host}, indent=1, sort_keys=True) + "\n")
    for problem in result["problems"]:
        print(f"failed: {problem}", file=sys.stderr)
    for name, m in final["metrics"].items():
        print(f"{args.workload:9s} {name:40s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"fingerprint": env}, sort_keys=True))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
