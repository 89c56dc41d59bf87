"""Compare the benchmark at a parent revision and at the working tree, in
alternating pairs of runs.

    python3 tools/ab.py --rev REV --workload W --seed S --pairs N [--seconds T] [--claim METRIC]

REV is checked out with `git worktree add` into a temporary directory, which
is removed on exit, also after an error. Each pair runs
`perfbench/run.py --workload W --seed S --seconds T --trace 0` once in each
tree, the parent first in even pairs and the change first in odd ones, and
reads the result object from the last line of each run's stdout. T defaults
to BENCHMARK.json's `run_seconds`.

The tool prints one JSON object. For every end-to-end metric of the working
tree's BENCHMARK.json it gives each side's median and quartiles, the change's
wins out of N pairs (ties count for neither side), and whether the change's
median stays within the metric's `bound` of the parent's in its `better`
direction. A metric is not `resolved`, so its bound shows nothing, when
either side's interquartile range is wider than `bound` times the parent's
median, unless every change run reads better than every parent run. With
--claim METRIC it also says whether the change won at least 9 of every 10
pairs and whether its median is better than the parent's by more than the
parent's interquartile range. A run that exits non-zero or reports
failed operations stops the tool with exit 1.
"""

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def compare(parent: list[dict], change: list[dict], spec: list[dict], claim: str | None = None) -> dict:
    """The comparison of pairs of runs: `parent[i]` and `change[i]` are the
    metric values (name: number) of pair i, `spec` is BENCHMARK.json's
    `end_to_end` list. Pure: no I/O."""
    out: dict = {"pairs": len(parent), "metrics": {}}
    for m in spec:
        name, sign = m["name"], (1 if m["better"] == "higher" else -1)
        a, b = [run[name] for run in parent], [run[name] for run in change]
        p, c = _summary(a), _summary(b)
        limit = p["median"] * (1 - sign * m["bound"])  # the worst median the bound allows
        spread = max(p["q3"] - p["q1"], c["q3"] - c["q1"])
        separated = min(sign * y for y in b) > max(sign * x for x in a)  # every change run reads better
        out["metrics"][name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"], "parent": p, "change": c,
            "change_wins": sum(sign * (y - x) > 0 for x, y in zip(a, b)),
            "within_bound": sign * (c["median"] - limit) >= 0,
            "resolved": spread <= m["bound"] * abs(p["median"]) or separated,
        }
    if claim is not None:
        m = out["metrics"][claim]
        sign = 1 if m["better"] == "higher" else -1
        wins_enough = m["change_wins"] >= math.ceil(0.9 * len(parent))
        beyond_iqr = sign * (m["change"]["median"] - m["parent"]["median"]) > m["parent"]["q3"] - m["parent"]["q1"]
        out["claim"] = {"metric": claim, "wins_at_least_9_of_10": wins_enough,
                        "median_gain_exceeds_parent_iqr": beyond_iqr, "holds": wins_enough and beyond_iqr}
    return out


def _run(tree: Path, args) -> dict:
    """One untraced benchmark run in `tree`; its metric values by name. Exits 1
    on a run that fails or reports failed operations."""
    argv = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"ab: run in {tree} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if result["failed"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"ab: run in {tree} reports {result['failed']} failed of {result['attempted']} operations")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="alternating parent/change benchmark pairs")
    parser.add_argument("--rev", required=True, help="the parent revision")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--claim", choices=[m["name"] for m in spec["end_to_end"]])
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    scratch = Path(tempfile.mkdtemp(prefix="ab-"))
    parent_tree = scratch / "parent"
    try:
        if subprocess.run(["git", "worktree", "add", "--detach", "--quiet", str(parent_tree), args.rev],
                          cwd=ROOT).returncode:
            raise SystemExit(f"ab: cannot check out {args.rev}")
        runs: dict = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = [("parent", parent_tree), ("change", ROOT)]
            for side, tree in order if i % 2 == 0 else order[::-1]:
                runs[side].append(_run(tree, args))
    finally:
        if parent_tree.exists():
            subprocess.run(["git", "worktree", "remove", "--force", str(parent_tree)], cwd=ROOT)
        shutil.rmtree(scratch, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT)
    report = compare(runs["parent"], runs["change"], spec["end_to_end"], args.claim)
    print(json.dumps({"rev": args.rev, "workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, **report}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
