"""`tools/parity.py`: the whole CLI, run twice on one corpus, leaves the same
bytes (criterion 9 at the CLI level). No hash is pinned across machines."""

import json
import subprocess
import sys
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "parity.py"


def _parity(out: Path) -> subprocess.CompletedProcess:
    # the warning rule pyproject.toml sets for the tests, so a CLI path that leaks a RuntimeWarning fails
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(_SCRIPT), str(out)],
                          capture_output=True, text=True, timeout=300)


def test_two_parity_runs_give_the_same_digests(tmp_path):
    runs = []
    for name in ("a", "b"):
        proc = _parity(tmp_path / name)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads((tmp_path / name / "parity.json").read_text()))
    first, second = runs
    assert first == second
    assert set(first["stdout"]) == {
        "synth", "ingest", "train-iv", "train-it", "train-ivt", "eval-retrieval",
        *(f"eval-classify-{p}" for p in ("zeroshot", "probe", "finetune")), "retrieve-cache", "retrieve-jsonl",
        "retrieve-inline"}
    assert {"windows.bin", "run-iv/ckpt-2.bin", "run-ivt/manifest.json", "classify-probe/head.bin",
            "classify-finetune/ckpt-finetuned.bin", "corpus/synth-0000.csv"} <= set(first["files"])


def test_parity_refuses_an_output_directory_that_is_not_empty(tmp_path):
    (tmp_path / "left-over").write_text("x")
    proc = _parity(tmp_path)
    assert proc.returncode == 2 and proc.stderr == f"parity: {tmp_path} is not empty\n"
    assert [p.name for p in tmp_path.iterdir()] == ["left-over"]
