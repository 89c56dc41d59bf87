"""Run every imualign CLI command on one small synthetic corpus and write the
sha256 of each file it leaves and of each command's stdout to one JSON file.

    python tools/parity.py OUT

OUT must be empty or absent. The commands run in OUT with relative paths, so
no stdout or manifest names it. The JSON, `OUT/parity.json`, keys files by
their path relative to OUT and stdouts by step name. Left out, because they
differ from run to run: `train`'s `wall_s` and the manifests' `started_at`
and `finished_at`. Stdouts and manifests are hashed as JSON re-written with
sorted keys and the CLI's indent.

Two checkouts give the same outputs when their JSONs are equal: copy this
script into the other checkout's `tools/` (it imports the package from the
`src/` beside it), run it there and here, and diff the two JSONs. Hashes are
compared on one machine; they are not pinned across machines.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from imualign import cli  # noqa: E402

EPOCHS = 2
ENCODER = ["--conv-channels", "8", "--conv-kernels", "7", "--conv-strides", "2",
           "--gru-hidden", "12", "--embed-dim", "16"]
CORPUS = "corpus"
CACHE = "windows.bin"
CKPT = f"run-ivt/ckpt-{EPOCHS}.bin"
VOLATILE = {"wall_s", "started_at", "finished_at"}


def _steps():
    """(name, argv) of every command, in order; each reads only what an earlier one wrote, and
    the last one, whose query is the first text anchor record inline, is made after they ran."""
    anchors = {"video": f"{CORPUS}/anchors_video.jsonl", "text": f"{CORPUS}/anchors_text.jsonl"}
    steps = [("synth", ["synth", "--seed", "5", "--n", "12", "--classes", "3", "--dim", "16",
                        "--noise", "0.05", "--window-s", "0.32", "--rate-hz", "200", "--out-dir", CORPUS])]
    csvs = [f"{CORPUS}/synth-{i:04d}.csv" for i in range(12)]
    steps.append(("ingest", ["ingest", *(a for c in csvs for a in ("--imu", c)), "--window-s", "0.32",
                             "--rate-hz", "200", "--out", CACHE]))
    for mode in ("iv", "it", "ivt"):
        steps.append((f"train-{mode}", [
            "train", "--cache", CACHE, "--video-anchors", anchors["video"], "--text-anchors", anchors["text"],
            "--mode", mode, "--epochs", str(EPOCHS), "--seed", "0", "--batch-size", "4", *ENCODER,
            "--run-dir", f"run-{mode}"]))
    for direction in ("text2imu", "imu2video", "video2imu", "imu2text"):
        modality = "text" if "text" in direction else "video"
        steps.append((f"eval-retrieval-{direction}", [
            "eval-retrieval", "--ckpt", CKPT, "--cache", CACHE, "--anchors", anchors[modality],
            "--direction", direction]))
    for protocol in ("zeroshot", "probe", "finetune"):
        steps.append((f"eval-classify-{protocol}", [
            "eval-classify", "--ckpt", CKPT, "--cache", CACHE, "--labels", f"{CORPUS}/labels.jsonl",
            "--protocol", protocol, "--class-anchors", f"{CORPUS}/class_anchors.jsonl", "--epochs", "3",
            "--batch-size", "4", "--run-dir", f"classify-{protocol}"]))
    for pool, name in ((CACHE, "cache"), (anchors["video"], "jsonl")):
        steps.append((f"retrieve-{name}", ["retrieve", "--ckpt", CKPT, "--pool", pool,
                                           "--query-anchor", anchors["text"], "--top-k", "5"]))
    yield from steps
    with open(anchors["text"], encoding="utf-8") as fh:  # written by the synth step
        record = fh.readline().strip()
    yield "retrieve-inline", ["retrieve", "--ckpt", CKPT, "--pool", CACHE, "--query-anchor", record, "--top-k", "5"]


def _json_digest(text: str) -> str:
    obj = json.loads(text)
    for key in VOLATILE:
        obj.pop(key, None)
    return hashlib.sha256(json.dumps(obj, indent=2, sort_keys=True).encode()).hexdigest()


def run(out: Path) -> dict:
    """Run every step in `out` and return the digests; SystemExit on a step that fails."""
    stdouts = {}
    cwd = os.getcwd()
    os.chdir(out)
    try:
        for name, argv in _steps():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            if code != 0:
                raise SystemExit(f"parity: step {name} exited {code}: {stderr.getvalue().strip()}")
            stdouts[name] = _json_digest(stdout.getvalue())
    finally:
        os.chdir(cwd)
    files = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        key = path.relative_to(out).as_posix()
        files[key] = (_json_digest(path.read_text()) if path.name == "manifest.json"
                      else hashlib.sha256(path.read_bytes()).hexdigest())
    return {"files": files, "stdout": stdouts}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/parity.py OUT", file=sys.stderr)
        return 2
    out = Path(argv[0])
    if out.exists() and any(out.iterdir()):
        print(f"parity: {out} is not empty", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    digests = run(out)
    (out / "parity.json").write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(out / "parity.json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
