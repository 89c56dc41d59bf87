"""Module boundaries: no imualign module reaches into another's private names
or imports a name it never uses, and the package exports exactly its public names."""

import ast
import types
from pathlib import Path

import imualign

PACKAGE = Path(imualign.__file__).parent


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_imports(path: Path) -> list[str]:
    """`_`-prefixed names that `path` imports from another imualign module,
    or reads as attributes of an imualign module it imports."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("imualign")):
            for alias in node.names:
                if _is_private(alias.name):
                    found.append(f"{path.name}:{node.lineno}: {alias.name}")
                elif node.module in (None, "imualign"):  # `from . import signalio [as s]`
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _is_private(node.attr)):
            found.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_no_module_imports_another_modules_private_names():
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _private_imports(path)]
    assert found == []


def test_the_guard_sees_private_imports(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from . import __version__, signalio as s\n"
                   "from .signalio import load_labels, _unit_rows\n"
                   "from imualign.cli import _emit\n"
                   "s._jsonl_records(s.CACHE_MAGIC)\n")
    assert _private_imports(src) == ["m.py:2: _unit_rows", "m.py:3: _emit", "m.py:4: s._jsonl_records"]


def _unused_imports(path: Path) -> list[str]:
    """Names that `path` binds by an import statement and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                imported.setdefault((alias.asname or alias.name).split(".")[0], node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in read]


def test_no_module_imports_a_name_it_does_not_use():
    found = [hit for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
             for hit in _unused_imports(path)]
    assert found == []


def test_the_guard_sees_unused_imports(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from __future__ import annotations\n"
                   "import os\n"
                   "import os.path as osp, json\n"
                   "import numpy as np\n"
                   "from .train import MODES, Checkpoint\n"
                   "def f(x: np.ndarray) -> dict:\n"
                   "    return {m: json.dumps(x) for m in MODES}\n")
    assert _unused_imports(src) == ["m.py:2: os", "m.py:3: osp", "m.py:5: Checkpoint"]


PUBLIC = [
    "AnchorEmbedding", "ClassifierHead", "CoverageError", "DataError", "EncoderConfig", "EncoderParams",
    "FormatError", "GraphError", "ImuAlignError", "ImuStream", "NumericError", "ParallelDataset", "Pool",
    "ProbeConfig", "ShapeMismatchError", "TrainConfig", "WindowSet", "assemble_dataset", "classification_metrics",
    "encode_batch", "eval_retrieval", "fine_tune", "fit", "init_params", "load_anchor_embeddings",
    "load_checkpoint", "load_imu_stream", "make_windows", "resample", "save_checkpoint", "synth_dataset",
    "train_probe", "zeroshot_classify",
]


def test_the_package_exports_its_public_names_and_no_module():
    assert imualign.__all__ == PUBLIC
    modules = [name for name in PUBLIC if isinstance(getattr(imualign, name), types.ModuleType)]
    assert modules == []
    star: dict = {}
    exec("from imualign import *", star)
    assert sorted(k for k in star if k != "__builtins__") == PUBLIC
