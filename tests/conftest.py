"""Shared pytest hooks. The bit-for-bit batch-invariance tests rest on the
kernels the BLAS picks, so the report header names the BLAS numpy runs on
and its thread setting, and the `blas` fixture gives the same line to a
failure message. Training speed rests on how glibc's allocator hands out
and returns pages, so the header also names the allocator settings in the
environment: a run with pinned thresholds shows as such. The header also
gives the line count of the package source, `wc -l src/imualign/*.py`,
the size figure the ROADMAP tracks, and the orjson version, as the IMU CSV
and JSONL loaders' bits rest on its number parser matching numpy's and
`json.loads`'. Hypothesis keeps its example database
and constants in the repo's own ignored `.hypothesis/`, whatever the
working directory of the run."""

import os
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

_REPO = Path(__file__).resolve().parent.parent
set_hypothesis_home_dir(_REPO / ".hypothesis")


def _blas() -> str:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return f"{info.get('name')} {info.get('version')}, OPENBLAS_NUM_THREADS={threads}"


def _allocator_settings() -> str:
    names = sorted(k for k in os.environ if k.startswith("MALLOC_") or k == "GLIBC_TUNABLES")
    return " ".join(f"{k}={os.environ[k]}" for k in names) or "none"


def _source_lines() -> int:
    package = _REPO / "src" / "imualign"
    return sum(p.read_bytes().count(b"\n") for p in package.glob("*.py"))


def pytest_report_header(config):
    return [f"numpy {np.__version__}, orjson {orjson.__version__}, BLAS {_blas()}, "
            f"allocator settings: {_allocator_settings()}",
            f"src/imualign/*.py: {_source_lines()} lines"]


@pytest.fixture(scope="session")
def blas() -> str:
    return _blas()
