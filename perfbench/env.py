"""Process environment for benchmark runs: thread pinning, the package import, the record.

``pin_threads`` must run before numpy is imported anywhere in the process,
because OpenBLAS and OpenMP read their thread counts once, at load time.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# One BLAS/OpenMP thread on every commit of a comparison: the runs are
# single-process, and a fixed count keeps timings comparable across machines
# with different core counts and steadier on a shared machine.
THREAD_VARS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class MissingProgramError(RuntimeError):
    """The checkout holds no importable ``growthfit`` package under ``src/``."""


def pin_threads() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("thread settings must be fixed before numpy is imported")
    os.environ.update(THREAD_VARS)


def import_growthfit():
    """Import ``growthfit`` from this checkout's ``src/``, never from anywhere else."""
    package = SRC / "growthfit"
    if not (package / "__init__.py").is_file():
        raise MissingProgramError(f"no growthfit package at {package}")
    sys.path.insert(0, str(SRC))
    module = importlib.import_module("growthfit")
    if Path(module.__file__).resolve().parent != package.resolve():
        raise MissingProgramError(f"growthfit was imported from {module.__file__}, not {package}")
    return module


def source_digest() -> str:
    """SHA-256 over the package sources and the benchmark's own files."""
    digest = hashlib.sha256()
    files = sorted((SRC / "growthfit").glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    for path in files:
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def environment_record() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
        "platform": platform.platform(),
    }
