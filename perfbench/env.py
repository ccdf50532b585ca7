"""Process set-up shared by the benchmark scripts.

Import this module before numpy: it pins every thread pool to one thread
so that a run measures a single-threaded process, and it puts the
checkout's ``src`` directory first on the import path so the benchmark
measures the library built from this checkout and nothing installed.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

os.environ.update(THREAD_PINS)


class MissingLibraryError(RuntimeError):
    """The checkout holds no ``src/slopepath`` package to measure."""


def use_checkout_library() -> None:
    """Make ``import slopepath`` resolve to this checkout's sources."""
    if not (SRC / "slopepath" / "__init__.py").is_file():
        raise MissingLibraryError(f"no slopepath package under {SRC}")
    sys.path.insert(0, str(SRC))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def describe() -> dict:
    """Machine, interpreter and library versions, plus the thread pins."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
    }
