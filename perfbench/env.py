"""Locations and process settings shared by the benchmark's entry points."""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

# The theorems suite calls numpy's SVD; one BLAS thread keeps the single
# client on one core and the timings free of thread start-up noise.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def setup() -> None:
    """Pin BLAS threads and put the checkout's ``src`` first on the path.

    Exits with status 2, before anything is measured, when the checkout has
    no library source to benchmark.
    """
    if not (SRC / "bicomplex" / "__init__.py").is_file():
        sys.stderr.write(f"error: no library source at {SRC / 'bicomplex'}\n")
        sys.exit(2)
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for child interpreters: BLAS pinned, checkout source only."""
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env
