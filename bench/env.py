"""Process environment and provenance for benchmark runs.

``pin_and_locate`` must run before numpy is first imported: it pins every
BLAS pool to one thread and puts the checkout's ``src`` on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingProgram(SystemExit):
    """Raised when the checkout holds no ``src/gpcn`` package to measure."""


def pin_and_locate() -> None:
    """Pin BLAS to one thread and make ``import gpcn`` load this checkout's source."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "gpcn", "__init__.py")):
        raise MissingProgram(f"no gpcn package under {SRC}; run from a full checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if BENCH_DIR not in sys.path:
        sys.path.insert(0, BENCH_DIR)
    import gpcn
    if os.path.dirname(os.path.dirname(os.path.abspath(gpcn.__file__))) != SRC:
        raise MissingProgram(f"gpcn was imported from {gpcn.__file__}, not from {SRC}")


def _git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git repositories."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "gpcn")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def provenance() -> dict:
    import numpy as np

    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "cores": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }
