"""Locate and import the mdhv package from the checkout's own source tree.

Kept free of numpy and mdhv imports so callers can start their set-up clock
before anything heavy is imported.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS thread per Python thread keeps the process within `nproc` threads:
# the program's matrices are at most (n, 3) @ (3, 3), far below any size at
# which a threaded BLAS would help.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class ProgramMissing(RuntimeError):
    """The checkout holds no mdhv source tree to benchmark."""


def pin_blas_threads() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")


def import_mdhv():
    """Import mdhv from `<root>/src`, refusing any other installed copy."""
    if not (SRC / "mdhv" / "__init__.py").is_file():
        raise ProgramMissing(f"no mdhv package under {SRC}")
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    mdhv = importlib.import_module("mdhv")
    if Path(mdhv.__file__).resolve().parent != SRC / "mdhv":
        raise ProgramMissing(f"imported mdhv from {mdhv.__file__}, not from {SRC}")
    for name in ("mdhv.cli", "mdhv.analysis", "mdhv.channel", "mdhv.sphere", "mdhv.quantum"):
        importlib.import_module(name)
    return mdhv


def git_commit() -> str:
    """Commit of the checkout, or 'unknown' when the checkout is not the top of a git work tree."""
    # the ceiling keeps git from searching the directories above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10, cwd=ROOT, env=env)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]
