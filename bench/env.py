"""Process environment of the benchmark: paths, BLAS pinning and the run record.

Only the standard library is imported here, so ``prepare()`` can pin the BLAS
thread pools before anything loads numpy.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "wipdyn"
WORK = ROOT / ".bench_work"

# Every workload is one thread in one process; the benchmark machine has two
# cores, so a BLAS pool would only add contention and run-to-run spread.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def prepare() -> bool:
    """Pin BLAS to one thread and put the checkout's ``src`` on the path.

    Returns False when the checkout holds no wipdyn sources to measure.
    """
    for var in BLAS_VARS:
        os.environ[var] = "1"
    if not (PACKAGE / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def _git_commit() -> str:
    """HEAD of the checkout, read from its own .git only ('unknown' without one)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_loc() -> int:
    """Physical lines of the package's Python sources (what ``wc -l`` counts)."""
    return sum(len(f.read_bytes().splitlines()) for f in sorted(PACKAGE.rglob("*.py")))


def describe() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "commit": _git_commit(),
        "src_loc": source_loc(),
    }
