"""Shared plumbing for the benchmark: environment, statistics, processes.

Nothing here imports the program under test at module import time, so
``run.py`` can refuse to run (exit 2) in a checkout that lacks ``src/``
before anything heavy happens.
"""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

#: Checkout root: the directory holding ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: Scratch space for stores, journals and logs (git-ignored, removed
#: at the end of every run).
WORK_ROOT = ROOT / ".perfbench-work"

#: Variables that would override the program's own defaults.  The
#: benchmark measures the default configuration, so they are dropped
#: from its own environment before numpy is imported and from every
#: child it starts.
THREAD_OVERRIDES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 60.0


def sanitize_environment() -> dict[str, str]:
    """Drop thread-count and ``REPRO_*`` overrides from ``os.environ``.

    Returns the removed variables so the run can report what it
    overrode.  Mutates this process's environment on purpose: children
    inherit it (with ``PYTHONPATH`` pointing at ``src/``), and numpy
    reads the BLAS variables when first imported.
    """
    removed = {}
    for name in list(os.environ):
        if name in THREAD_OVERRIDES or name.startswith("REPRO_"):
            removed[name] = os.environ.pop(name)
    os.environ["PYTHONPATH"] = str(SRC)
    return removed


def _blas_threads() -> int | None:
    """OpenBLAS's thread count in this process, read through ctypes."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted(
        {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    )
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment_record(removed: dict[str, str]) -> dict:
    """CPU, interpreter, numpy/BLAS and process-model facts for a result."""
    import multiprocessing

    import numpy

    blas_version = None
    try:
        config = numpy.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, AttributeError):  # numpy < 1.26 has no dict mode
        pass
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "blas_threads": _blas_threads(),
        "mp_start_method": multiprocessing.get_all_start_methods()[0],
        "platform": platform.platform(),
        "overrides_removed": sorted(removed),
    }


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def percentile(values: list[float], q: float) -> float | None:
    """The ``q``-th percentile, or ``None`` when it is not supported.

    A percentile is reported only when at least ten samples lie strictly
    beyond it; otherwise its value rests on a handful of outliers.
    Nearest-rank on the sorted samples.
    """
    if not values or not 0.0 < q < 100.0:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    value = ordered[rank - 1]
    beyond = sum(1 for v in ordered if v > value)
    if beyond < 10:
        return None
    return float(value)


# ---------------------------------------------------------------------------
# Operation accounting
# ---------------------------------------------------------------------------


class Ledger:
    """Counts attempted and failed operations and records why each failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def expect(self, what: str, actual, expected) -> bool:
        """One correctness check against a reference value."""
        return self.op(actual == expected, f"{what}: got {actual!r}, expected {expected!r}")


def load_references() -> dict:
    return json.loads((BENCH_DIR / "references.json").read_text())


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChildRun:
    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    output: str


def run_child(argv: list[str], log_path: Path) -> ChildRun:
    """Run one program child, timing spawn to exit.

    The child gets its own session so a timeout can stop it together
    with any pool workers it started.  ``maxrss_mb`` comes from
    ``wait4`` and covers the child and every descendant it waited for.
    """
    log_path.parent.mkdir(parents=True, exist_ok=True)
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            stdout=log,
            stderr=subprocess.STDOUT,
            cwd=ROOT,
            start_new_session=True,
        )

        def _kill() -> None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(CHILD_TIMEOUT_S, _kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall_s = time.perf_counter() - start
    # wait4 reaped the child; tell Popen so it does not wait again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        returncode=proc.returncode,
        wall_s=wall_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        output=log_path.read_text(errors="replace"),
    )


def python_argv(*args: str) -> list[str]:
    return [sys.executable, *args]


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def emit(correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> None:
    """Print the result object as the last line of standard output."""
    payload = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    sys.stdout.flush()
    print(json.dumps(payload), flush=True)
