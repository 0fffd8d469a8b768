"""Plumbing shared by the workloads: environment, statistics, scratch space.

Nothing here imports numpy: ``run.py`` pins the BLAS thread count in the
environment (:func:`pin_blas_threads`) before numpy loads, and imports the
workloads only afterwards.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import resource
import shutil
import time
from pathlib import Path

#: Set-ups per run, spread over it; ``setup_s`` is their median.
SETUPS = 5
#: Largest tolerated gap between the traced wall time and the summed self
#: times of the benchmark's own top-level spans.
MAX_ACCOUNTING_GAP = 0.01

#: ``unit_s`` is this percentile of a run's unit times, not their median.
#: The shared machine runs in speed spells of seconds to minutes that only
#: ever add time (back-to-back units of one process moved between 0.32 and
#: 0.56 s), and a spell can cover half a run: over ten runs the median's
#: quartile distance reached 0.33 on serve-mixed.  A code change moves
#: every unit; a low percentile follows it and not the spells.
UNIT_PERCENTILE = 10

#: BLAS threads per run.  One thread keeps a run off the second core of a
#: small shared machine, which is where run-to-run spread came from.
BLAS_THREADS = 1

_BLAS_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_blas_threads() -> None:
    """Fix every BLAS/OpenMP thread-count variable; call before numpy loads."""
    for name in _BLAS_VARS:
        os.environ[name] = str(BLAS_THREADS)


def environment_record() -> dict:
    """What the figures depend on besides the code and the seed."""
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    """Median of a non-empty sequence."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values, q: float) -> float:
    """Linearly interpolated ``q``-th percentile (numpy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def setups_due(done: int, elapsed: float, seconds: float) -> int:
    """How many set-ups to run now, ``done`` having run and ``elapsed`` of
    the run's ``seconds`` gone, so that ``SETUPS`` spread evenly over it.

    A set-up is short, so back to back they would all sample one spell of
    a shared machine while the timed work samples several.
    """
    return max(0, min(SETUPS, 1 + int(SETUPS * elapsed / seconds)) - done)


def repeat_for(seconds: float, minimum: int):
    """Yield 0, 1, ... until ``seconds`` pass, at least ``minimum`` times.

    A further repetition starts only if less than half of one, judged by
    the last, would run past ``seconds``: run length stays close to the
    budget when one repetition takes several seconds.
    """
    end = time.perf_counter() + seconds
    index, last = 0, 0.0
    while True:
        start = time.perf_counter()
        if index >= minimum and start + last / 2 >= end:
            return
        yield index
        last = time.perf_counter() - start
        index += 1


@dataclasses.dataclass
class Report:
    """What one workload run found, before it is printed."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    failures: list[str]
    deterministic: dict = dataclasses.field(default_factory=dict)
    #: Workload figures that are printed for reading but gated by no bound.
    figures: dict = dataclasses.field(default_factory=dict)

    def result_line(self, units: dict[str, str]) -> str:
        """The result object as one JSON line; ``units`` by metric."""
        return json.dumps(
            {
                "correct": self.failed == 0,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": float(value), "unit": units[name]}
                    for name, value in self.metrics.items()
                },
            }
        )


class Gates:
    """Correctness checks of one run; each failed check counts in ``failed``."""

    def __init__(self) -> None:
        self.checked = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        """Record one check; ``message`` describes the failure."""
        self.checked += 1
        if not ok:
            self.failures.append(message)
        return ok


class Scratch:
    """A private directory under the checkout, removed on exit."""

    def __init__(self, root: Path, name: str) -> None:
        self.path = root / ".e2ebench_work" / f"{name}-{os.getpid()}"

    def __enter__(self) -> "Scratch":
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    def fresh(self, name: str) -> Path:
        """An empty subdirectory (emptied if it exists)."""
        path = self.path / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path
