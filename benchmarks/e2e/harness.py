"""The one timing loop of the end-to-end benchmark.

Everything that turns clock readings into reported numbers lives here
so every workload is timed the same way:

- :func:`timed_passes` repeats a pass until the measuring window is
  used up, with ``gc.collect()`` before each pass and the collector
  otherwise left alone.  Every pass of a run does **the same
  operations from the same starting state** and records one clock
  reading per operation, so reading *i* of two passes timed the same
  work;
- :func:`quiet` reduces the passes to one series: per operation, the
  lower quartile over passes.  The reference machine is a small guest
  of a shared host: identical passes take 0.28 to 0.71 s, most of them
  within a tenth of the floor, with a long tail of slow ones that come
  in episodes of seconds, and now and then a few seconds faster than
  the floor (see README.md).  Interference only ever adds time, so a
  low quantile reports the program and a median reports how many
  episodes the run met; the minimum would report the rare fast seconds
  for the operations that happened to meet them.  A stall the program
  causes (a compaction, a long chain) recurs at the same operation in
  every pass and survives the quantile; interference from outside
  does not;
- throughputs are sums, latencies percentiles (:func:`percentile`,
  nearest rank) of that one quiet series;
- :func:`fingerprint` records the machine the numbers belong to.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
from multiprocessing import resource_tracker
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Sequence, TypeVar

import numpy as np

T = TypeVar("T")

#: Passes a window must hold before a quantile over them means anything.
MIN_PASSES = 3


def timed_passes(
    run_pass: Callable[[int], T],
    seconds: float,
    min_passes: int = MIN_PASSES,
) -> List[T]:
    """Call ``run_pass(i)`` for i = 0, 1, ... for about ``seconds``
    and at least ``min_passes`` times.

    Another pass starts only while half of it still fits the window
    (taking it to last as long as the passes so far did on average),
    so the window is missed by half a pass at most, either way.  The
    pass does its own timing (it knows which part of it is the
    measured operation); this loop only decides how many passes fit.
    """
    results: List[T] = []
    start = perf_counter()
    elapsed = 0.0
    while (
        len(results) < min_passes
        or elapsed + 0.5 * elapsed / len(results) < seconds
    ):
        gc.collect()
        results.append(run_pass(len(results)))
        elapsed = perf_counter() - start
    return results


#: The quantile over passes that :func:`quiet` reports.
QUIET_QUANTILE = 0.25


def quiet(series: Sequence[Sequence[float]]) -> np.ndarray:
    """Per operation, the lower quartile over passes.

    ``series[p][i]`` is pass *p*'s clock reading of operation *i*; an
    operation that raised reads NaN and is skipped.
    """
    stacked = np.asarray(series, dtype=float)
    if stacked.ndim != 2 or not stacked.size:
        raise ValueError("passes must record the same, non-empty operations")
    return np.nanquantile(stacked, QUIET_QUANTILE, axis=0)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100] of ``samples``."""
    if not len(samples):
        raise ValueError("percentile of no samples")
    ordered = np.sort(np.asarray(samples, dtype=float))
    rank = max(int(math.ceil(q / 100.0 * len(ordered))), 1)
    return float(ordered[rank - 1])


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count of per-pass values."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


def current_rss_mb() -> float:
    """Resident set right now (Linux ``/proc``; 0 elsewhere)."""
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
    except (OSError, ValueError, IndexError):
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0)


def reap_children() -> None:
    """Stop every process this one started and wait until each ended.

    The sharded probe's shared-memory segments start
    ``multiprocessing``'s resource tracker, a helper process that
    otherwise ends only some time *after* its parent, so the run would
    leave a process behind.  Its stop hook closes the tracker's pipe
    and waits for it.  A pool worker still alive here (its engine never
    got closed) is killed and waited for.
    """
    # Children first: a forked worker holds the tracker's pipe open.
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def git_rev(root: Path) -> str:
    """Short commit id of ``root``, or "unknown" outside a checkout
    with git metadata (the benchmark driver runs from a plain copy)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fingerprint(root: Path) -> Dict[str, object]:
    return {
        "usable_cores": usable_cores(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": f"{platform.system()} {platform.machine()}",
        "git_rev": git_rev(root),
    }
