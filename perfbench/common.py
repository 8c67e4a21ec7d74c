"""Shared plumbing for the repository benchmark: paths, CPU placement,
the segmented measured phase, process accounting and the end-to-end
metrics."""

from __future__ import annotations

import bisect
import os
import random
import shutil
import statistics
import sys
import tempfile
import time
from typing import Callable, Dict, List

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
# Scratch space for stores and span dumps; one subdirectory per run,
# removed when the run ends.
WORK_ROOT = os.path.join(ROOT, ".perfbench")

# Every measured process runs on this vCPU.  The load generator of a
# served workload shares it with the server: on a 2-vCPU host that was
# the steadiest placement measured (see PROVENANCE.md).
MEASURED_CPU = 1

# A run performs its set-up SETUPS times before the measured phase (the
# last one serves it) and SETUPS times after it, from the data as it was
# before the phase; ``setup_s`` is the median of all of them, so it
# samples the host in two stretches many seconds apart.
SETUPS = 3


def require_sources() -> None:
    """Exit non-zero, printing no result, when the program is absent."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write("perfbench: no program sources at %s\n" % SRC)
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def server_env() -> Dict[str, str]:
    """Environment for child Python processes: the program on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # Fixed string hashing: set and dict orders inside the server, and so
    # the kernel's bucket walks, repeat from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def die_with_parent() -> None:
    """In a child before exec: SIGKILL it if the benchmark dies first."""
    import ctypes
    import signal

    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def pin() -> List[int]:
    """Pin this process (and so every process it starts) to the measured
    vCPU when the host has it; returns the CPU set in force."""
    available = sorted(os.sched_getaffinity(0))
    target = {MEASURED_CPU} if MEASURED_CPU in available else {available[-1]}
    os.sched_setaffinity(0, target)
    return sorted(target)


class WorkDir:
    """A per-run scratch directory under the checkout, removed on exit."""

    def __init__(self):
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)

    def file(self, name: str) -> str:
        return os.path.join(self.path, name)

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run's directory is still there


def percentile(sorted_values: List[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation."""
    if not sorted_values:
        return 0.0
    position = q * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (
        sorted_values[high] - sorted_values[low]
    ) * (position - low)


def proc_cpu_seconds(pid: int) -> float:
    """On-CPU seconds (user+system) of a live process, summed over its
    threads from ``/proc/<pid>/task/*/schedstat`` (nanoseconds; the
    ``stat`` tick counts are too coarse for one-second segments)."""
    total = 0
    for tid in os.listdir("/proc/%d/task" % pid):
        try:
            with open("/proc/%d/task/%s/schedstat" % (pid, tid)) as handle:
                total += int(handle.read().split()[0])
        except FileNotFoundError:
            pass  # the thread ended between listing and reading
    return total / 1e9


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    with open("/proc/%d/status" % pid) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for pid %d" % pid)


class Segment:
    """One stretch of a measured phase, between two host-clock samples."""

    __slots__ = ("latencies", "wall", "cpu", "scale")

    def __init__(self, latencies: List[float], wall: float, cpu: float, scale: float):
        self.latencies = latencies  # seconds, one per op
        self.wall = wall
        self.cpu = cpu  # on-CPU seconds of the working process
        self.scale = scale  # to the nominal host speed (hostclock.py)


def measure(
    ops: int,
    segment_ops: int,
    run_segment: Callable[[int, int], List[float]],
    clock,
    cpu_seconds: Callable[[], float],
    idle: Callable[[], None] = lambda: None,
) -> List[Segment]:
    """A closed loop over ``ops`` ops, cut into segments of
    ``segment_ops``.  ``run_segment(lo, hi)`` runs ops ``lo..hi-1`` to
    completion and returns their latencies.  Between segments ``idle()``
    waits until the program has finished its work, then ``clock``
    samples the host's speed while nothing of the program runs."""
    segments = []
    idle()
    cpu_mark = cpu_seconds()
    before = clock.sample()
    for lo in range(0, ops, segment_ops):
        started = time.perf_counter()
        latencies = run_segment(lo, min(lo + segment_ops, ops))
        wall = time.perf_counter() - started
        idle()
        cpu_now = cpu_seconds()
        after = clock.sample()
        segments.append(
            Segment(latencies, wall, cpu_now - cpu_mark, clock.scale(before, after))
        )
        cpu_mark = cpu_now
        before = after
    return segments


# The latency percentiles are medians over parts of the run of at least
# PART_OPS ops each (equal op counts, in op order), so a burst of
# disturbed ops in one part does not move them, while each part's 90th
# percentile still has about 20 ops above it (a run of fewer ops is one
# part).
PART_OPS = 200


def end_to_end(
    segments: List[Segment], setups_s: List[float], peak_rss_mb: float
) -> Dict[str, float]:
    """The end-to-end metrics of one measured phase, every time rescaled
    to the nominal host speed op by op (``setups_s`` already are)."""
    ops = sum(len(s.latencies) for s in segments)
    latencies = [t * s.scale for s in segments for t in s.latencies]
    part = ops // max(1, ops // PART_OPS)
    parts = [sorted(latencies[lo:lo + part]) for lo in range(0, ops - part + 1, part)]
    return {
        "setup_s": statistics.median(setups_s),
        "ops_per_s": ops / sum(s.wall * s.scale for s in segments),
        "p50_ms": statistics.median(percentile(p, 0.50) for p in parts) * 1000.0,
        "p90_ms": statistics.median(percentile(p, 0.90) for p in parts) * 1000.0,
        "cpu_ms_per_op": sum(s.cpu * s.scale for s in segments) * 1000.0 / ops,
        "peak_rss_mb": peak_rss_mb,
    }


def host_figures(segments: List[Segment], clock) -> Dict[str, float]:
    """Environment data: the figures before rescaling, and the range of
    the host clock's samples (one slice, in ms)."""
    ops = sum(len(s.latencies) for s in segments)
    latencies = sorted(t for s in segments for t in s.latencies)
    slices = sorted(clock.samples)
    return {
        "unscaled_ops_per_s": ops / sum(s.wall for s in segments),
        "unscaled_p90_ms": percentile(latencies, 0.90) * 1000.0,
        "slice_ms_min_median_max": [
            round(slices[0] * 1000.0, 3),
            round(statistics.median(slices) * 1000.0, 3),
            round(slices[-1] * 1000.0, 3),
        ],
    }


def log(message: str) -> None:
    sys.stderr.write("perfbench: %s\n" % message)
    sys.stderr.flush()


def zipf_picker(rng: random.Random, count: int, skew: float = 1.1):
    """A function drawing indexes in ``range(count)`` with Zipf skew, over
    a seeded permutation so the hot items differ between seeds."""
    weights = [1.0 / (rank + 1) ** skew for rank in range(count)]
    order = list(range(count))
    rng.shuffle(order)
    cumulative = []
    total = 0.0
    for weight in weights:
        total += weight
        cumulative.append(total)

    def pick() -> int:
        return order[bisect.bisect_left(cumulative, rng.random() * total)]

    return pick


def wait_for(predicate, timeout: float, what: str):
    deadline = time.monotonic() + timeout
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() > deadline:
            raise RuntimeError("timed out waiting for %s" % what)
        time.sleep(0.01)
