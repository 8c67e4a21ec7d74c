"""The host's speed, measured next to the program while it is idle.

    python perfbench/hostclock.py CPU     (started by :class:`HostClock`)

On the 2-vCPU Linux virtual machine the benchmark was calibrated on, a
vCPU runs at speeds up to about 1.8x apart, changing within tens of
milliseconds and staying slow or fast for seconds at a time, and CPU
time moves with wall time (no steal is reported).  So
every time the benchmark reports is rescaled by the host's speed around
it: a helper process pinned to the measured vCPU times a fixed slice of
pure-Python work whenever the benchmark asks — between segments of a
few ops, once the program is idle — and a time ``t`` measured between
slices that took ``s0`` and ``s1`` seconds is reported as
``t * (NOMINAL_SLICE_S / mean(s0, s1)) ** sensitivity``.  The slice
shares no code with the program, so at a given host speed a change to
the program moves the rescaled figures exactly as it moves the raw ones.

``sensitivity`` is how the workload's time follows the slice's, as
measured on that machine: engine_query and heap_commit slow down in
proportion (1.0); the served workloads, two processes talking over
loopback TCP, go as the slice time to the power 1.3 (PROVENANCE.md).

The slice runs in its own process so that the program's heap (its
garbage-collector generations, its caches) cannot slow it down.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import Callable, List, Tuple

import common

# What one slice takes on that machine in its faster state; times are
# reported as if every slice had taken exactly this long.
NOMINAL_SLICE_S = 0.00047
# Reference units per slice, and slices per sample (the sample is the
# fastest: a wake-up of another thread on the vCPU only slows one).
UNITS = 14
SLICES = 2


class _Node:
    __slots__ = ("key", "value", "kids")

    def __init__(self, key, value):
        self.key = key
        self.value = value
        self.kids = []


_KEYS = ["k%d" % i for i in range(48)]


def _unit() -> int:
    """Interpreter-bound work like the program's: small objects, dicts,
    a keyed sort, hashing and string building."""
    nodes = {}
    for i, key in enumerate(_KEYS):
        node = _Node(key, (i, key))
        nodes[key] = node
        if i:
            nodes[_KEYS[i // 2]].kids.append(node)
    total = 0
    for node in sorted(nodes.values(), key=lambda n: n.value):
        total += len(node.kids) + hash(node.value) % 7
    return total + len("".join(key[-1] for key in nodes))


def _slice() -> float:
    started = time.perf_counter()
    for __ in range(UNITS):
        _unit()
    return time.perf_counter() - started


def serve(cpu: int) -> None:
    """The helper's loop: one sample per request line on stdin."""
    os.sched_setaffinity(0, {cpu})
    _slice()  # warm up
    for __ in sys.stdin:
        sys.stdout.write("%.9f\n" % min(_slice() for __ in range(SLICES)))
        sys.stdout.flush()


class HostClock:
    """A helper process timing reference slices on one vCPU."""

    def __init__(self, cpu: int, sensitivity: float):
        self.sensitivity = sensitivity
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            preexec_fn=common.die_with_parent,
        )
        self.samples: List[float] = []

    def sample(self) -> float:
        """Seconds one slice takes now; the caller's work waits meanwhile."""
        self.proc.stdin.write("s\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("host clock helper exited")
        value = float(line)
        self.samples.append(value)
        return value

    def timed(self, work: Callable[[], object]) -> Tuple[object, float]:
        """Run ``work`` between two samples: its result, and its wall
        time rescaled to the nominal host speed."""
        before = self.sample()
        started = time.perf_counter()
        result = work()
        elapsed = time.perf_counter() - started
        return result, elapsed * self.scale(before, self.sample())

    def scale(self, before: float, after: float) -> float:
        """The factor taking a time measured between two samples to the
        nominal host speed."""
        return (NOMINAL_SLICE_S * 2.0 / (before + after)) ** self.sensitivity

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


if __name__ == "__main__":
    serve(int(sys.argv[1]))
