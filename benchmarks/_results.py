"""Machine-readable benchmark results: ``BENCH_<area>.json`` emitter.

Every directly-runnable benchmark (``python benchmarks/bench_x.py``)
records its measurements through a :class:`ResultsWriter` so the run
leaves a JSON artifact beside its printed table::

    {
      "area": "join",
      "quick": false,
      "git_sha": "d8f112b...",
      "timestamp": "2026-08-05T12:00:00+00:00",
      "results": [{"op": "flat_join", "n": 150, "seconds": 0.0012}, ...],
      "metrics": { "counters": {...}, "histograms": {...} }
    }

Each file is stamped with the commit it was measured at (``git_sha``,
``null`` outside a git checkout) and the moment of the run (UTC ISO
8601), so archived artifacts from different CI runs stay attributable.

The embedded ``metrics`` snapshot comes from the process-global
:data:`repro.obs.metrics.REGISTRY`, so counts like fast-path hits and
store appends travel with the timings — making the repo's perf
trajectory diffable across PRs (CI uploads the files as artifacts).

Constructing a :class:`ResultsWriter` also switches the flight
recorder's event journal on, and :meth:`~ResultsWriter.write` emits a
second artifact next to the JSON — ``BENCH_<area>.trace.json``, a
Chrome ``chrome://tracing``/Perfetto trace of the run's spans and
journal events — so every benchmark run can be replayed visually.

``--quick`` on any benchmark's command line shrinks its sizes so a CI
smoke job finishes in seconds; :func:`quick_requested` reads the flag.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from typing import Dict, List, Optional, Tuple

from repro.obs import events as _events
from repro.obs import export as _export
from repro.obs.metrics import REGISTRY


def median_and_iqr(samples: List[float]) -> Tuple[float, float]:
    """The median and the interquartile range of ``samples``."""
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return median, q3 - q1


def median_time(writer, op, size, fn, samples=7, **extra):
    """Time ``samples`` calls of ``fn()`` and record the median with
    its quartiles, so first-call warm-up does not land in the figure."""
    times = []
    for __ in range(samples):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    q1, median, q3 = statistics.quantiles(times, n=4)
    writer.record(op, size, median, q1=q1, q3=q3, samples=samples, **extra)
    return median


def interleaved_medians(writer, size, cases, repeats, **extra):
    """Time ``cases`` round-robin, ``repeats`` times each, and record
    each as the median of its calls with their interquartile range.

    ``cases`` is a list of ``(op, prepare)``.  ``prepare()`` runs
    untimed before every timed call and returns the zero-argument
    callable to time, so each call can start from fresh inputs (a
    relation built anew has no cached index to flatter the figure).
    Interleaving spreads the host's drift over every case alike.
    Returns ``({op: median seconds}, {op: the last call's result})``.
    """
    samples: Dict[str, List[float]] = {op: [] for op, __ in cases}
    results: Dict[str, object] = {}
    for __ in range(repeats):
        for op, prepare in cases:
            fn = prepare()
            started = time.perf_counter()
            results[op] = fn()
            samples[op].append(time.perf_counter() - started)
    medians: Dict[str, float] = {}
    for op, __ in cases:
        median, iqr = median_and_iqr(samples[op])
        writer.record(op, size, median, iqr=iqr, repeats=repeats, **extra)
        medians[op] = median
    return medians, results


def quick_requested(argv: Optional[List[str]] = None) -> bool:
    """Was ``--quick`` passed on the command line?"""
    return "--quick" in (argv if argv is not None else sys.argv[1:])


def current_git_sha() -> Optional[str]:
    """The HEAD commit of the working directory, or ``None``.

    Benchmarks also run from exported tarballs and wheels, where there
    is no repository — the stamp is best-effort, never a failure.
    """
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = revision.stdout.strip()
    return sha if revision.returncode == 0 and sha else None


class ResultsWriter:
    """Collects (op, n, seconds) rows and writes ``BENCH_<area>.json``."""

    def __init__(self, area: str, quick: bool = False):
        self.area = area
        self.quick = quick
        self.rows: List[Dict[str, object]] = []
        self.trace_path: Optional[str] = None
        # Benchmarks fly with the recorder on: anomalies and audit
        # events from the run land in the exported trace artifact.
        _events.enable()

    def record(self, op: str, n: int, seconds: float, **extra: object) -> None:
        """Add one measurement row."""
        row: Dict[str, object] = {"op": op, "n": n, "seconds": seconds}
        row.update(extra)
        self.rows.append(row)

    def timeit(self, op: str, n: int, fn, **extra: object):
        """Time ``fn()`` once, record it, and return (result, seconds)."""
        started = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - started
        self.record(op, n, seconds, **extra)
        return result, seconds

    def write(self, directory: Optional[str] = None) -> str:
        """Write ``BENCH_<area>.json`` (with a metrics snapshot); returns
        the path."""
        payload = {
            "area": self.area,
            "quick": self.quick,
            "git_sha": current_git_sha(),
            "timestamp": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
            "results": self.rows,
            "metrics": REGISTRY.snapshot(),
        }
        base = directory if directory is not None else os.getcwd()
        path = os.path.join(base, "BENCH_%s.json" % self.area)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        self.trace_path = _export.write_trace(
            os.path.join(base, "BENCH_%s.trace.json" % self.area)
        )
        return path
