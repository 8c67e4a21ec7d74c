"""A deterministic execution profiler for query plans and the kernel.

Sampling profilers answer "where is the process hot?"; this one
answers the database question: *which operator, across the whole
workload, cost what* — wall time, rows produced, and (for joins) how
many candidate pairs the kernel tried versus pruned.  It is
deterministic: every instrumented call records, nothing is sampled, so
two identical runs profile identically.

Two instrumentation points feed it:

* the plan walk behind :meth:`repro.core.query.Plan.execute` and
  :func:`~repro.core.query.analyze` attributes each operator's own
  wall time (children excluded), rows out, and the pair-counter deltas
  it caused, keyed by the operator's label — row operators under
  ``label()``, the operators of a lowered subtree under their columnar
  names (``CScan``, ``CHashJoin``, …), with ``ColumnarExec`` itself
  booking only what its lowered operators did not, so the per-label
  self times of one run never add up to more than its wall time;
* :meth:`repro.core.relation.GeneralizedRelation.join` attributes the
  cochain kernel's work (pairs tried/pruned) under ``relation.join``.

Like the tracer and journal, the profiler is one process-global object,
:data:`CURRENT`, built at import and off until :func:`enable` flips its
``enabled`` flag — instrumented code guards on ``CURRENT.enabled`` so
the disabled cost is one attribute check::

    profiler = profile.enable()
    for query in workload:
        optimize(query, catalog).execute(catalog)
    print(profile.profile_report(top=10))

The report is a top-N table by total self time; ``snapshot()`` returns
the same data as JSON-compatible dicts for the exporters.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List

__all__ = [
    "OpProfile",
    "Profiler",
    "CURRENT",
    "enable",
    "disable",
    "profile_report",
]


class OpProfile:
    """Accumulated cost of one operator label across a workload."""

    __slots__ = ("label", "calls", "seconds", "rows_out", "pairs_tried", "pairs_pruned")

    def __init__(self, label: str):
        self.label = label
        self.calls = 0
        self.seconds = 0.0
        self.rows_out = 0
        self.pairs_tried = 0
        self.pairs_pruned = 0

    @property
    def pruning_ratio(self) -> float:
        """Pruned pairs over logical pairs (0.0 when no pairs seen)."""
        logical = self.pairs_tried + self.pairs_pruned
        return self.pairs_pruned / logical if logical else 0.0

    def to_dict(self) -> Dict[str, object]:
        """A JSON-compatible rendering."""
        return {
            "label": self.label,
            "calls": self.calls,
            "seconds": self.seconds,
            "rows_out": self.rows_out,
            "pairs_tried": self.pairs_tried,
            "pairs_pruned": self.pairs_pruned,
        }

    def __repr__(self) -> str:
        return "OpProfile(%r, calls=%d, seconds=%g)" % (
            self.label,
            self.calls,
            self.seconds,
        )


class Profiler:
    """The recording profiler: per-label aggregates behind one lock.

    ``enabled`` is the on/off flag (on for a profiler you construct, off
    for :data:`CURRENT` until :func:`enable`).  While off, :meth:`record`
    records nothing and :meth:`report` says how to switch it on.
    """

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._lock = threading.Lock()
        self._ops: Dict[str, OpProfile] = {}

    def record(
        self,
        label: str,
        seconds: float,
        rows_out: int = 0,
        pairs_tried: int = 0,
        pairs_pruned: int = 0,
    ) -> None:
        """Fold one measured call into the label's aggregate (nothing
        while off)."""
        with self._lock:
            if not self.enabled:
                return
            op = self._ops.get(label)
            if op is None:
                op = self._ops[label] = OpProfile(label)
            op.calls += 1
            op.seconds += seconds
            op.rows_out += rows_out
            op.pairs_tried += pairs_tried
            op.pairs_pruned += pairs_pruned

    def ops(self) -> List[OpProfile]:
        """All aggregates, most expensive (total self seconds) first."""
        with self._lock:
            ordered = list(self._ops.values())
        ordered.sort(key=lambda op: (-op.seconds, op.label))
        return ordered

    def snapshot(self) -> List[Dict[str, object]]:
        """JSON-compatible aggregates, most expensive first."""
        return [op.to_dict() for op in self.ops()]

    def clear(self) -> None:
        """Drop all aggregates."""
        with self._lock:
            self._ops = {}

    def report(self, top: int = 10) -> str:
        """The top-N table: self time, calls, rows, pruning ratio."""
        if not self.enabled:
            return "(profiler is off — :profile on)"
        ordered = self.ops()[: top if top else None]
        if not ordered:
            return "(no profiled operators — run queries with :profile on)"
        lines = [
            "%-40s %8s %10s %10s %12s %8s"
            % ("operator", "calls", "self(ms)", "rows_out", "pairs_tried", "pruned")
        ]
        for op in ordered:
            logical = op.pairs_tried + op.pairs_pruned
            pruned_text = (
                "%.0f%%" % (100.0 * op.pruning_ratio) if logical else "-"
            )
            lines.append(
                "%-40s %8d %10.3f %10d %12d %8s"
                % (
                    op.label[:40],
                    op.calls,
                    op.seconds * 1000.0,
                    op.rows_out,
                    op.pairs_tried,
                    pruned_text,
                )
            )
        return "\n".join(lines)


# The process-global profiler: built once at import, never rebound, and
# off until enable() flips its flag.
CURRENT = Profiler()
CURRENT.enabled = False


def enable() -> Profiler:
    """Turn profiling on; returns the process-global profiler.

    Aggregates recorded while it was already on are kept.
    """
    CURRENT.enabled = True
    return CURRENT


def disable() -> None:
    """Turn profiling off, dropping the aggregates."""
    CURRENT.enabled = False
    CURRENT.clear()


def profile_report(top: int = 10) -> str:
    """The global profiler's top-N report."""
    return CURRENT.report(top)
