"""repro.obs — dependency-free observability for the kernel.

The flight recorder has four complementary instruments:

* :mod:`repro.obs.trace` — nestable wall-clock spans behind a
  process-global tracer that starts off (one attribute check when
  disabled);
* :mod:`repro.obs.metrics` — always-on, thread-safe named counters,
  gauges, and latency histograms with a JSON-able ``snapshot()``;
* :mod:`repro.obs.events` — a bounded, thread-safe structured event
  journal (severity, subsystem, payload) the tracer, query layer,
  kernel, and persistence layers publish into when enabled;
* :mod:`repro.obs.profile` — a deterministic execution profiler
  attributing wall time and kernel pair counts per plan operator.

Above the recorder sits the *monitoring* layer:

* :mod:`repro.obs.monitor` — windowed time-series rollups over the
  metrics registry (counter rates, gauge levels, latency quantiles per
  horizon), health probes with ok/degraded/failing verdicts, and
  OpenMetrics v1 text exposition for external scrapers;
* :mod:`repro.obs.slowlog` — a bounded ring capturing every query that
  exceeded a wall-time threshold, with plan summary, estimate drift,
  pair counts, and exact request-id correlation;
* :mod:`repro.obs.wide` — one wide event per completed session
  request (query, outcome, wall time, watched-counter deltas, the
  harvested span trees), kept in a bounded per-session ring — the
  canonical record distributed tracing and ``:requests`` read.

:mod:`repro.obs.export` serializes spans, journal, and metrics to
JSONL and to Chrome ``chrome://tracing`` / Perfetto trace files, so any
benchmark or REPL session can be replayed visually.

The query layer (:func:`repro.core.query.explain_analyze`), the
persistence substrate (:class:`repro.persistence.store.LogStore`, the
intrinsic heap's commit, the replicating extern/intern path), the
generalized-relation hot spots, and the DBPL evaluator/REPL all record
here, so the ROADMAP's "fast as the hardware allows" goal is measurable
instead of asserted.

Each switchable instrument — tracer, journal, profiler, slow-query log,
monitor — is one object per process, its module's ``CURRENT``: built at
import, never rebound, off until the module's ``enable()`` flips its
``enabled`` flag.  While off it records nothing and reads empty;
``disable()`` drops what it recorded.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    get_metrics,
    reset_metrics,
)
from repro.obs.trace import (
    Span,
    Tracer,
    current_request_id,
    disable,
    enable,
    set_request_id,
    span,
)
from repro.obs.events import (
    Event,
    EventJournal,
    publish,
)
from repro.obs.profile import (
    OpProfile,
    Profiler,
    profile_report,
)
from repro.obs.monitor import (
    HealthProbe,
    ProbeResult,
    TimeSeriesRegistry,
    Window,
    default_probes,
    format_health,
    health_report,
    overall_verdict,
    parse_openmetrics,
    render_openmetrics,
    write_metrics_snapshot,
)
from repro.obs.slowlog import (
    SlowLog,
    SlowQueryEntry,
    slowlog_report,
)
from repro.obs.wide import (
    RequestLog,
    WideEvent,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "get_metrics",
    "reset_metrics",
    "Span",
    "Tracer",
    "current_request_id",
    "disable",
    "enable",
    "set_request_id",
    "span",
    "Event",
    "EventJournal",
    "publish",
    "OpProfile",
    "Profiler",
    "profile_report",
    "HealthProbe",
    "ProbeResult",
    "TimeSeriesRegistry",
    "Window",
    "default_probes",
    "format_health",
    "health_report",
    "overall_verdict",
    "parse_openmetrics",
    "render_openmetrics",
    "write_metrics_snapshot",
    "SlowLog",
    "SlowQueryEntry",
    "slowlog_report",
    "RequestLog",
    "WideEvent",
]
