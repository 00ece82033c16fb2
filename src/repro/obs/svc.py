"""Service-side observability: spans, metrics, logs, SSE event streams.

:mod:`repro.obs` (PR 3) instruments the *simulator* — cycles, queues,
stages.  This module instruments the *service tier* around it: where
does a campaign's wall-clock go between ``POST /jobs`` and the last
store commit?  Four cooperating pieces, bundled by :class:`ServiceObs`:

* :class:`ServiceTracer` — wall-clock spans with trace/span IDs.  Every
  job gets a trace (``trace_id == job_id``); every task gets a span
  tree (``task`` → ``queue_wait`` / ``execute`` / ``backoff`` /
  ``store_commit``) whose context is propagated *into forked workers*
  so worker-side timings land on the same timeline.  Spans carry a
  ``track`` name ("jobs", "worker 0", "task job-0001/3") that becomes
  a Perfetto thread track in
  :func:`repro.obs.trace_export.campaign_trace`.
* :class:`ServiceMetrics` — labelled counters, gauges, and fixed-bucket
  histograms with Prometheus text-format 0.0.4 exposition
  (:meth:`ServiceMetrics.prometheus_text`) for ``GET /metrics``.
* :class:`JsonLogger` — structured JSON-lines logging; every record can
  carry ``trace_id``/``span_id`` correlation fields.
* :class:`JobEventStream` — a bounded per-subscriber event buffer
  backing ``GET /jobs/<id>/events`` (SSE).  Slow consumers drop the
  *oldest* events (progress is monotone, the newest frame supersedes
  them) and the drop count is surfaced, never silent.

The seam discipline is the simulator's: services take ``obs=None`` by
default, every emit site is a single ``is not None`` test, and with
``obs`` unset the serve tier's results are byte-identical to a traced
run's — enforced by ``benchmarks/test_bench_obs_overhead.py``.  It is
the service tier's only observation seam: every supervisor and job
lifecycle event is a span or a JSON-log record here.
"""

from __future__ import annotations

import json
import sys
import time
from collections import deque
from collections.abc import Callable

from repro.obs.trace_export import stage_names

__all__ = [
    "JobEventStream",
    "JsonLogger",
    "ServiceMetrics",
    "ServiceObs",
    "ServiceTracer",
    "Span",
    "sim_trace_data",
    "stats_metrics",
]


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class Span:
    """One timed operation on a trace; ``end is None`` while open."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "category",
                 "track", "start", "end", "attrs")

    def __init__(self, trace_id: str, span_id: str, name: str, *,
                 parent_id: str | None = None, category: str = "service",
                 track: str = "service", start: float = 0.0,
                 attrs: dict | None = None) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.track = track
        self.start = start
        self.end: float | None = None
        self.attrs: dict = attrs or {}

    @property
    def seconds(self) -> float | None:
        return None if self.end is None else self.end - self.start

    def __repr__(self) -> str:
        state = "open" if self.end is None else f"{self.seconds:.6f}s"
        return (f"<Span {self.name} {self.span_id} "
                f"trace={self.trace_id} {state}>")


class ServiceTracer:
    """Collects wall-clock spans; the export side of the span tree.

    The clock is injectable (tests drive a fake one); defaults to
    ``time.monotonic``, which on Linux is CLOCK_MONOTONIC and therefore
    comparable across ``fork()`` — worker-side timestamps land directly
    on the parent's timeline.  The span list is bounded; past ``limit``
    new spans are counted in ``dropped`` instead of stored.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic,
                 limit: int = 200_000) -> None:
        self.clock = clock
        self.limit = limit
        self.spans: list[Span] = []
        self.dropped = 0
        self._seq = 0

    def _new_span_id(self) -> str:
        self._seq += 1
        return f"s{self._seq:06d}"

    def _keep(self, span: Span) -> Span:
        if len(self.spans) < self.limit:
            self.spans.append(span)
        else:
            self.dropped += 1
        return span

    def begin(self, name: str, *, trace_id: str,
              parent: str | None = None, track: str = "service",
              category: str = "service", **attrs) -> Span:
        """Open a span now; close it with :meth:`end`."""
        return self._keep(Span(
            trace_id, self._new_span_id(), name, parent_id=parent,
            category=category, track=track, start=self.clock(),
            attrs=attrs,
        ))

    def end(self, span: Span | None, **attrs) -> None:
        """Close an open span (idempotent; ``None`` is a no-op)."""
        if span is None or span.end is not None:
            return
        span.end = self.clock()
        if attrs:
            span.attrs.update(attrs)

    def record(self, name: str, start: float, end: float, *,
               trace_id: str, parent: str | None = None,
               track: str = "service", category: str = "service",
               **attrs) -> Span:
        """Record an already-timed span (e.g. measured inside a worker)."""
        span = Span(
            trace_id, self._new_span_id(), name, parent_id=parent,
            category=category, track=track, start=start, attrs=attrs,
        )
        span.end = end
        return self._keep(span)

    # -- introspection ---------------------------------------------------

    def by_name(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def summary(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for span in self.spans:
            counts[span.name] = counts.get(span.name, 0) + 1
        return dict(sorted(counts.items()))

    def check_nesting(self, tolerance: float = 1e-6) -> list[str]:
        """Structural audit: every child lies within its parent's window.

        Returns human-readable problem strings (empty == healthy); the
        ``--smoke-service`` gate fails on any.  ``tolerance`` absorbs
        clock quantization at span edges.
        """
        problems: list[str] = []
        by_id = {span.span_id: span for span in self.spans}
        for span in self.spans:
            if span.end is None:
                problems.append(f"{span.name} {span.span_id} never ended")
                continue
            if span.end + tolerance < span.start:
                problems.append(
                    f"{span.name} {span.span_id} ends before it starts"
                )
            if span.parent_id is None:
                continue
            parent = by_id.get(span.parent_id)
            if parent is None:
                problems.append(
                    f"{span.name} {span.span_id} parent "
                    f"{span.parent_id} unknown"
                )
                continue
            if span.trace_id != parent.trace_id:
                problems.append(
                    f"{span.name} {span.span_id} crosses traces "
                    f"({span.trace_id} under {parent.trace_id})"
                )
            if span.start + tolerance < parent.start or (
                parent.end is not None
                and span.end > parent.end + tolerance
            ):
                problems.append(
                    f"{span.name} {span.span_id} "
                    f"[{span.start:.6f}, {span.end:.6f}] escapes parent "
                    f"{parent.name} [{parent.start:.6f}, {parent.end}]"
                )
        return problems


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

#: Default latency buckets (seconds): sub-millisecond queue waits up to
#: minute-scale campaign tasks.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class _Histogram:
    __slots__ = ("buckets", "counts", "total", "count")

    def __init__(self, buckets: tuple[float, ...]) -> None:
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)   # +1 for the +Inf bucket
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.total += value
        self.count += 1
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


def _escape(value) -> str:
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _render_labels(key: tuple, extra: str = "") -> str:
    parts = [f'{name}="{_escape(value)}"' for name, value in key]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class ServiceMetrics:
    """Labelled counters, gauges, and histograms with Prometheus text
    exposition.

    The sim-side :class:`~repro.obs.metrics.MetricsRegistry` aggregates
    a *finished run*; this registry accumulates *service lifetime*
    series — every family renders in exposition-format 0.0.4 for
    ``GET /metrics``.
    """

    def __init__(self) -> None:
        #: family name -> label key -> value
        self.counters: dict[str, dict[tuple, float]] = {}
        self.gauges: dict[str, dict[tuple, float]] = {}
        self.histograms: dict[str, dict[tuple, _Histogram]] = {}
        self._buckets: dict[str, tuple[float, ...]] = {}

    # -- recording -------------------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        family = self.counters.setdefault(name, {})
        key = _label_key(labels)
        family[key] = family.get(key, 0.0) + value

    def gauge(self, name: str, value: float, **labels) -> None:
        self.gauges.setdefault(name, {})[_label_key(labels)] = value

    def observe(self, name: str, value: float,
                buckets: tuple[float, ...] | None = None, **labels) -> None:
        bounds = self._buckets.setdefault(name, buckets or DEFAULT_BUCKETS)
        family = self.histograms.setdefault(name, {})
        key = _label_key(labels)
        histogram = family.get(key)
        if histogram is None:
            histogram = family[key] = _Histogram(bounds)
        histogram.observe(value)

    # -- export ----------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready dump (embedded in quarantine forensic reports)."""

        def flat(families: dict) -> dict:
            return {
                name + _render_labels(key): value
                for name, family in sorted(families.items())
                for key, value in sorted(family.items())
            }

        return {
            "counters": flat(self.counters),
            "gauges": flat(self.gauges),
            "histograms": {
                name + _render_labels(key): {
                    "count": histogram.count,
                    "sum": histogram.total,
                }
                for name, family in sorted(self.histograms.items())
                for key, histogram in sorted(family.items())
            },
        }

    def prometheus_text(self) -> str:
        lines: list[str] = []
        for name, family in sorted(self.counters.items()):
            lines.append(f"# TYPE {name} counter")
            for key, value in sorted(family.items()):
                lines.append(
                    f"{name}{_render_labels(key)} {_format_value(value)}"
                )
        for name, family in sorted(self.gauges.items()):
            lines.append(f"# TYPE {name} gauge")
            for key, value in sorted(family.items()):
                lines.append(
                    f"{name}{_render_labels(key)} {_format_value(value)}"
                )
        for name, family in sorted(self.histograms.items()):
            lines.append(f"# TYPE {name} histogram")
            for key, histogram in sorted(family.items()):
                cumulative = 0
                for bound, count in zip(histogram.buckets, histogram.counts):
                    cumulative += count
                    le = 'le="' + _format_value(bound) + '"'
                    lines.append(
                        f"{name}_bucket{_render_labels(key, le)} {cumulative}"
                    )
                inf = 'le="+Inf"'
                lines.append(
                    f"{name}_bucket{_render_labels(key, inf)} "
                    f"{histogram.count}"
                )
                lines.append(
                    f"{name}_sum{_render_labels(key)} "
                    f"{_format_value(histogram.total)}"
                )
                lines.append(
                    f"{name}_count{_render_labels(key)} {histogram.count}"
                )
        return "\n".join(lines) + "\n" if lines else ""


def stats_metrics(stats: dict, jit: dict | None = None) -> ServiceMetrics:
    """Render a :meth:`CampaignService.stats` dict as metric families.

    This is what makes ``GET /metrics`` work even on an uninstrumented
    service: every counter the tier already keeps (supervisor, admission,
    store, jit cache) becomes an exposition family, with no obs seam in
    the hot path.  An attached :class:`ServiceObs` only *adds* the
    histogram families recorded live.
    """
    metrics = ServiceMetrics()
    for state, count in stats.get("jobs", {}).items():
        metrics.gauge("repro_serve_jobs", count, state=state)
    supervisor = stats.get("supervisor", {})
    for field in ("worker_spawns", "worker_kills", "worker_crashes",
                  "task_retries", "tasks_done", "tasks_failed",
                  "tasks_quarantined"):
        metrics.inc(f"repro_serve_{field}_total", supervisor.get(field, 0))
    metrics.gauge("repro_serve_serial_fallback",
                  1 if stats.get("serial") else 0)
    metrics.gauge("repro_serve_pending_tasks", stats.get("pending_tasks", 0))
    metrics.gauge("repro_serve_in_flight_tasks", stats.get("in_flight", 0))
    admission = stats.get("admission", {})
    metrics.inc("repro_serve_admitted_jobs_total",
                admission.get("admitted_jobs", 0))
    metrics.inc("repro_serve_rejected_jobs_total",
                admission.get("rejected_jobs", 0))
    for reason, count in admission.get("rejections", {}).items():
        metrics.inc("repro_serve_rejections_total", count, reason=reason)
    metrics.gauge("repro_serve_queued_jobs", admission.get("queued_jobs", 0))
    metrics.gauge("repro_serve_backlog_tasks",
                  admission.get("backlog_tasks", 0))
    store = stats.get("store", {})
    metrics.gauge("repro_serve_store_rows", store.get("rows", 0))
    metrics.gauge("repro_serve_store_max_executions",
                  store.get("max_executions", 0))
    metrics.gauge("repro_serve_store_executions_total",
                  store.get("executions_total", 0))
    for field in ("hits", "misses", "puts", "duplicate_puts"):
        metrics.inc(f"repro_serve_store_{field}_total", store.get(field, 0))
    for kind, count in store.get("kinds", {}).items():
        metrics.gauge("repro_serve_store_kind_rows", count, kind=kind)
    if jit is not None:
        metrics.inc("repro_jit_cache_hits_total", jit.get("hits", 0))
        metrics.inc("repro_jit_cache_misses_total", jit.get("misses", 0))
        metrics.inc("repro_jit_compile_seconds_total",
                    jit.get("compile_seconds", 0.0))
        metrics.gauge("repro_jit_cache_entries", jit.get("entries", 0))
        for reason, count in jit.get("block_exits", {}).items():
            metrics.inc("repro_jit_block_exits_total", count, reason=reason)
    return metrics


# ----------------------------------------------------------------------
# Structured logging
# ----------------------------------------------------------------------


class JsonLogger:
    """JSON-lines structured logging with trace/span correlation."""

    def __init__(self, stream=None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.lines = 0

    def log(self, event: str, *, level: str = "info",
            trace_id: str | None = None, span_id: str | None = None,
            **fields) -> None:
        record: dict = {"ts": round(time.time(), 6), "level": level,
                        "event": event}
        if trace_id is not None:
            record["trace_id"] = trace_id
        if span_id is not None:
            record["span_id"] = span_id
        record.update(fields)
        self.stream.write(
            json.dumps(record, sort_keys=True, default=str) + "\n"
        )
        self.lines += 1


# ----------------------------------------------------------------------
# SSE event streams
# ----------------------------------------------------------------------


class JobEventStream:
    """One SSE subscriber's bounded pending-event buffer.

    Backpressure policy: a consumer slower than the producer loses the
    *oldest* frames (job progress is monotone; each later frame carries
    the up-to-date resolved count) and ``dropped`` records how many —
    the SSE handler surfaces it as a comment line rather than stalling
    the service pump on a dead socket.
    """

    def __init__(self, max_buffer: int = 256) -> None:
        self.max_buffer = max(1, int(max_buffer))
        self._events: deque[dict] = deque()
        self.dropped = 0

    def push(self, event: dict) -> None:
        if len(self._events) >= self.max_buffer:
            self._events.popleft()
            self.dropped += 1
        self._events.append(event)

    def pop_all(self) -> list[dict]:
        events = list(self._events)
        self._events.clear()
        return events

    def __len__(self) -> int:
        return len(self._events)


# ----------------------------------------------------------------------
# The bundle
# ----------------------------------------------------------------------


class ServiceObs:
    """Everything the serve tier needs to observe itself, in one seam.

    Pass ``obs=ServiceObs()`` to :class:`~repro.serve.service.
    CampaignService` (optionally with ``sim_trace=True`` to also ship
    simulator stage tracks back from workers) and export the combined
    timeline with :func:`repro.obs.trace_export.export_campaign_trace`.
    """

    def __init__(self, *, tracer: ServiceTracer | None = None,
                 metrics: ServiceMetrics | None = None,
                 logger: JsonLogger | None = None,
                 sim_trace: bool = False,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.tracer = tracer if tracer is not None else ServiceTracer(clock)
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.logger = logger
        self.sim_trace = sim_trace
        #: Simulator stage-track payloads shipped back from workers:
        #: ``{"task_id", "trace_id", "start", "end", "data"}`` where
        #: start/end bound the wall-clock window the run occupied.
        self.sim_traces: list[dict] = []

    def log(self, event: str, **fields) -> None:
        if self.logger is not None:
            self.logger.log(event, **fields)

    def add_sim_trace(self, task_id: str, data: dict | None, *,
                      start: float, end: float,
                      trace_id: str | None = None) -> None:
        if data is None:
            return
        self.sim_traces.append({
            "task_id": task_id,
            "trace_id": trace_id,
            "start": start,
            "end": end,
            "data": data,
        })

    def snapshot(self) -> dict:
        """Span/metric summary (embedded in forensics and ``/stats``)."""
        return {
            "spans": len(self.tracer.spans),
            "spans_dropped": self.tracer.dropped,
            "span_counts": self.tracer.summary(),
            "sim_traces": len(self.sim_traces),
            "metrics": self.metrics.snapshot(),
        }


def sim_trace_data(run) -> dict:
    """Compact JSON-pure stage-track payload from a
    :class:`~repro.workloads.base.WorkloadRun` whose system carries a
    :class:`~repro.obs.events.Telemetry` sink.

    This is what a traced worker ships back over its outbox: per-PE
    stage names plus the PR 3 stage-occupancy intervals, in cycles.
    The exporter later scales cycles into the execute span's wall-clock
    window so sim tracks align under the service spans.
    """
    system = run.system
    pes = {pe.name: pe for pe in system.pes}
    return {
        "cycles": run.cycles,
        "pes": {
            pe_name: {
                "stages": stage_names(pes.get(pe_name), len(per_stage)),
                "intervals": [
                    [list(interval) for interval in stage]
                    for stage in per_stage
                ],
            }
            for pe_name, per_stage in system.telemetry.stage_intervals.items()
        },
    }
