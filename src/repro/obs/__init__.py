"""Unified observability: event bus, metrics registry, trace exporters,
and campaign-service spans.

The layer is strictly opt-in — nothing is recorded (and nothing is paid
beyond a ``None`` test at each seam) until a :class:`Telemetry` sink is
attached — and strictly read-only: instrumented runs are bit-identical
to uninstrumented ones.

    from repro.obs import Telemetry, MetricsRegistry
    from repro.workloads import run_workload

    config = config_by_name("T|D|X1|X2 +P+Q")
    telemetry = Telemetry()
    run = run_workload("stream", lambda name: PipelinedPE(config, name=name),
                       telemetry=telemetry)
    metrics = MetricsRegistry.from_system(run.system)
    print(metrics.format())                     # cross-PE metrics report
    metrics.to_json("metrics.json")             # structured export
    export_chrome_trace(telemetry, "trace.json", run.system)
    print(pipeline_diagram(telemetry, run.system.pe("worker")))

``python -m repro.obs`` wraps the same flow as a CLI.

The same seam discipline extends to the campaign service: attach a
:class:`ServiceObs` to a :class:`repro.serve.service.CampaignService`
and every job/task/worker lifecycle step is spanned, metered, and
JSON-logged; :func:`export_campaign_trace` renders the whole campaign
— service spans above, per-task simulator stage tracks below — as one
Perfetto timeline.  ``python -m repro.obs --smoke-service`` gates it.
"""

from repro.obs.events import Telemetry, TelemetryEvent
from repro.obs.metrics import MetricsRegistry
from repro.obs.svc import (
    JobEventStream,
    JsonLogger,
    ServiceMetrics,
    ServiceObs,
    ServiceTracer,
    Span,
)
from repro.obs.trace_export import (
    campaign_trace,
    chrome_trace,
    export_campaign_trace,
    export_chrome_trace,
    pipeline_diagram,
)

__all__ = [
    "Telemetry",
    "TelemetryEvent",
    "MetricsRegistry",
    "chrome_trace",
    "export_chrome_trace",
    "pipeline_diagram",
    "campaign_trace",
    "export_campaign_trace",
    "ServiceObs",
    "ServiceTracer",
    "ServiceMetrics",
    "JsonLogger",
    "JobEventStream",
    "Span",
]
