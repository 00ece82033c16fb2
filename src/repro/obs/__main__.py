"""CLI: instrumented workload runs and the observability smoke gate.

Render the cross-PE metrics report for one workload::

    PYTHONPATH=src python -m repro.obs --workload stream \\
        --config "T|D|X1|X2 +P+Q"

Export artifacts::

    python -m repro.obs --workload merge --report metrics.json \\
        --trace trace.json          # Chrome/Perfetto trace-event JSON

``python -m repro.obs --smoke`` is the CI gate: it checks the
event/counter identities, validates the trace export as round-trip
JSON, and verifies that a telemetry-enabled run leaves simulation
results bit-identical to an uninstrumented one.  Exit status is
non-zero on any failure.

``python -m repro.obs --smoke-service`` is the service-observability
gate: it runs a full 48-config campaign through a ServiceObs-attached
:class:`repro.serve.service.CampaignService` (forked workers, sim
tracing on), verifies the results are byte-identical to an
uninstrumented service, audits the span tree, exports the unified
campaign Perfetto timeline (service spans + simulator stage tracks in
one file), validates the ``/metrics`` Prometheus exposition, and
exercises SSE + ``/metrics`` over the real stdlib HTTP frontend.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from repro.obs.events import Telemetry
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace_export import export_chrome_trace
from repro.pipeline.config import all_configs, config_by_name
from repro.pipeline.core import PipelinedPE
from repro.workloads.suite import WORKLOADS, run_workload


def _pe_factory(config):
    """PEs of ``config``; ``None`` keeps the workload's functional model."""
    if config is None:
        return None
    return lambda name: PipelinedPE(config, name=name)


def _run(args) -> int:
    config = config_by_name(args.config) if args.config else None
    telemetry = Telemetry(limit=args.event_limit)
    run = run_workload(
        args.workload,
        make_pe=_pe_factory(config),
        scale=args.scale,
        seed=args.seed,
        telemetry=telemetry,
    )
    metrics = MetricsRegistry.from_system(run.system)
    print(
        f"{args.workload} @ {args.config or 'functional'}: "
        f"{run.cycles} cycles, result validated"
    )
    print(metrics.format())
    if args.report:
        if args.report == "-":
            print(metrics.to_json())
        else:
            metrics.to_json(args.report)
            print(f"wrote metrics report to {args.report}")
    if args.trace:
        trace = export_chrome_trace(telemetry, args.trace, run.system)
        print(
            f"wrote {len(trace['traceEvents'])} trace events to "
            f"{args.trace} (open in Perfetto / chrome://tracing)"
        )
    return 0


def _fail(message: str) -> int:
    print(f"FAIL: {message}", file=sys.stderr)
    return 1


def _smoke(args) -> int:
    """The CI gate; every check prints what it verified."""
    scale = args.scale or int(os.environ.get("REPRO_BENCH_SCALE", "8"))
    config = config_by_name(args.config or "T|D|X1|X2 +P+Q")
    workloads = args.workloads or ["stream", "string_search"]
    factory = _pe_factory(config)
    print(
        f"observability gate: scale={scale} seed={args.seed} "
        f"config={config.name!r} workloads={workloads}"
    )

    for workload in workloads:
        print(f"\n[{workload}] instrumented run...")
        telemetry = Telemetry()
        run = run_workload(
            workload, make_pe=factory, scale=scale, seed=args.seed,
            telemetry=telemetry,
        )

        # 1. Metrics JSON round-trips and is self-consistent.
        decoded = json.loads(MetricsRegistry.from_system(run.system).to_json())
        if decoded["aggregate"]["retired"] <= 0:
            return _fail(f"{workload}: nothing retired in metrics snapshot")
        if not decoded["queues"]:
            return _fail(f"{workload}: no queue timelines sampled")
        per_pe_retired = sum(
            entry["counters"]["retired"] for entry in decoded["pes"].values()
        )
        if per_pe_retired != decoded["aggregate"]["retired"]:
            return _fail(f"{workload}: aggregate retired != per-PE sum")

        # 2. Event/counter identities.
        issued = sum(
            pe.counters.issued for pe in run.system.pes
            if hasattr(pe.counters, "issued")
        )
        retired = sum(pe.counters.retired for pe in run.system.pes)
        counts = telemetry.event_counts
        if counts.get("issue", 0) != issued:
            return _fail(
                f"{workload}: {counts.get('issue', 0)} issue events vs "
                f"{issued} issued counted"
            )
        if counts.get("retire", 0) != retired:
            return _fail(
                f"{workload}: {counts.get('retire', 0)} retire events vs "
                f"{retired} retired counted"
            )
        print(
            f"  metrics ok: {retired} retired, "
            f"{len(decoded['queues'])} queues, "
            f"{len(counts)} event kinds, identities hold"
        )

        # 3. Trace export round-trips as JSON with real content.
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.json")
            export_chrome_trace(telemetry, path, run.system)
            with open(path, encoding="utf-8") as handle:
                trace = json.load(handle)
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        counters_events = [e for e in trace["traceEvents"] if e["ph"] == "C"]
        if not spans or not counters_events:
            return _fail(
                f"{workload}: trace export missing spans or counters "
                f"({len(spans)} X, {len(counters_events)} C)"
            )
        print(
            f"  trace ok: {len(spans)} stage spans, "
            f"{len(counters_events)} queue counter samples"
        )

        # 4. Telemetry-disabled runs are bit-identical.
        bare = run_workload(
            workload, make_pe=factory, scale=scale, seed=args.seed
        )
        if bare.cycles != run.cycles:
            return _fail(
                f"{workload}: instrumented run took {run.cycles} cycles, "
                f"bare run {bare.cycles}"
            )
        if bare.worker_counters.as_dict() != run.worker_counters.as_dict():
            return _fail(f"{workload}: worker counters diverge under telemetry")
        print(f"  bit-identical: {bare.cycles} cycles with telemetry on or off")

    print(f"\nobservability gate passed ({len(workloads)} workloads)")
    return 0


def _smoke_service(args) -> int:
    """The service-observability CI gate (spans, /metrics, SSE, export)."""
    import io
    import re
    import threading

    from repro.obs.svc import JsonLogger, ServiceObs
    from repro.obs.trace_export import export_campaign_trace
    from repro.serve import CampaignService, HttpClient
    from repro.serve.http import start_http_server
    from repro.serve.store import canonical_json

    scale = args.scale or int(os.environ.get("REPRO_BENCH_SCALE", "6"))
    # The full 48-config design matrix (32 + the padded-queue variants).
    configs = [config.name for config in all_configs(include_padded=True)]
    payloads = [
        {"workload": "gcd", "config": name, "scale": scale, "seed": args.seed}
        for name in configs
    ]
    print(
        f"service observability gate: {len(payloads)} configs x gcd "
        f"@ scale {scale}, seed {args.seed}"
    )

    # 1. Bare (uninstrumented) campaign: the byte-identity reference.
    print("\n[reference] uninstrumented service campaign...")
    with CampaignService(None, workers=2) as service:
        bare = service.run_job("workload-run", payloads, timeout=600.0)
    print(f"  {len(bare)} results")

    # 2. Traced campaign: spans + metrics + logs + sim stage tracks.
    print("[traced] ServiceObs(sim_trace=True) campaign, forked workers...")
    log_sink = io.StringIO()
    obs = ServiceObs(sim_trace=True, logger=JsonLogger(log_sink))
    with CampaignService(None, workers=2, obs=obs) as service:
        traced = service.run_job("workload-run", payloads, timeout=600.0)
        metrics_text = service.metrics_text()
        stats = service.stats()

    if canonical_json(traced) != canonical_json(bare):
        return _fail("traced campaign results diverge from uninstrumented")
    print(f"  byte-identical to the reference ({len(traced)} results)")

    # 3. Span-tree audit: lifecycle coverage and structural nesting.
    summary = obs.tracer.summary()
    required = ("job", "admission", "task", "queue_wait", "execute",
                "store_commit")
    missing = [name for name in required if not summary.get(name)]
    if missing:
        return _fail(f"span tree missing {missing}; saw {summary}")
    problems = obs.tracer.check_nesting()
    if problems:
        head = "; ".join(problems[:5])
        return _fail(f"{len(problems)} span-nesting problems: {head}")
    worker_tracks = {
        span.track for span in obs.tracer.spans if span.name == "execute"
    }
    if not worker_tracks:
        return _fail("no execute spans on worker tracks")
    if not obs.sim_traces:
        return _fail("no simulator stage traces shipped back from workers")
    log_lines = log_sink.getvalue().splitlines()
    for line in log_lines:
        json.loads(line)   # every log record is valid JSON
    print(
        f"  spans ok: {sum(summary.values())} spans "
        f"({', '.join(f'{k}={v}' for k, v in sorted(summary.items()))}), "
        f"nesting clean, {len(worker_tracks)} worker tracks, "
        f"{len(obs.sim_traces)} sim traces, {len(log_lines)} log records"
    )

    # 4. Unified Perfetto export: service spans above sim stage tracks.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "campaign.json")
        export_campaign_trace(obs, path)
        with open(path, encoding="utf-8") as handle:
            trace = json.load(handle)
    service_events = [
        e for e in trace["traceEvents"]
        if e["ph"] == "X" and e["cat"] in ("service", "store")
    ]
    pipeline_events = [
        e for e in trace["traceEvents"]
        if e["ph"] == "X" and e["cat"] == "pipeline"
    ]
    if not service_events or not pipeline_events:
        return _fail(
            f"unified trace missing a layer ({len(service_events)} service, "
            f"{len(pipeline_events)} pipeline events)"
        )
    print(
        f"  unified timeline ok: {len(service_events)} service spans + "
        f"{len(pipeline_events)} sim stage events in one file"
    )

    # 5. /metrics exposition: parseable lines, required families present.
    sample = re.compile(
        r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? "
        r"(-?\d+(\.\d+)?([eE][+-]?\d+)?|\+Inf|NaN)$"
    )
    for line in metrics_text.splitlines():
        if line.startswith("#") or not line:
            continue
        if not sample.match(line):
            return _fail(f"unparseable exposition line: {line!r}")
    for family in ("repro_serve_tasks_done_total", "repro_serve_store_rows",
                   "repro_jit_cache_hits_total",
                   "repro_serve_queue_wait_seconds_bucket",
                   "repro_serve_task_seconds_bucket"):
        if family not in metrics_text:
            return _fail(f"/metrics missing family {family}")
    if stats["store"]["executions_total"] != stats["store"]["rows"]:
        return _fail("store executions audit: executions_total != rows")
    print(
        f"  /metrics ok: {len(metrics_text.splitlines())} lines, "
        f"required families present, store audit clean"
    )

    # 6. The same surfaces over the real stdlib HTTP frontend: SSE + text.
    print("[http] SSE progress stream + /metrics over the wire...")
    http_obs = ServiceObs(sim_trace=False)
    http_service = CampaignService(None, workers=1, obs=http_obs)
    bound = {}
    ready = threading.Event()
    stop = threading.Event()

    def run_loop():
        async def main():
            import asyncio

            server = await start_http_server(http_service, port=0)
            bound["port"] = server.sockets[0].getsockname()[1]
            pump = asyncio.ensure_future(http_service.drive())
            ready.set()
            try:
                async with server:
                    while not stop.is_set():
                        await asyncio.sleep(0.01)
            finally:
                pump.cancel()

        import asyncio

        asyncio.run(main())

    thread = threading.Thread(target=run_loop, daemon=True)
    thread.start()
    if not ready.wait(30.0):
        return _fail("HTTP frontend did not come up")
    try:
        client = HttpClient(f"http://127.0.0.1:{bound['port']}")
        job_id = client.submit("workload-run", payloads[:4])
        frames = list(client.events(job_id, timeout=300.0))
        if not frames or frames[0]["event"] != "snapshot":
            return _fail(f"SSE stream did not open with a snapshot: "
                         f"{frames[:1]}")
        if frames[-1]["event"] != "done":
            return _fail(f"SSE stream did not close on a terminal frame: "
                         f"{frames[-1]}")
        wire_text = client.metrics_text()
        if "repro_serve_tasks_done_total" not in wire_text:
            return _fail("/metrics over HTTP missing counter families")
    finally:
        stop.set()
        thread.join(timeout=10.0)
        http_service.close()
    print(f"  http ok: {len(frames)} SSE frames "
          f"(snapshot -> ... -> {frames[-1]['event']}), /metrics served")

    print("\nservice observability gate passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="instrumented workload runs, metrics reports, and "
                    "Chrome/Perfetto trace export",
    )
    parser.add_argument(
        "--workload", default="stream", choices=WORKLOADS(),
        help="workload to run (default: stream)",
    )
    parser.add_argument(
        "--config", default=None,
        help='pipeline config name, e.g. "T|D|X1|X2 +P+Q" '
             "(default: functional model; smoke default: T|D|X1|X2 +P+Q)",
    )
    parser.add_argument("--scale", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the metrics JSON ('-' for stdout)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a Chrome trace-event / Perfetto JSON file",
    )
    parser.add_argument(
        "--event-limit", type=int, default=1 << 20,
        help="telemetry event buffer bound",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the CI smoke gate (identities, trace round-trip, "
             "bit-identical disabled path)",
    )
    parser.add_argument(
        "--workloads", nargs="+", default=None,
        help="smoke-gate workload list (default: stream string_search)",
    )
    parser.add_argument(
        "--smoke-service", action="store_true",
        help="run the service-observability gate (span tree, unified "
             "campaign trace, /metrics exposition, SSE over HTTP, "
             "byte-identical traced campaign)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        return _smoke(args)
    if args.smoke_service:
        return _smoke_service(args)
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
