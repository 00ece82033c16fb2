"""Observability layer: event bus, metrics registry, pipeline diagrams,
trace export, campaign profiling through service spans, and the
bit-identical-when-disabled guarantee."""

import json

import pytest

from repro.asm import assemble
from repro.dse.cpi import CpiTable
from repro.errors import SimulationError
from repro.fabric import System
from repro.obs import (
    MetricsRegistry,
    ServiceObs,
    Telemetry,
    chrome_trace,
    pipeline_diagram,
)
from repro.pipeline import PipelinedPE, config_by_name
from repro.pipeline.config import all_configs
from repro.arch.queue import TaggedQueue
from repro.workloads.suite import run_workload

CONFIG = config_by_name("T|D|X1|X2 +P+Q")


def pipelined(name):
    return PipelinedPE(CONFIG, name=name)


@pytest.fixture(scope="module")
def stream_run():
    """One instrumented multi-PE run shared by the read-only tests."""
    return run_workload("stream", make_pe=pipelined, scale=8, seed=0,
                        telemetry=Telemetry())


# ----------------------------------------------------------------------
# Event/counter identities
# ----------------------------------------------------------------------

def test_event_counts_match_pipeline_counters(stream_run):
    counts = stream_run.system.telemetry.event_counts
    issued = sum(pe.counters.issued for pe in stream_run.system.pes)
    retired = sum(pe.counters.retired for pe in stream_run.system.pes)
    quashed = sum(pe.counters.quashed for pe in stream_run.system.pes)
    assert counts["issue"] == issued
    assert counts["retire"] == retired
    assert counts.get("quash", 0) == quashed


def test_events_carry_source_and_cycle(stream_run):
    telemetry = stream_run.system.telemetry
    pe_names = {pe.name for pe in stream_run.system.pes}
    for event in telemetry.events_of("retire"):
        assert event.source in pe_names
        assert 0 <= event.cycle <= stream_run.cycles
        assert "seq" in event.data and "op" in event.data


def test_queue_conservation(stream_run):
    """enqueues - dequeues == final occupancy, per instrumented queue.

    (The stream workload starts with empty queues, so the events alone
    must account for every entry ever present.)
    """
    telemetry = stream_run.system.telemetry
    enq: dict[str, int] = {}
    deq: dict[str, int] = {}
    for event in telemetry.events:
        if event.kind == "enqueue":
            enq[event.source] = enq.get(event.source, 0) + 1
        elif event.kind == "dequeue":
            deq[event.source] = deq.get(event.source, 0) + 1
    assert enq, "no enqueue events captured"
    for name, timeline in telemetry.queue_timelines.items():
        final = timeline[-1][1] if timeline else 0
        assert enq.get(name, 0) - deq.get(name, 0) == final, name


def test_port_grants_recorded(stream_run):
    grants = stream_run.system.telemetry.events_of("port_grant")
    assert grants
    assert all(event.data["op"] in ("load", "store") for event in grants)


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------

def test_aggregate_sums_per_pe_counters(stream_run):
    registry = MetricsRegistry.from_system(stream_run.system)
    aggregate = registry.aggregate()
    assert aggregate["retired"] == sum(
        entry["counters"]["retired"] for entry in registry.pes.values()
    )
    assert aggregate["cycles"] == sum(
        entry["counters"]["cycles"] for entry in registry.pes.values()
    )
    assert aggregate["cpi"] == aggregate["cycles"] / aggregate["retired"]


def test_hazard_breakdown_covers_every_pe(stream_run):
    registry = MetricsRegistry.from_system(stream_run.system)
    breakdown = registry.hazard_breakdown()
    assert set(breakdown) == {pe.name for pe in stream_run.system.pes}
    for hazards in breakdown.values():
        assert "data_hazard_cycles" in hazards
        assert all(count >= 0 for count in hazards.values())


def test_queue_metrics_have_timelines_and_high_water(stream_run):
    queues = MetricsRegistry.from_system(stream_run.system).queue_metrics()
    assert queues
    for entry in queues.values():
        assert entry["high_water"] <= entry["capacity"]
        occupancies = [point[1] for point in entry["timeline"]]
        assert max(occupancies, default=0) == entry["high_water"]
        # Delta compression: consecutive points always differ.
        assert all(a != b for a, b in zip(occupancies, occupancies[1:]))


def test_port_busy_fraction_bounded(stream_run):
    ports = MetricsRegistry.from_system(stream_run.system).port_metrics()
    assert ports  # stream uses a write port
    for entry in ports.values():
        assert 0.0 < entry["busy_fraction"] <= 1.0


def test_metrics_json_round_trip(tmp_path, stream_run):
    path = tmp_path / "metrics.json"
    text = MetricsRegistry.from_system(stream_run.system).to_json(str(path))
    decoded = json.loads(path.read_text())
    assert decoded == json.loads(text)
    assert decoded["aggregate"]["retired"] > 0
    assert decoded["events"]["truncated"] is False


def test_functional_model_metrics():
    run = run_workload("gcd", scale=4, seed=1, telemetry=Telemetry())
    registry = MetricsRegistry.from_system(run.system)
    entry = registry.pes["worker"]
    assert entry["model"] == "functional"
    assert registry.aggregate()["none_triggered_cycles"] == \
        run.worker_counters.none_triggered
    assert registry.snapshot()["aggregate"]["retired"] > 0


# ----------------------------------------------------------------------
# Trace export
# ----------------------------------------------------------------------

def test_chrome_trace_round_trips_as_json(stream_run):
    trace = json.loads(json.dumps(
        chrome_trace(stream_run.system.telemetry, stream_run.system)
    ))
    events = trace["traceEvents"]
    phases = {event["ph"] for event in events}
    assert {"M", "X", "C"} <= phases
    for event in events:
        assert "pid" in event and "ts" in event or event["ph"] == "M"


def test_trace_spans_stay_inside_the_run(stream_run):
    trace = chrome_trace(stream_run.system.telemetry, stream_run.system)
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert spans
    for span in spans:
        assert span["dur"] >= 1
        assert 0 <= span["ts"] <= stream_run.cycles
        assert span["ts"] + span["dur"] <= stream_run.cycles + 1


def test_trace_has_one_track_per_stage(stream_run):
    trace = chrome_trace(stream_run.system.telemetry, stream_run.system)
    names = {
        (event["pid"], event["tid"])
        for event in trace["traceEvents"] if event["ph"] == "X"
    }
    depth = len(CONFIG.stages)
    pipelined = [
        pe for pe in stream_run.system.pes if hasattr(pe, "stage_snapshot")
    ]
    assert len(names) <= depth * len(pipelined)
    # Every pipelined PE shows activity in its first (trigger) stage.
    assert len({pid for pid, __ in names}) == len(pipelined)


# ----------------------------------------------------------------------
# Disabled == bit-identical; attach/detach hygiene
# ----------------------------------------------------------------------

def test_disabled_run_bit_identical():
    bare = run_workload("stream", make_pe=pipelined, scale=8, seed=0)
    instrumented = run_workload("stream", make_pe=pipelined, scale=8, seed=0,
                                telemetry=Telemetry())
    assert bare.cycles == instrumented.cycles
    assert bare.worker_counters.as_dict() == \
        instrumented.worker_counters.as_dict()


def test_detach_restores_class_default(stream_run):
    telemetry = Telemetry()
    run = run_workload("stream", make_pe=pipelined, scale=8, seed=0,
                       telemetry=telemetry)
    telemetry.detach()
    assert TaggedQueue.telemetry is None
    for pe in run.system.pes:
        assert pe.telemetry is None
        for queue in list(pe.inputs) + list(pe.outputs):
            assert "telemetry" not in queue.__dict__
    assert run.system.telemetry is None


def test_event_limit_truncates_but_keeps_counts():
    telemetry = Telemetry(limit=4)
    run = run_workload("stream", make_pe=pipelined, scale=8, seed=0,
                       telemetry=telemetry)
    assert telemetry.truncated
    assert len(telemetry.events) == 4
    assert telemetry.dropped_events > 0
    # Counts keep tiling the full run even though storage stopped.
    total = sum(telemetry.event_counts.values())
    assert total == len(telemetry.events) + telemetry.dropped_events
    snapshot = MetricsRegistry.from_system(run.system).snapshot()
    assert snapshot["events"]["truncated"] is True


# ----------------------------------------------------------------------
# Counter-consistency audit in System.run
# ----------------------------------------------------------------------

def test_counter_checks_pass_on_clean_run():
    run = run_workload("stream", make_pe=pipelined, scale=8, seed=0)
    assert run.cycles > 0


def test_counter_checks_catch_corruption():
    run = run_workload("stream", make_pe=pipelined, scale=8, seed=0)
    system = run.system
    system.pe("worker").counters.data_hazard_cycles += 7
    with pytest.raises(SimulationError, match="pe=worker"):
        system.run()  # already halted: goes straight to the audit


def test_counter_checks_audit_every_pe():
    """A default run audits the non-worker PEs too: one unclassified
    cycle on stream's address generator fails it, naming that PE."""
    def bump_once(pe):
        pe.counters.data_hazard_cycles += 1
        pe.fault_hook = None

    def factory(name):
        pe = pipelined(name)
        if name == "indexer":
            pe.fault_hook = bump_once
        return pe

    with pytest.raises(SimulationError, match="pe=indexer") as info:
        run_workload("stream", make_pe=factory, scale=8, seed=0)
    assert "cycle accounting leak" in str(info.value)


# ----------------------------------------------------------------------
# Stage snapshot API
# ----------------------------------------------------------------------

LOOP = """
when %p == XXXXXXX0:
    ult %p1, %r0, $5; set %p = ZZZZZZZ1;
when %p == XXXXXX11:
    add %r0, %r0, $1; set %p = ZZZZZZ00;
when %p == XXXXXX01:
    halt;
"""


def test_stage_snapshot_shape_and_content():
    pe = PipelinedPE(config_by_name("T|D|X1|X2"), name="t")
    assemble(LOOP).configure(pe)
    seen_occupant = False
    for _ in range(200):
        if pe.halted:
            break
        pe.step()
        pe.commit_queues()
        snapshot = pe.stage_snapshot()
        assert len(snapshot) == len(pe.config.stages)
        for stage, occupant in enumerate(snapshot):
            if occupant is None:
                continue
            seen_occupant = True
            assert occupant.stage == stage
            assert occupant.label
            assert occupant.seq >= 0
    assert pe.halted and seen_occupant


def test_stage_intervals_tile_without_overlap(stream_run):
    for per_stage in stream_run.system.telemetry.stage_intervals.values():
        for intervals in per_stage:
            spans = sorted(intervals)
            for (s1, e1, *_), (s2, __, *_) in zip(spans, spans[1:]):
                assert e1 >= s1
                assert s2 > e1  # no overlap within one stage track


# ----------------------------------------------------------------------
# Pipeline diagram: the per-PE debug monitor rendered from Telemetry
# ----------------------------------------------------------------------

#: The LOOP program's diagrams, byte for byte: a change to the format or
#: to what Telemetry samples shows up here.
GOLDEN_DIAGRAMS = {
    "T|D|X": """\
 cycle  T       D       X            preds  event
     1  ins0    -       -                1  issued
     2  -       ins0    -                1  predicate hazard
     3  -       -       ins0             1  predicate hazard
     4  ins1    -       -                0  issued
     5  ins0    ins1    -                1  issued
     6  -       ins0    ins1             1  predicate hazard
     7  -       ins0    -                1  predicate hazard
     8  -       -       ins0             1  predicate hazard
     9  ins1    -       -                0  issued
    10  ins0    ins1    -                1  issued
    11  -       ins0    ins1             1  predicate hazard
    12  -       ins0    -                1  predicate hazard
    13  -       -       ins0             1  predicate hazard
    14  ins1    -       -                0  issued
    15  ins0    ins1    -                1  issued
    16  -       ins0    ins1             1  predicate hazard
    17  -       ins0    -                1  predicate hazard
    18  -       -       ins0             1  predicate hazard
    19  ins1    -       -                0  issued
    20  ins0    ins1    -                1  issued
    21  -       ins0    ins1             1  predicate hazard
    22  -       ins0    -                1  predicate hazard
    23  -       -       ins0             1  predicate hazard
    24  ins1    -       -                0  issued
    25  ins0    ins1    -                1  issued
    26  -       ins0    ins1             1  predicate hazard
    27  -       ins0    -                1  predicate hazard
    28  -       -       ins0             1  predicate hazard
    29  ins2    -       -                1  issued
    30  -       ins2    -                1  no trigger
    31  -       -       ins2             1  no trigger
    32  -       -       -                1  no trigger""",
    "T|D|X1|X2 +P": """\
 cycle  T       D       X1      X2           preds  event
     1  ins0    -       -       -                1  issued (spec)
     2  ins2    ins0    -       -                1  issued (spec)
     3  ins1    -       ins0    -                0  issued
     4  ins0    ins1    -       ins0            11  issued (spec)
     5  ins1    ins0    ins1    -                0  issued (spec)
     6  ins1    ins0    -       ins1             0  data hazard (spec)
     7  ins0    ins1    ins0    -               11  issued (spec)
     8  ins1    ins0    ins1    ins0             0  issued (spec)
     9  ins1    ins0    -       ins1             0  data hazard (spec)
    10  ins0    ins1    ins0    -               11  issued (spec)
    11  ins1    ins0    ins1    ins0             0  issued (spec)
    12  ins1    ins0    -       ins1             0  data hazard (spec)
    13  ins0    ins1    ins0    -               11  issued (spec)
    14  ins1    ins0    ins1    ins0             0  issued (spec)
    15  ins1    ins0    -       ins1             0  data hazard (spec)
    16  ins0    ins1    ins0    -               11  issued (spec)
    17  ins1    ins0    ins1    ins0             0  issued (spec)
    18  ins1    ins0    -       ins1             0  data hazard (spec)
    19  ins2    -       ins0    -                1  issued
    20  -       ins2    -       ins0             1  no trigger
    21  -       -       ins2    -                1  no trigger
    22  -       -       -       ins2             1  no trigger
    23  -       -       -       -                1  no trigger""",
    "TDX": """\
 cycle  TDX          preds  event
     1  ins0             1  issued
     2  ins1             0  issued
     3  ins0             1  issued
     4  ins1             0  issued
     5  ins0             1  issued
     6  ins1             0  issued
     7  ins0             1  issued
     8  ins1             0  issued
     9  ins0             1  issued
    10  ins1             0  issued
    11  ins0             1  issued
    12  ins2             1  issued
    13  -                1  no trigger""",
}


def diagrammed(config_name):
    """The LOOP program run on ``config_name`` in a one-PE system,
    sampled."""
    pe = PipelinedPE(config_by_name(config_name), name="t")
    assemble(LOOP).configure(pe)
    system = System()
    system.add_pe(pe)
    telemetry = Telemetry()
    telemetry.attach_system(system)
    system.run(max_cycles=1_000)
    assert pe.halted
    return telemetry, pe


@pytest.mark.parametrize("name", sorted(GOLDEN_DIAGRAMS))
def test_pipeline_diagram_matches_golden(name):
    telemetry, pe = diagrammed(name)
    assert pipeline_diagram(telemetry, pe) == GOLDEN_DIAGRAMS[name]


def test_diagram_window_slices_the_rows():
    telemetry, pe = diagrammed("T|D|X")
    lines = GOLDEN_DIAGRAMS["T|D|X"].splitlines()
    window = pipeline_diagram(telemetry, pe, first=3, count=5)
    assert window.splitlines() == [lines[0], *lines[4:9]]


def test_diagram_rows_tile_the_cycle_counters():
    for name in ("T|D|X", "T|D|X1|X2 +P", "TDX +Q"):
        telemetry, pe = diagrammed(name)
        counters = pe.counters
        rows = telemetry.cycle_rows(pe.name)
        assert [row[0] for row in rows] == list(range(1, counters.cycles + 1))
        outcomes = [row[1] for row in rows]
        assert outcomes.count("issued") == counters.issued
        assert outcomes.count("predicate hazard") == \
            counters.pred_hazard_cycles
        assert outcomes.count("data hazard") == counters.data_hazard_cycles
        assert outcomes.count("forbidden") == counters.forbidden_cycles
        assert outcomes.count("no trigger") == counters.none_triggered_cycles


def test_rows_stop_when_a_pe_halts():
    """In a fabric, a PE that halts early records no rows after it."""
    telemetry = Telemetry()
    run = run_workload("merge", make_pe=pipelined, scale=6, seed=0,
                       telemetry=telemetry)
    assert min(pe.counters.cycles for pe in run.system.pes) < run.cycles
    for pe in run.system.pes:
        assert len(telemetry.cycle_rows(pe.name)) == pe.counters.cycles


def test_diagram_header_matches_partition():
    for name, columns in (("T|D|X1|X2", ["T", "D", "X1", "X2"]),
                          ("TDX", ["TDX"])):
        telemetry, pe = diagrammed(name)
        header = pipeline_diagram(telemetry, pe).splitlines()[0]
        assert header.split() == ["cycle", *columns, "preds", "event"]


def test_diagram_flags_speculation():
    telemetry, pe = diagrammed("T|D|X1|X2 +P")
    lines = pipeline_diagram(telemetry, pe).splitlines()
    assert any(line.endswith(" (spec)") for line in lines)
    telemetry, pe = diagrammed("T|D|X1|X2")
    assert "(spec)" not in pipeline_diagram(telemetry, pe)


def test_diagram_ends_on_an_empty_pipe():
    telemetry, pe = diagrammed("T|D|X1|X2")
    last = pipeline_diagram(telemetry, pe).splitlines()[-1].split()
    assert last[0] == str(pe.counters.cycles)
    assert last[1:5] == ["-"] * 4


# ----------------------------------------------------------------------
# Campaign profiling: the service's spans time every campaign task
# ----------------------------------------------------------------------

def test_campaign_profile_records_cpi_population():
    from repro.serve import CampaignService, InProcessClient

    obs = ServiceObs()
    configs = all_configs()[:3]
    with CampaignService(None, serial=True, obs=obs) as service:
        CpiTable(scale=6).populate(configs, service=InProcessClient(service))
    [job] = obs.tracer.by_name("job")
    assert job.attrs["executed"] == 3 and job.attrs["state"] == "done"
    executes = obs.tracer.by_name("execute")
    assert len(executes) == 3
    assert all(span.seconds > 0 for span in executes)
    assert sum(span.seconds for span in executes) <= job.seconds
    assert obs.tracer.check_nesting() == []


def test_campaign_profile_accumulates_across_calls():
    from repro.serve import CampaignService, InProcessClient

    obs = ServiceObs()
    table = CpiTable(scale=6)
    with CampaignService(None, serial=True, obs=obs) as service:
        client = InProcessClient(service)
        table.populate(all_configs()[:1], service=client)
        table.populate(all_configs()[1:2], service=client)
    assert obs.tracer.summary()["job"] == 2
    assert len(obs.tracer.by_name("execute")) == 2


# ----------------------------------------------------------------------
# Service-side observability (repro.obs.svc)
# ----------------------------------------------------------------------

import io
import re

from repro.obs import (
    JobEventStream,
    JsonLogger,
    ServiceMetrics,
    ServiceObs,
    ServiceTracer,
    campaign_trace,
)
from repro.obs.svc import stats_metrics


class _TickClock:
    """Deterministic monotonic clock: +1.0 per call."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class TestServiceTracer:
    def test_begin_end_records_window_and_ids(self):
        tracer = ServiceTracer(clock=_TickClock())
        span = tracer.begin("job", trace_id="job-1", track="jobs", kind="k")
        assert span.end is None and span.seconds is None
        tracer.end(span, state="done")
        assert span.seconds == 1.0
        assert span.attrs == {"kind": "k", "state": "done"}
        assert span.trace_id == "job-1" and span.span_id == "s000001"
        tracer.end(span, state="again")   # idempotent: first end wins
        assert span.attrs["state"] == "done"
        tracer.end(None)                  # None is a no-op

    def test_record_and_by_name(self):
        tracer = ServiceTracer(clock=_TickClock())
        parent = tracer.begin("task", trace_id="t")
        tracer.record("worker_run", 1.5, 2.5, trace_id="t",
                      parent=parent.span_id)
        tracer.end(parent)
        [run] = tracer.by_name("worker_run")
        assert run.seconds == 1.0 and run.parent_id == parent.span_id
        assert tracer.summary() == {"task": 1, "worker_run": 1}

    def test_check_nesting_flags_problems(self):
        tracer = ServiceTracer(clock=_TickClock())
        open_span = tracer.begin("never_ended", trace_id="t")
        parent = tracer.record("parent", 10.0, 11.0, trace_id="t")
        tracer.record("escapee", 10.5, 12.0, trace_id="t",
                      parent=parent.span_id)
        tracer.record("orphan", 0.0, 1.0, trace_id="t", parent="s999999")
        problems = tracer.check_nesting()
        assert len(problems) == 3
        assert any("never ended" in p for p in problems)
        assert any("escapes parent" in p for p in problems)
        assert any("unknown" in p for p in problems)
        tracer.end(open_span)

    def test_span_limit_counts_drops(self):
        tracer = ServiceTracer(clock=_TickClock(), limit=2)
        for _ in range(5):
            tracer.begin("x", trace_id="t")
        assert len(tracer.spans) == 2
        assert tracer.dropped == 3


class TestServiceMetrics:
    def test_counters_accumulate_per_label_set(self):
        metrics = ServiceMetrics()
        metrics.inc("tasks_total", kind="a")
        metrics.inc("tasks_total", 2, kind="a")
        metrics.inc("tasks_total", kind="b")
        snap = metrics.snapshot()["counters"]
        assert snap['tasks_total{kind="a"}'] == 3
        assert snap['tasks_total{kind="b"}'] == 1

    def test_histogram_buckets_cumulative_in_exposition(self):
        metrics = ServiceMetrics()
        for value in (0.0005, 0.003, 0.003, 99.0):
            metrics.observe("lat_seconds", value)
        text = metrics.prometheus_text()
        assert "# TYPE lat_seconds histogram" in text
        assert 'lat_seconds_bucket{le="0.001"} 1' in text
        assert 'lat_seconds_bucket{le="0.005"} 3' in text
        assert 'lat_seconds_bucket{le="+Inf"} 4' in text
        assert "lat_seconds_count 4" in text

    def test_prometheus_lines_all_parse(self):
        metrics = ServiceMetrics()
        metrics.inc("c_total", 3, label='tricky"quote')
        metrics.gauge("g", 1.5)
        metrics.observe("h_seconds", 0.2, kind="x")
        sample = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? "
            r"(-?\d+(\.\d+)?([eE][+-]?\d+)?|\+Inf|NaN)$"
        )
        for line in metrics.prometheus_text().splitlines():
            assert line.startswith("# TYPE ") or sample.match(line), line

    def test_snapshot_is_json_ready(self):
        metrics = ServiceMetrics()
        metrics.inc("c_total")
        metrics.observe("h_seconds", 0.5)
        decoded = json.loads(json.dumps(metrics.snapshot()))
        assert decoded["counters"]["c_total"] == 1
        assert decoded["histograms"]["h_seconds"]["count"] == 1


def test_stats_metrics_renders_service_and_jit_families():
    stats = {
        "jobs": {"done": 2},
        "supervisor": {"tasks_done": 5, "worker_crashes": 1},
        "admission": {"admitted_jobs": 2, "rejected_jobs": 1,
                      "rejections": {"rate-limited": 1},
                      "queued_jobs": 0, "backlog_tasks": 0},
        "store": {"rows": 4, "hits": 3, "misses": 4, "puts": 4,
                  "duplicate_puts": 0, "max_executions": 1,
                  "executions_total": 4, "kinds": {"workload-run": 4}},
        "serial": False, "pending_tasks": 0, "in_flight": 0,
    }
    jit = {"hits": 7, "misses": 2, "compile_seconds": 0.25, "entries": 2,
           "block_exits": {"halt": 3, "budget": 1}}
    text = stats_metrics(stats, jit=jit).prometheus_text()
    assert "repro_serve_tasks_done_total 5" in text
    assert "repro_serve_worker_crashes_total 1" in text
    assert 'repro_serve_rejections_total{reason="rate-limited"} 1' in text
    assert "repro_serve_store_rows 4" in text
    assert "repro_serve_store_executions_total 4" in text
    assert 'repro_serve_store_kind_rows{kind="workload-run"} 4' in text
    assert "repro_jit_cache_hits_total 7" in text
    assert "repro_jit_compile_seconds_total 0.25" in text
    assert 'repro_jit_block_exits_total{reason="halt"} 3' in text
    assert "repro_jit_cache_entries 2" in text
    # Family names never repeat across TYPE sections (exposition rule).
    families = [line.split()[2] for line in text.splitlines()
                if line.startswith("# TYPE ")]
    assert len(families) == len(set(families))


class TestJsonLogger:
    def test_correlation_ids_and_json_lines(self):
        sink = io.StringIO()
        logger = JsonLogger(sink)
        logger.log("task_retry", level="warning", trace_id="job-1",
                   span_id="s000002", attempt=2)
        logger.log("plain_event")
        lines = sink.getvalue().splitlines()
        assert logger.lines == 2
        first = json.loads(lines[0])
        assert first["event"] == "task_retry"
        assert first["level"] == "warning"
        assert first["trace_id"] == "job-1"
        assert first["span_id"] == "s000002"
        assert first["attempt"] == 2 and "ts" in first
        assert "trace_id" not in json.loads(lines[1])


class TestJobEventStream:
    def test_bounded_buffer_drops_oldest(self):
        stream = JobEventStream(max_buffer=4)
        for i in range(10):
            stream.push({"i": i})
        assert stream.dropped == 6
        events = stream.pop_all()
        assert [e["i"] for e in events] == [6, 7, 8, 9]
        assert len(stream) == 0 and stream.pop_all() == []


def test_campaign_trace_unifies_service_and_sim_tracks():
    obs = ServiceObs(sim_trace=True)
    tracer = obs.tracer
    job = tracer.record("job", 0.0, 10.0, trace_id="job-1", track="jobs")
    tracer.record("task", 1.0, 9.0, trace_id="job-1",
                  parent=job.span_id, track="task job-1/0")
    execute = tracer.record("execute", 2.0, 8.0, trace_id="job-1",
                            track="worker 0", kind="workload-run")
    obs.add_sim_trace(
        "job-1/0",
        {"cycles": 10,
         "pes": {"worker": {"stages": ["T", "X"],
                            "intervals": [[[0, 4, "add", 0, 0]],
                                          [[5, 9, "mul", 1, 1]]]}}},
        start=execute.start, end=execute.end, trace_id="job-1",
    )
    trace = json.loads(json.dumps(campaign_trace(obs)))
    events = trace["traceEvents"]
    service = [e for e in events if e["ph"] == "X" and e["cat"] == "service"]
    sim = [e for e in events if e["ph"] == "X" and e["cat"] == "pipeline"]
    assert len(service) == 3 and len(sim) == 2
    # Service spans all live in process 1; sim tracks in their own.
    assert {e["pid"] for e in service} == {1}
    assert {e["pid"] for e in sim} == {2}
    names = {e["args"]["name"] for e in events if e["ph"] == "M"
             and e["name"] == "thread_name"}
    assert "jobs" in names and "worker 0" in names
    assert "worker T" in names and "worker X" in names
    # Cycle timestamps scale into the execute span's wall window.
    execute_event = next(e for e in service if e["name"] == "execute")
    window = range(execute_event["ts"],
                   execute_event["ts"] + execute_event["dur"] + 1)
    for event in sim:
        assert event["ts"] in window
        assert event["ts"] + event["dur"] in window
    assert event["args"]["cycle"] == 5
    assert trace["otherData"]["sim_tasks"] == 1


def test_campaign_trace_without_sim_tracks():
    obs = ServiceObs()
    obs.tracer.record("job", 0.0, 1.0, trace_id="j", track="jobs")
    trace = campaign_trace(obs, include_sim=False)
    assert all(e["cat"] != "pipeline" for e in trace["traceEvents"]
               if e["ph"] == "X")


def test_metrics_registry_exposes_jit_cache_section(stream_run):
    snapshot = MetricsRegistry.from_system(stream_run.system).snapshot()
    jit = snapshot["jit"]
    assert set(jit) == {"hits", "misses", "compile_seconds", "entries",
                        "block_exits"}
    assert json.loads(json.dumps(jit)) == jit


def test_module_binds_reach_the_snapshot_and_metrics_endpoint():
    """Every PE of a run binds its config's module: each bind shows up
    as a compile or a share in both observation surfaces."""
    from repro.jit.cache import jit_metrics

    before = jit_metrics()
    run = run_workload(
        "udiv", scale=8,
        make_pe=lambda n: PipelinedPE(config_by_name("TD|X"), name=n))
    jit = MetricsRegistry.from_system(run.system).snapshot()["jit"]
    binds = (jit["hits"] + jit["misses"]) - (before["hits"]
                                             + before["misses"])
    assert binds == len(run.system.pes)
    assert jit["entries"] >= 1
    text = stats_metrics({}, jit=jit_metrics()).prometheus_text()
    assert f"repro_jit_cache_hits_total {jit['hits']}" in text
    assert f"repro_jit_cache_misses_total {jit['misses']}" in text


def test_jit_block_exit_reasons_counted():
    from repro.jit.cache import block_exit_counts, reset_metrics
    from repro.params import DEFAULT_PARAMS

    reset_metrics()
    try:
        # A lone PE running to halt exits its generated block once.
        pe = PipelinedPE(config_by_name("T|D|X1|X2"), name="t",
                         backend="jit")
        assemble(LOOP).configure(pe)
        system = System()
        system.add_pe(pe)
        system.run(max_cycles=500)
        assert pe.halted
        assert block_exit_counts() == {"halt": 1}
        # A fabric workload exits blocks on queue activity instead.
        run_workload(
            "gcd",
            make_pe=lambda n: PipelinedPE(
                config_by_name("TDX"), DEFAULT_PARAMS, name=n,
                backend="jit"
            ),
            scale=4, seed=0,
        )
        exits = block_exit_counts()
        assert exits["halt"] == 1 and exits.get("enqueue", 0) > 0
        known = {"halt", "stall", "budget", "dequeue", "enqueue", "error"}
        assert set(exits) <= known
    finally:
        reset_metrics()


def test_block_exits_attributed_to_what_stopped_the_block():
    """A compiled producer that steps last and reads no input queue
    can only leave its block on an enqueue (or its halt), never on a
    dequeue, although its fabric has a sibling to wake."""
    from repro.jit.cache import block_exit_counts, reset_metrics

    config = config_by_name("T|D|X1|X2 +P+Q")
    consumer = PipelinedPE(config, name="consumer")
    producer = PipelinedPE(config, name="producer", backend="jit")
    # Sums tokens until the tag-1 end marker arrives.
    assemble("""
    when %p == XXXXXXXX with %i0.1:
        halt;
    when %p == XXXXXXXX with %i0.0:
        add %r1, %r1, %i0; deq %i0;
    """).configure(consumer)
    # Twenty tokens six cycles apart (three filler adds let the
    # consumer's pipe drain between them), then the end marker.
    assemble("""
    when %p == XXXXX000:
        ult %p1, %r0, $20; set %p = ZZZZZZZ1;
    when %p == XXXXX011:
        mov %o0.0, %r0; set %p = ZZZZZ100;
    when %p == XXXXX100:
        add %r0, %r0, $1; set %p = ZZZZZ110;
    when %p == XXXXX110:
        add %r2, %r2, $1; set %p = ZZZZZ111;
    when %p == XXXXX111:
        add %r2, %r2, $1; set %p = ZZZZZ010;
    when %p == XXXXX010:
        add %r2, %r2, $1; set %p = ZZZZZ000;
    when %p == XXXXX001:
        mov %o0.1, $0; set %p = ZZZZZ101;
    when %p == XXXXX101:
        halt;
    """).configure(producer)
    system = System()
    system.add_pe(consumer)
    system.add_pe(producer)
    system.connect(producer, 0, consumer, 0)
    reset_metrics()
    try:
        system.run()
        exits = block_exit_counts()
    finally:
        reset_metrics()
    assert consumer.regs.read(1) == sum(range(20))
    assert "dequeue" not in exits
    assert exits.get("enqueue", 0) > 0
