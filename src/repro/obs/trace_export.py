"""Renderers of a telemetry stream: pipeline diagrams and Perfetto JSON.

:func:`pipeline_diagram` is the per-PE debug monitor of the paper's
prototype (Section 6.1) as text: one row per cycle, one column per
pipeline stage, then the predicate state and what the trigger stage
did::

     cycle  T       D       X            preds  event
         4  ins1    -       -                0  issued
         5  ins0    ins1    -                1  issued
         6  -       ins0    ins1             1  predicate hazard

:func:`chrome_trace` shows the same for the whole fabric, zoomable, in
any Chrome ``about:tracing`` or Perfetto UI:

* one *process* per PE with one *thread* (track) per pipeline stage;
  each instruction's residence in a stage becomes a complete ("X")
  event spanning its cycles, labelled with the instruction and slot;
* one counter ("C") track per queue, plotting the sampled occupancy
  timeline;
* instant ("i") events for quashes, rollbacks, and memory-port grants.

Timestamps are simulated cycles passed through as microseconds (the
trace-event format's native unit), so one UI microsecond == one cycle.

The emitted JSON object format (``{"traceEvents": [...]}``) is accepted
by both Chrome and Perfetto; everything is plain JSON so the export
round-trips through ``json.loads`` — the smoke gate holds it to that.
"""

from __future__ import annotations

import json

from repro.obs.events import Telemetry

#: Event kinds rendered as instant markers, with the track they land on.
_INSTANT_KINDS = ("quash", "rollback", "port_grant")


def _metadata(pid: int, name: str, tid: int | None = None,
              thread_name: str | None = None) -> list[dict]:
    events = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": name},
        }
    ]
    if tid is not None:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": thread_name},
            }
        )
    return events


def stage_names(pe, depth: int) -> list[str]:
    """Track names for ``pe``'s ``depth`` stages: its partition names
    (``T``, ``D``, ``X1`` ...) when it is pipelined, else ``stage0``,
    ``stage1``, ..."""
    config = getattr(pe, "config", None)
    if config is None:
        return [f"stage{i}" for i in range(depth)]
    return ["".join(stage) for stage in config.stages]


def pipeline_diagram(telemetry: Telemetry, pe, first: int = 0,
                     count: int | None = None) -> str:
    """The pipeline diagram of ``pe`` over a window of its sampled cycles.

    Rows come from :meth:`Telemetry.cycle_rows`, stage labels from the
    stage-occupancy intervals; ``first``/``count`` index the rows.
    """
    telemetry.finish()
    per_stage = telemetry.stage_intervals.get(pe.name, [])
    names = stage_names(pe, len(per_stage))
    width = max(8, max(len(name) for name in names) + 2)
    header = f"{'cycle':>6}  " + "".join(f"{n:<{width}}" for n in names)
    lines = [header + f"{'preds':>10}  event"]
    rows = telemetry.cycle_rows(pe.name)
    rows = rows[first:first + count if count else None]
    if not rows:
        return lines[0]
    low, high = rows[0][0], rows[-1][0]
    labels = [["-"] * (high - low + 1) for _ in names]
    for stage, intervals in enumerate(per_stage):
        for start, end, label, __, __ in intervals:
            for cycle in range(max(start, low), min(end, high) + 1):
                labels[stage][cycle - low] = label
    for cycle, outcome, predicates, speculating in rows:
        row = f"{cycle:>6}  " + "".join(
            f"{column[cycle - low]:<{width}}" for column in labels
        )
        row += f"{predicates:>10b}  {outcome}"
        if speculating:
            row += " (spec)"
        lines.append(row)
    return "\n".join(lines)


def chrome_trace(telemetry: Telemetry, system=None) -> dict:
    """Build the trace-event JSON object from a telemetry sink.

    ``system`` is optional and only used to label stage tracks with
    their partition names (see :func:`stage_names`).
    """
    telemetry.finish()
    events: list[dict] = []
    pids: dict[str, int] = {}

    def pid_of(name: str) -> int:
        if name not in pids:
            pids[name] = len(pids) + 1
        return pids[name]

    pes = {} if system is None else {pe.name: pe for pe in system.pes}

    # -- stage tracks: one process per PE, one thread per stage ----------
    for pe_name, per_stage in telemetry.stage_intervals.items():
        pid = pid_of(pe_name)
        names = stage_names(pes.get(pe_name), len(per_stage))
        events.extend(_metadata(pid, pe_name))
        for stage, intervals in enumerate(per_stage):
            tid = stage + 1
            events.extend(
                _metadata(pid, pe_name, tid=tid, thread_name=names[stage])[1:]
            )
            for start, end, name, slot, seq in intervals:
                events.append(
                    {
                        "name": name,
                        "cat": "pipeline",
                        "ph": "X",
                        "ts": start,
                        "dur": end - start + 1,
                        "pid": pid,
                        "tid": tid,
                        "args": {"slot": slot, "seq": seq},
                    }
                )

    # -- queue occupancy counters ----------------------------------------
    if telemetry.queue_timelines:
        pid = pid_of("queues")
        events.extend(_metadata(pid, "queues"))
    for queue_name, timeline in telemetry.queue_timelines.items():
        for cycle, occupancy in timeline:
            events.append(
                {
                    "name": queue_name,
                    "cat": "queue",
                    "ph": "C",
                    "ts": cycle,
                    "pid": pid,
                    "tid": 0,
                    "args": {"occupancy": occupancy},
                }
            )

    # -- instant markers ---------------------------------------------------
    fabric_pid: int | None = None
    for event in telemetry.events:
        if event.kind not in _INSTANT_KINDS:
            continue
        if event.source in pids:
            pid = pids[event.source]
        else:
            # Memory ports and other non-PE sources share one process.
            if fabric_pid is None:
                fabric_pid = pid_of("fabric")
                events.extend(_metadata(fabric_pid, "fabric"))
            pid = fabric_pid
        events.append(
            {
                "name": event.kind,
                "cat": "events",
                "ph": "i",
                "s": "p",
                "ts": event.cycle,
                "pid": pid,
                "tid": 0,
                "args": dict(event.data),
            }
        )

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "unit": "1 trace microsecond == 1 simulated cycle",
            "truncated": telemetry.truncated,
            "events_dropped": telemetry.dropped_events,
        },
    }


def export_chrome_trace(telemetry: Telemetry, path: str, system=None) -> dict:
    """Write the trace-event JSON to ``path``; returns the object."""
    trace = chrome_trace(telemetry, system=system)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle)
        handle.write("\n")
    return trace


# ----------------------------------------------------------------------
# Campaign (service + simulator) timeline
# ----------------------------------------------------------------------


def campaign_trace(obs, include_sim: bool = True) -> dict:
    """One Perfetto timeline for a whole traced campaign.

    Process 1 ("campaign") renders the :class:`~repro.obs.svc.
    ServiceObs` span tree: the "jobs" track on top, one track per
    worker slot (the ``execute`` spans), one track per task (its
    ``queue_wait``/``backoff``/``store_commit`` children).  Below it,
    one process per traced task renders the simulator stage tracks the
    worker shipped back — cycle timestamps scaled into that task's
    wall-clock execute window — so "why was this campaign slow" reads
    off a single artifact: campaign spans above, pipeline stages below.

    Service timestamps are monotonic wall-clock converted to
    microsecond offsets from the earliest span.
    """
    spans = list(obs.tracer.spans)
    sim_traces = list(obs.sim_traces) if include_sim else []
    starts = [span.start for span in spans]
    starts.extend(entry["start"] for entry in sim_traces)
    base = min(starts, default=0.0)

    def us(stamp: float) -> int:
        return int(round((stamp - base) * 1e6))

    events: list[dict] = []
    pid = 1
    events.extend(_metadata(pid, "campaign"))

    # Track layout: stable, reader-friendly order — "jobs" first, then
    # worker slots, then per-task tracks in first-seen order.
    tracks: dict[str, int] = {}

    def tid_of(track: str) -> int:
        if track not in tracks:
            tracks[track] = len(tracks) + 1
            events.extend(
                _metadata(pid, "campaign", tid=tracks[track],
                          thread_name=track)[1:]
            )
        return tracks[track]

    tid_of("jobs")
    for span in spans:
        if span.track.startswith("worker"):
            tid_of(span.track)

    open_end = max(
        (span.end for span in spans if span.end is not None), default=0.0
    )
    for span in spans:
        end = span.end if span.end is not None else open_end
        events.append({
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "ts": us(span.start),
            "dur": max(1, us(end) - us(span.start)),
            "pid": pid,
            "tid": tid_of(span.track),
            "args": {
                "trace_id": span.trace_id,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                **span.attrs,
            },
        })

    # -- simulator stage tracks, one process per traced task -------------
    sim_pid = pid
    for entry in sim_traces:
        sim_pid += 1
        data = entry["data"]
        cycles = max(1, data.get("cycles", 1))
        window = max(entry["end"] - entry["start"], 1e-9)
        per_cycle_us = window * 1e6 / cycles
        origin = us(entry["start"])

        def sim_ts(cycle: float, origin=origin, per_cycle_us=per_cycle_us):
            return origin + int(round(cycle * per_cycle_us))

        events.extend(_metadata(sim_pid, f"sim {entry['task_id']}"))
        tid = 0
        for pe_name, pe_data in data.get("pes", {}).items():
            stages = pe_data.get("stages", [])
            for stage, intervals in enumerate(pe_data.get("intervals", [])):
                tid += 1
                label = (stages[stage] if stage < len(stages)
                         else f"stage{stage}")
                events.extend(_metadata(
                    sim_pid, f"sim {entry['task_id']}", tid=tid,
                    thread_name=f"{pe_name} {label}",
                )[1:])
                for start, end, name, slot, seq in intervals:
                    events.append({
                        "name": name,
                        "cat": "pipeline",
                        "ph": "X",
                        "ts": sim_ts(start),
                        "dur": max(1, sim_ts(end + 1) - sim_ts(start)),
                        "pid": sim_pid,
                        "tid": tid,
                        "args": {"slot": slot, "seq": seq,
                                 "cycle": start},
                    })

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "unit": "1 trace microsecond == 1 wall-clock microsecond; "
                    "sim tracks scaled into their execute windows",
            "spans": len(spans),
            "spans_dropped": obs.tracer.dropped,
            "sim_tasks": len(sim_traces),
        },
    }


def export_campaign_trace(obs, path: str, include_sim: bool = True) -> dict:
    """Write the unified campaign timeline to ``path``; returns it."""
    trace = campaign_trace(obs, include_sim=include_sim)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle)
        handle.write("\n")
    return trace
