"""Forensic state dumps for hang and corruption post-mortems.

A bare "deadlock" exception from a multi-PE campaign is useless at
production scale: the interesting question is always *which* PE is
starved, on *which* channel, with *what* in flight.
:func:`forensic_report` collects a structured snapshot of a
:class:`~repro.fabric.system.System` — per-PE predicate state, queue
occupancies with head and neck tags, in-flight pipeline registers,
outstanding speculations, the last-triggered instructions, and memory
port activity — and :func:`format_report` renders it for humans.  The
structured form rides on :class:`~repro.errors.DeadlockError` so
campaign tooling can aggregate hangs without parsing text.
"""

from __future__ import annotations


def forensic_report(system) -> dict:
    """Structured dump of a system's architectural and micro state."""
    report = {
        "cycle": system.cycles,
        "all_halted": system.all_halted,
        "pes": [pe.snapshot_state() for pe in system.pes],
        "read_ports": [
            {
                "name": port.name,
                "idle": port.idle,
                "in_flight": len(port._in_flight),
                "request": None if port.request is None else port.request.snapshot(),
                "response": None if port.response is None else port.response.snapshot(),
            }
            for port in system.read_ports
        ],
        "write_ports": [
            {
                "name": port.name,
                "idle": port.idle,
                "stores_accepted": port.stores_accepted,
                "address": None if port.address is None else port.address.snapshot(),
                "data": None if port.data is None else port.data.snapshot(),
            }
            for port in system.write_ports
        ],
        "lsqs": [
            {"name": lsq.name, "idle": lsq.idle}
            for lsq in system.lsqs
        ],
    }
    # When the observability layer is attached, embed its aggregated
    # metrics snapshot so a hang post-mortem carries the same queue
    # timelines and hazard breakdowns a healthy run would report.
    if getattr(system, "telemetry", None) is not None:
        from repro.obs.metrics import MetricsRegistry

        report["metrics"] = MetricsRegistry.from_system(system).snapshot()
    return report


def _format_queue(prefix: str, queue: dict) -> str:
    parts = [f"occ={queue['occupancy']}/{queue['capacity']}"]
    if queue["staged"]:
        parts.append(f"staged={queue['staged']}")
    if queue["head"] is not None:
        parts.append(f"head=(v={queue['head'][0]}, tag={queue['head'][1]})")
    if queue["neck"] is not None:
        parts.append(f"neck=(v={queue['neck'][0]}, tag={queue['neck'][1]})")
    return f"    {prefix} {queue['name']}: {' '.join(parts)}"


def format_report(report: dict) -> str:
    """Human-readable rendering of :func:`forensic_report` output."""
    lines = [f"forensic dump at cycle {report['cycle']}:"]
    for pe in report["pes"]:
        line = (
            f"  {pe['name']} ({pe['model']}): halted={pe['halted']} "
            f"retired={pe['retired']} preds={pe['predicates']}"
        )
        if pe.get("speculations"):
            line += f" specs={len(pe['speculations'])}"
        lines.append(line)
        fires = pe.get("recent_fires")
        if fires:
            fired = ", ".join(f"c{cycle}:slot{slot}" for cycle, slot in fires)
            lines.append(f"    last triggered: {fired}")
        for entry in pe.get("pipeline") or []:
            if entry is None:
                continue
            lines.append(
                f"    pipe[{entry['stage']}]: slot {entry['slot']} "
                f"({entry['op']}) seq={entry['seq']} "
                f"captured={entry['captured']} ready={entry['result_ready']}"
            )
        for queue in pe["inputs"]:
            if queue["occupancy"] or queue["staged"]:
                lines.append(_format_queue("in ", queue))
        for queue in pe["outputs"]:
            if queue["occupancy"] or queue["staged"]:
                lines.append(_format_queue("out", queue))
    for port in report["read_ports"]:
        if not port["idle"]:
            lines.append(
                f"  {port['name']}: busy, {port['in_flight']} loads in flight"
            )
    for port in report["write_ports"]:
        if not port["idle"]:
            lines.append(f"  {port['name']}: store operands waiting")
    for lsq in report["lsqs"]:
        if not lsq["idle"]:
            lines.append(f"  {lsq['name']}: busy")
    metrics = report.get("metrics")
    if metrics is not None:
        aggregate = metrics["aggregate"]
        lines.append(
            f"  telemetry: {aggregate['retired']} retired across "
            f"{len(metrics['pes'])} PEs, "
            f"{len(metrics['queues'])} queues sampled "
            f"(full metrics snapshot embedded in the structured report)"
        )
    return "\n".join(lines)
