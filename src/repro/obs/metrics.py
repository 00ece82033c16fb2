"""Metrics registry: cross-PE counter aggregation plus fabric metrics.

The paper reads performance counters from one designated worker PE
(Section 6.1); at fabric scale the interesting questions span PEs —
which queue is the bottleneck, which memory port saturates, where the
hazard cycles concentrate.  :class:`MetricsRegistry` aggregates every
PE's counter block, attributes hazards per PE (the Figure 5 CPI-stack
categories), and — when a :class:`~repro.obs.events.Telemetry` sink was
attached — folds in the sampled fabric metrics: per-queue occupancy
timelines and high-water marks, and memory-port/LSQ busy fractions.

Everything exports as plain JSON (:meth:`MetricsRegistry.to_json`), and
the snapshot embeds into resilience forensic reports so a hang
post-mortem carries the same numbers a healthy run would report.
"""

from __future__ import annotations

import json

#: PipelineCounters fields summed into the cross-PE aggregate.
_SUMMED_FIELDS = (
    "cycles",
    "issued",
    "retired",
    "quashed",
    "pred_hazard_cycles",
    "data_hazard_cycles",
    "forbidden_cycles",
    "none_triggered_cycles",
    "predicate_writes",
    "predictions",
    "mispredictions",
    "enqueues",
    "dequeues",
)

#: The Figure 5 hazard-attribution categories (cycle counts per PE).
_HAZARD_FIELDS = (
    "pred_hazard_cycles",
    "data_hazard_cycles",
    "forbidden_cycles",
    "none_triggered_cycles",
)


def _pe_metrics(pe) -> dict:
    """One PE's counter block, normalized across PE models."""
    counters = pe.counters
    entry: dict = {
        "model": "pipelined" if hasattr(pe, "stage_snapshot") else "functional",
        "halted": pe.halted,
        "counters": counters.as_dict(),
    }
    config = getattr(pe, "config", None)
    if config is not None:
        entry["config"] = config.name
    retired = counters.retired
    entry["cpi"] = (counters.cycles / retired) if retired else None
    stack = getattr(counters, "stack", None)
    if stack is not None:
        entry["cpi_stack"] = stack()
        entry["hazards"] = {
            field: getattr(counters, field) for field in _HAZARD_FIELDS
        }
    else:
        # The functional model has a single stall category.
        entry["hazards"] = {
            "none_triggered_cycles": counters.none_triggered,
        }
    return entry


class MetricsRegistry:
    """Aggregates a system's observable state.

    Build one over a finished run::

        registry = MetricsRegistry.from_system(system)
        print(registry.format())
        registry.to_json("metrics.json")

    Without a telemetry sink on the system the registry still
    aggregates counters across PEs; with one the snapshot gains
    queue-occupancy timelines, high-water marks, port busy fractions,
    and the event census.
    """

    def __init__(self) -> None:
        self.pes: dict[str, dict] = {}
        self.cycles = 0
        self.telemetry = None

    # ------------------------------------------------------------------

    @classmethod
    def from_system(cls, system) -> "MetricsRegistry":
        registry = cls()
        registry.cycles = system.cycles
        registry.telemetry = system.telemetry
        for pe in system.pes:
            registry.add_pe(pe)
        return registry

    def add_pe(self, pe) -> None:
        self.pes[pe.name] = _pe_metrics(pe)

    # ------------------------------------------------------------------

    def aggregate(self) -> dict:
        """Cross-PE sums plus the fleet-level CPI."""
        totals = {field: 0 for field in _SUMMED_FIELDS}
        for entry in self.pes.values():
            counters = entry["counters"]
            for field in _SUMMED_FIELDS:
                totals[field] += counters.get(field, 0)
            # Functional counters call their stall field none_triggered.
            totals["none_triggered_cycles"] += counters.get("none_triggered", 0)
        retired = totals["retired"]
        totals["cpi"] = (totals["cycles"] / retired) if retired else None
        return totals

    def hazard_breakdown(self) -> dict[str, dict]:
        """Per-PE hazard attribution (cycle counts by category)."""
        return {name: entry["hazards"] for name, entry in self.pes.items()}

    def queue_metrics(self) -> dict[str, dict]:
        """Per-queue occupancy timeline, high-water mark, and capacity.

        Requires an attached telemetry sink; empty otherwise.
        """
        telemetry = self.telemetry
        if telemetry is None:
            return {}
        metrics: dict[str, dict] = {}
        for name, timeline in telemetry.queue_timelines.items():
            metrics[name] = {
                "capacity": telemetry.queue_capacity[name],
                "high_water": telemetry.queue_high_water[name],
                "final_occupancy": timeline[-1][1] if timeline else 0,
                "timeline": [list(point) for point in timeline],
            }
        return metrics

    def port_metrics(self) -> dict[str, dict]:
        """Per memory-port/LSQ busy cycles and busy fraction."""
        telemetry = self.telemetry
        if telemetry is None or telemetry.sampled_cycles == 0:
            return {}
        sampled = telemetry.sampled_cycles
        return {
            name: {
                "busy_cycles": busy,
                "busy_fraction": busy / sampled,
            }
            for name, busy in telemetry.port_busy_cycles.items()
        }

    def jit_metrics(self) -> dict:
        """Process-wide jit backend health: compile-cache hit/miss and
        compile-seconds totals plus block-exit-reason counts.

        Imported lazily — the registry never drags the jit backend in
        for interpreter-only runs (and the counters are process-global,
        not per-run: they cover every PE compiled since the last
        ``repro.jit.clear_cache()``).
        """
        from repro.jit.cache import jit_metrics

        return jit_metrics()

    def snapshot(self) -> dict:
        """The complete metrics report as one JSON-ready dict."""
        report = {
            "cycles": self.cycles,
            "aggregate": self.aggregate(),
            "pes": self.pes,
            "hazards": self.hazard_breakdown(),
            "queues": self.queue_metrics(),
            "ports": self.port_metrics(),
            "jit": self.jit_metrics(),
        }
        if self.telemetry is not None:
            report["events"] = self.telemetry.summary()
        return report

    def to_json(self, path: str | None = None, indent: int = 1) -> str:
        """Serialize the snapshot; optionally also write it to ``path``."""
        text = json.dumps(self.snapshot(), indent=indent, sort_keys=True)
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
                handle.write("\n")
        return text

    # ------------------------------------------------------------------

    def format(self) -> str:
        """Human-readable metrics report."""
        snapshot = self.snapshot()
        aggregate = snapshot["aggregate"]
        cpi = aggregate["cpi"]
        lines = [
            f"metrics at cycle {snapshot['cycles']}: "
            f"{aggregate['retired']} retired, "
            f"{aggregate['quashed']} quashed, "
            f"aggregate CPI {cpi:.3f}" if cpi is not None else
            f"metrics at cycle {snapshot['cycles']}: nothing retired",
        ]
        lines.append("  per-PE hazard attribution (cycles):")
        for name, entry in snapshot["pes"].items():
            hazards = entry["hazards"]
            pe_cpi = entry["cpi"]
            cpi_text = f"{pe_cpi:.3f}" if pe_cpi is not None else "inf"
            hazard_text = " ".join(
                f"{field.replace('_cycles', '')}={count}"
                for field, count in hazards.items()
            )
            lines.append(
                f"    {name}: retired={entry['counters']['retired']} "
                f"cpi={cpi_text} {hazard_text}"
            )
        if snapshot["queues"]:
            lines.append("  queue high-water marks:")
            for name, queue in sorted(snapshot["queues"].items()):
                lines.append(
                    f"    {name}: {queue['high_water']}/{queue['capacity']} "
                    f"(final {queue['final_occupancy']}, "
                    f"{len(queue['timeline'])} occupancy changes)"
                )
        if snapshot["ports"]:
            lines.append("  memory-port utilization:")
            for name, port in sorted(snapshot["ports"].items()):
                lines.append(
                    f"    {name}: busy {port['busy_cycles']} cycles "
                    f"({port['busy_fraction']:.1%})"
                )
        jit = snapshot.get("jit", {})
        if jit.get("hits") or jit.get("misses"):
            exits = " ".join(
                f"{reason}={count}"
                for reason, count in jit.get("block_exits", {}).items()
            )
            lines.append(
                f"  jit cache: {jit['hits']} hits / {jit['misses']} misses, "
                f"{jit['entries']} entries, "
                f"{jit['compile_seconds']:.3f}s compiling"
                + (f"; block exits: {exits}" if exits else "")
            )
        events = snapshot.get("events")
        if events:
            census = " ".join(
                f"{kind}={count}"
                for kind, count in events["event_counts"].items()
            )
            lines.append(f"  events: {census or '(none)'}")
            if events["truncated"]:
                lines.append(
                    f"  (!) event buffer truncated: "
                    f"{events['events_dropped']} events dropped"
                )
        return "\n".join(lines)
