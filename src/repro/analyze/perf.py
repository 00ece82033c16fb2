"""Static CPI / throughput bounds per (program, pipeline config).

For every workload system and every pipeline configuration this module
derives a **lower and upper bound on the worker PE's CPI without
simulation**, by cycle-mean analysis over the firing-transition graph
(:mod:`repro.analyze.graph`) plus a compositional model of the fabric
environment (queue channels, memory ports, producer PEs).

The two bounds have different contracts:

* the **lower bound** is proved: every edge weight in the ``lower``
  graph is a minimum issue interval derived from the simulator's phase
  ordering, so the minimum cycle mean under-approximates steady-state
  CPI.
* the **upper bound** is engineering-grade: worst-case local weights
  (mispredict flushes, RAW capture stalls, conservative queue status)
  plus generous environment slack (memory round trips, producer-PE
  periods).  It is validated empirically — CI checks that the bounds
  bracket the simulator on Table 3 workloads across all 48 configs —
  and is deliberately loose rather than ever tight-but-wrong.

Three finding rules surface what binds a bound, through the ordinary
findings/SARIF pipeline (``python -m repro.analyze --perf``):

``partition-bound``
    Deep partitions serialize predicate writer->watcher pairs; the CPI
    floor scales with pipeline depth.
``speculation-serialized``
    Under +P, dequeues are forbidden inside speculation windows; the
    floor scales with the writer's result stage.
``throughput-capped-by-queue-depth``
    A memory round-trip loop has fewer buffer slots than its latency
    needs; token circulation, not the program, caps throughput.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analyze.abstract import TagSets, explore
from repro.analyze.fabric import _Wiring, input_tag_map
from repro.analyze.findings import Finding, Severity, attach_source
from repro.analyze.graph import (
    PREDICATE,
    SPECULATION,
    FiringGraph,
    build_firing_graph,
)
from repro.analyze.lints import speculation_pairs
from repro.asm.program import Program
from repro.params import ArchParams, DEFAULT_PARAMS
from repro.pipeline.config import PipelineConfig, all_configs

#: Flat startup/drain allowance added to the upper bound: a finite run
#: pays pipeline fill and drain once, amortized over many retirements.
_TRANSIENT_SLACK = 2.0

#: One-cycle channel traversal on each hop of a memory round trip
#: (request commit -> port -> response commit), see ``repro.arch.queue``.
_PORT_HOPS = 2


@dataclass(frozen=True)
class PerfBounds:
    """Static CPI bounds for one PE under one pipeline configuration."""

    pe: str
    config: str
    lower: float          # proved steady-state CPI floor
    upper: float          # validated worst-case CPI ceiling
    intra_lower: float    # program-structure component of `lower`
    intra_upper: float    # program-structure component of `upper`
    env_slack: float      # environment (channel/port) share of `upper`
    channel_bound: float  # worst token-circulation period over channels
    workload: str | None = None

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def brackets(self, measured: float, slack: float = 1e-9) -> bool:
        """Whether a measured CPI falls inside [lower, upper]."""
        return self.lower - slack <= measured <= self.upper + slack

    def row(self) -> dict:
        return {
            "workload": self.workload, "pe": self.pe, "config": self.config,
            "lower": round(self.lower, 4), "upper": round(self.upper, 4),
            "intra_lower": round(self.intra_lower, 4),
            "env_slack": round(self.env_slack, 4),
            "channel_bound": round(self.channel_bound, 4),
        }


# ----------------------------------------------------------------------
# Program-level bounds (no environment)
# ----------------------------------------------------------------------

def program_graphs(
    program: Program,
    config: PipelineConfig,
    params: ArchParams = DEFAULT_PARAMS,
    input_tags: TagSets | None = None,
) -> tuple[FiringGraph, FiringGraph]:
    """The (lower, upper) weighted firing graphs for one program."""
    reach = explore(program.instructions, program.initial_predicates,
                    params, input_tags)
    spec = speculation_pairs(program, params, input_tags)
    lower = build_firing_graph(program.instructions, reach, config,
                               bound="lower", speculation_pairs=spec)
    upper = build_firing_graph(program.instructions, reach, config,
                               bound="upper")
    return lower, upper


def _intra_bounds(lower: FiringGraph, upper: FiringGraph) -> tuple[float, float]:
    lo = lower.min_cycle_mean()
    lo = 1.0 if lo is None else max(1.0, lo)
    up = upper.max_cycle_mean()
    if up is None:
        # Acyclic program: no sustained rate to bound; the worst single
        # interval is the only structural cost.
        up = max((e.weight for e in upper.edges), default=1.0)
    return lo, max(up, lo)


def program_bounds(
    program: Program,
    config: PipelineConfig,
    params: ArchParams = DEFAULT_PARAMS,
    input_tags: TagSets | None = None,
    pe: str | None = None,
) -> PerfBounds:
    """Bounds for a bare program under a **cooperative environment**
    (inputs always available, outputs never full).

    The lower bound is unconditional; the upper bound only holds when
    nothing outside the PE stalls it — analyze a built system
    (:class:`PerfAnalyzer`) to account for channels and memory.
    """
    lower, upper = program_graphs(program, config, params, input_tags)
    lo, up = _intra_bounds(lower, upper)
    return PerfBounds(
        pe=pe or program.name or "<program>", config=config.name,
        lower=lo, upper=up + _TRANSIENT_SLACK + config.depth,
        intra_lower=lo, intra_upper=up, env_slack=0.0, channel_bound=0.0,
    )


# ----------------------------------------------------------------------
# System-level bounds (fabric environment model)
# ----------------------------------------------------------------------

class PerfAnalyzer:
    """Bounds over a built :class:`~repro.fabric.system.System`.

    Reachability, speculation pairs and wiring are resolved once per
    PE; per-config weighting is then cheap, so sweeping all 48 configs
    costs one graph reweighting each — the property that makes the DSE
    pruning oracle affordable.
    """

    def __init__(self, system, params: ArchParams | None = None,
                 workload: str | None = None) -> None:
        self.system = system
        self.workload = workload
        self.wiring = _Wiring(system)
        self.params = params if params is not None else (
            system.pes[0].params if system.pes else DEFAULT_PARAMS)
        self._static: dict[str, tuple] = {}       # pe -> (program, tags, reach, spec)
        self._graphs: dict[tuple[str, str], tuple[FiringGraph, FiringGraph]] = {}
        self._period: dict[tuple[str, str], float] = {}

    # -- per-PE static facts ------------------------------------------

    def _facts(self, pe_name: str):
        cached = self._static.get(pe_name)
        if cached is None:
            program = self.wiring.programs[pe_name]
            tags = input_tag_map(self.wiring, pe_name)
            reach = explore(program.instructions, program.initial_predicates,
                            self.params, tags)
            spec = speculation_pairs(program, self.params, tags)
            cached = (program, tags, reach, spec)
            self._static[pe_name] = cached
        return cached

    def graphs(self, pe_name: str, config: PipelineConfig
               ) -> tuple[FiringGraph, FiringGraph]:
        key = (pe_name, config.name)
        cached = self._graphs.get(key)
        if cached is None:
            program, _tags, reach, spec = self._facts(pe_name)
            cached = (
                build_firing_graph(program.instructions, reach, config,
                                   bound="lower", speculation_pairs=spec),
                build_firing_graph(program.instructions, reach, config,
                                   bound="upper"),
            )
            self._graphs[key] = cached
        return cached

    # -- environment model --------------------------------------------

    def _round_trip(self, config: PipelineConfig) -> float:
        """Worst memory round trip: enqueue commits at retirement, then
        one hop to the port, the access latency, one hop back."""
        return config.depth + self.system.memory_latency + _PORT_HOPS

    def _cycle_slots(self, pe_name: str, config: PipelineConfig) -> int:
        """Slots on a firing-graph cycle — a steady-state producer fires
        only these, so they bound its firings-per-enqueue factor."""
        lower_graph, _ = self.graphs(pe_name, config)
        succ = {node: [e.dst for e in edges]
                for node, edges in lower_graph.successors().items()}
        on_cycle = 0
        for start in lower_graph.nodes:
            frontier = list(succ.get(start, ()))
            seen = set()
            while frontier:
                node = frontier.pop()
                if node == start:
                    on_cycle += 1
                    break
                if node in seen:
                    continue
                seen.add(node)
                frontier.extend(succ.get(node, ()))
        return on_cycle if on_cycle else len(lower_graph.nodes)

    def _token_period(self, producer: str, config: PipelineConfig,
                      stack: tuple[str, ...]) -> float:
        """Worst sustained interval between a producer PE's tokens: its
        per-firing period times its firings per enqueue (at most the
        slots on its steady-state firing cycles)."""
        slots = self._cycle_slots(producer, config)
        return self._period_ub(producer, config, stack) * max(1, slots)

    def _env_slack(self, pe_name: str, config: PipelineConfig,
                   stack: tuple[str, ...]) -> tuple[float, float]:
        """(per-firing environment wait allowance, worst channel token
        bound).

        Memory round trips add up — a firing can serially chase through
        every port-fed channel — but producer-PE terms compose by
        ``max``: in steady state the slowest upstream token rate is what
        throttles the consumer, rates do not stack.
        """
        pe = self.system.pe(pe_name)
        port_slack = 0.0
        producer_term = 0.0
        channel_bound = 0.0
        for queue in pe.inputs:
            info = self.wiring.by_queue.get(id(queue))
            if info is None:
                continue
            if info.port_producer is not None:
                trip = self._round_trip(config)
                port_slack += trip
                request = info.feeds_from
                buffering = queue.capacity + self.system.memory_latency
                if request is not None:
                    buffering = min(queue.capacity, request.capacity) \
                        + self.system.memory_latency
                channel_bound = max(channel_bound, trip / max(1, buffering))
            elif info.producer is not None and info.producer[0] != pe_name:
                producer_term = max(producer_term, self._token_period(
                    info.producer[0], config, stack))
        # A write port drains only when both its channels hold data: an
        # output to such a port can back up while the sibling channel
        # (possibly another PE's) starves.
        for port in self.system.write_ports:
            channels = [c for c in (port.address, port.data) if c is not None]
            producers = set()
            for channel in channels:
                info = self.wiring.by_queue.get(id(channel))
                if info is not None and info.producer is not None:
                    producers.add(info.producer[0])
            if pe_name not in producers:
                continue
            for other in producers - {pe_name}:
                producer_term = max(producer_term, self._token_period(
                    other, config, stack))
        return port_slack + producer_term, channel_bound

    def _period_ub(self, pe_name: str, config: PipelineConfig,
                   stack: tuple[str, ...]) -> float:
        """Upper bound on a PE's sustained inter-firing period."""
        key = (pe_name, config.name)
        cached = self._period.get(key)
        if cached is not None:
            return cached
        if pe_name in stack:
            # PE channel cycle: break it with a generous constant rather
            # than recursing (the capacity-cycle lint reports the risk).
            return self._round_trip(config) + config.depth
        _lo, up = _intra_bounds(*self.graphs(pe_name, config))
        slack, _ = self._env_slack(pe_name, config, stack + (pe_name,))
        period = up + slack + config.depth
        self._period[key] = period
        return period

    # -- public API ----------------------------------------------------

    def bounds(self, pe_name: str, config: PipelineConfig) -> PerfBounds:
        lower_graph, upper_graph = self.graphs(pe_name, config)
        lo, up = _intra_bounds(lower_graph, upper_graph)
        slack, channel_bound = self._env_slack(pe_name, config, (pe_name,))
        return PerfBounds(
            pe=pe_name, config=config.name,
            lower=lo,
            upper=up + slack + _TRANSIENT_SLACK + config.depth,
            intra_lower=lo, intra_upper=up,
            env_slack=slack, channel_bound=channel_bound,
            workload=self.workload,
        )

    def findings(self, pe_name: str,
                 configs: list[PipelineConfig] | None = None) -> list[Finding]:
        """The three perf rules for one PE, aggregated across configs."""
        if configs is None:
            configs = all_configs(include_padded=True)
        program, _tags, _reach, _spec = self._facts(pe_name)
        partition: list[tuple[float, float, PipelineConfig, int | None]] = []
        serialized: list[tuple[float, float, PipelineConfig, int | None]] = []
        capped: list[tuple[float, float, PipelineConfig]] = []
        for config in configs:
            lower_graph, _ = self.graphs(pe_name, config)
            b = self.bounds(pe_name, config)
            for kind, sink in ((PREDICATE, partition),
                               (SPECULATION, serialized)):
                binding = [e for e in lower_graph.edges
                           if e.kind == kind and e.weight > 1]
                if not binding:
                    continue
                relaxed = lower_graph.relaxed(kind).min_cycle_mean()
                relaxed = 1.0 if relaxed is None else max(1.0, relaxed)
                if b.intra_lower > relaxed + 1e-9:
                    sink.append((b.intra_lower, relaxed, config,
                                 binding[0].src))
            if b.channel_bound > b.intra_lower + 1e-9:
                capped.append((b.channel_bound, b.intra_lower, config))

        findings = []
        name = f"{self.workload}/{pe_name}" if self.workload else pe_name
        if partition:
            worst, relaxed, config, slot = max(
                partition, key=lambda entry: entry[:2])
            ins = program.instructions[slot] if slot is not None else None
            findings.append(attach_source(Finding(
                rule="partition-bound", severity=Severity.NOTE,
                message=(
                    f"pipeline depth serializes predicate writer->watcher "
                    f"pairs in {len(partition)} of {len(configs)} configs; "
                    f"worst {config.name}: static CPI floor {worst:.2f} "
                    f"vs {relaxed:.2f} were predicates resolved in one "
                    f"cycle"),
                pe=name, slot=slot,
                line=ins.line if ins else None,
                column=ins.column if ins else None,
            ), program))
        if serialized:
            worst, relaxed, config, slot = max(
                serialized, key=lambda entry: entry[:2])
            ins = program.instructions[slot] if slot is not None else None
            findings.append(attach_source(Finding(
                rule="speculation-serialized", severity=Severity.NOTE,
                message=(
                    f"+P speculation windows forbid dequeues in "
                    f"{len(serialized)} of {len(configs)} configs; worst "
                    f"{config.name}: static CPI floor {worst:.2f} vs "
                    f"{relaxed:.2f} without the serialization"),
                pe=name, slot=slot,
                line=ins.line if ins else None,
                column=ins.column if ins else None,
            ), program))
        if capped:
            worst, floor, config = max(capped, key=lambda entry: entry[:2])
            findings.append(Finding(
                rule="throughput-capped-by-queue-depth",
                severity=Severity.NOTE,
                message=(
                    f"memory round-trip token circulation caps throughput "
                    f"in {len(capped)} of {len(configs)} configs; worst "
                    f"{config.name}: {worst:.2f} cycles/token over the "
                    f"channel buffering vs program floor {floor:.2f} — "
                    f"deeper queues would lift the cap"),
                pe=name,
            ))
        return findings


# ----------------------------------------------------------------------
# Workload-level conveniences
# ----------------------------------------------------------------------

def workload_analyzer(
    name: str,
    params: ArchParams = DEFAULT_PARAMS,
    scale: int | None = None,
    seed: int = 0,
) -> tuple[PerfAnalyzer, str]:
    """(analyzer, worker PE name) for one freshly built Table 3 workload."""
    from repro.workloads.suite import get_workload

    workload = get_workload(name, params)
    scale = workload.default_scale if scale is None else scale
    system = workload.build(workload.default_pe_factory(), scale, seed)
    analyzer = PerfAnalyzer(system, params=workload.params, workload=name)
    return analyzer, workload.worker_name


def workload_bounds(
    name: str,
    config: PipelineConfig,
    params: ArchParams = DEFAULT_PARAMS,
    scale: int | None = None,
    seed: int = 0,
) -> PerfBounds:
    """Static bounds for one workload's worker under one config."""
    analyzer, worker = workload_analyzer(name, params, scale, seed)
    return analyzer.bounds(worker, config)


# ----------------------------------------------------------------------
# Validation against the simulator
# ----------------------------------------------------------------------

def bracket_check(
    workloads: list[str] | None = None,
    configs: list[PipelineConfig] | None = None,
    params: ArchParams = DEFAULT_PARAMS,
    scale: int = 8,
    seed: int = 0,
) -> tuple[list[dict], list[Finding]]:
    """Simulate (workload x config) and check bounds bracket measured CPI.

    Returns the per-pair rows (bounds + measured, for reports and the
    EXPERIMENTS gap histogram) and a finding list — one
    ``perf-bound-violated`` **error** per pair whose measured CPI falls
    outside [lower, upper].  CI runs this as ``--perf --smoke``.
    """
    from repro.pipeline.core import PipelinedPE
    from repro.workloads.suite import WORKLOADS, run_workload

    names = workloads if workloads is not None else WORKLOADS()
    if configs is None:
        configs = all_configs(include_padded=True)
    rows: list[dict] = []
    findings: list[Finding] = []
    for name in names:
        analyzer, worker = workload_analyzer(name, params, scale, seed)
        for config in configs:
            bounds = analyzer.bounds(worker, config)
            run = run_workload(
                name,
                make_pe=lambda pe_name, c=config: PipelinedPE(
                    c, params, name=pe_name),
                scale=scale, seed=seed, params=params,
            )
            measured = run.worker_counters.cpi
            row = bounds.row()
            row["measured"] = round(measured, 4)
            row["bracketed"] = bounds.brackets(measured)
            rows.append(row)
            if not row["bracketed"]:
                findings.append(Finding(
                    rule="perf-bound-violated", severity=Severity.ERROR,
                    message=(
                        f"{config.name}: measured CPI {measured:.4f} "
                        f"outside static bounds [{bounds.lower:.4f}, "
                        f"{bounds.upper:.4f}]"),
                    pe=f"{name}/{worker}",
                ))
    return rows, findings
