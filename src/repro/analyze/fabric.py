"""Fabric-level analysis: tag flow and capacity-cycle deadlock risk.

Works from :meth:`repro.fabric.system.System.wiring` — the structured
channel inventory where channel identity is queue object identity — and
from the programs loaded onto each PE:

``tag-mismatch`` (warning)
    A producer enqueues a tag onto a channel that no trigger of the
    consumer ever accepts on that input queue.  Follows tag propagation
    through memory read ports and LSQ load paths (the response echoes
    the request tag), so a dropped EOS marker on an address stream is
    caught before it becomes a hang.

``capacity-cycle`` (warning)
    PE-to-PE channels form a directed cycle.  Every queue is bounded, so
    a cycle can deadlock once each member waits on space held up by the
    next; memory ports are excluded because they always drain their
    request queues regardless of downstream state.

The per-PE program lints also run here, sharpened by wiring knowledge:
the tags that can actually arrive on each input queue (producer emits,
port propagation, tokens preloaded at build time) bound the abstract
queue state, so a trigger waiting on a tag its channel never carries is
reported as unreachable.
"""

from __future__ import annotations

from repro.analyze.findings import Finding, Severity, attach_source
from repro.analyze.lints import analyze_program
from repro.asm.program import Program
from repro.isa.instruction import DestinationType, Instruction

#: Sentinel distinct from "no tags": the channel's traffic is unknown
#: (dangling queue with no pending tokens), so nothing may be assumed.
_UNKNOWN = None


def _program_of(pe) -> Program:
    """The Program a PE runs, preferring the assembler's source-carrying
    object (left by ``Program.configure``) over a bare reconstruction."""
    loaded = getattr(pe, "loaded_program", None)
    if loaded is not None and tuple(loaded.instructions) == pe.instructions:
        return loaded
    return Program(
        instructions=list(pe.instructions),
        initial_predicates=getattr(pe, "_initial_predicates", 0),
        name=pe.name,
    )


def _emitted_tags(instructions: list[Instruction], out_index: int) -> set[int]:
    """Tags a program can enqueue onto one of its output queues."""
    return {
        ins.dp.dst.out_tag
        for ins in instructions
        if ins.valid and ins.dp.dst.kind is DestinationType.OUT
        and ins.dp.dst.index == out_index
    }


def _emitting_slots(instructions: list[Instruction], out_index: int,
                    tag: int) -> list[int]:
    return [
        slot for slot, ins in enumerate(instructions)
        if ins.valid and ins.dp.dst.kind is DestinationType.OUT
        and ins.dp.dst.index == out_index and ins.dp.dst.out_tag == tag
    ]


def _accepted_tags(instructions: list[Instruction], in_index: int,
                   num_tags: int) -> set[int] | None:
    """Tags the consumer's triggers accept on one input queue.

    ``None`` means every tag (some user of the queue places no tag
    condition on it); an empty set means no instruction references the
    queue at all.
    """
    accepted: set[int] = set()
    for ins in instructions:
        if not ins.valid or in_index not in ins.required_input_queues:
            continue
        check = next((c for c in ins.trigger.tag_checks
                      if c.queue == in_index), None)
        if check is None:
            return _UNKNOWN
        if check.negate:
            accepted |= {t for t in range(num_tags) if t != check.tag}
        else:
            accepted.add(check.tag)
    return accepted


class _Wiring:
    """Resolved view of a System: programs, channels, and tag flow."""

    def __init__(self, system) -> None:
        self.system = system
        self.pes = {pe.name: pe for pe in system.pes}
        self.programs = {pe.name: _program_of(pe) for pe in system.pes}
        self.channels = system.wiring()
        self.by_queue = {id(info.queue): info for info in self.channels}

    def effective_producer(self, info) -> tuple[str, int] | None:
        """The PE endpoint whose emitted tags reach this channel, chasing
        port propagation (response tags echo request tags)."""
        if info.producer is not None:
            return info.producer
        if info.feeds_from is not None:
            source = self.by_queue.get(id(info.feeds_from))
            if source is not None:
                return source.producer
        return None

    def possible_tags(self, info) -> set[int] | None:
        """Tags that can ever appear on a channel, or None if unknown."""
        tags = {entry.tag for entry in info.queue.entries()}
        source = info
        if info.feeds_from is not None:
            linked = self.by_queue.get(id(info.feeds_from))
            if linked is None:
                return _UNKNOWN
            tags |= {entry.tag for entry in linked.queue.entries()}
            source = linked
        if source.producer is not None:
            name, out_index = source.producer
            tags |= _emitted_tags(self.programs[name].instructions, out_index)
        elif source.port_producer is not None or not tags:
            # Port with no traceable request side, or a dangling queue
            # with nothing pending — unknown either way.
            return _UNKNOWN
        return tags


def _tag_mismatch_findings(wiring: _Wiring, params) -> list[Finding]:
    findings = []
    for info in wiring.channels:
        if info.consumer is None:
            continue             # drained by a port (always accepts) or dangling
        producer = wiring.effective_producer(info)
        if producer is None:
            continue
        producer_name, out_index = producer
        emitted = _emitted_tags(
            wiring.programs[producer_name].instructions, out_index)
        consumer_name, in_index = info.consumer
        consumer_program = wiring.programs[consumer_name]
        accepted = _accepted_tags(
            consumer_program.instructions, in_index, params.num_tags)
        if accepted is _UNKNOWN:
            continue
        via = ""
        if info.port_producer is not None:
            via = f" (propagated through {info.port_producer})"
        for tag in sorted(emitted - accepted):
            slots = _emitting_slots(
                wiring.programs[producer_name].instructions, out_index, tag)
            reason = (
                f"no trigger of {consumer_name!r} accepts tag {tag} on %i{in_index}"
                if accepted else
                f"{consumer_name!r} never reads %i{in_index}"
            )
            for slot in slots:
                ins = wiring.programs[producer_name].instructions[slot]
                findings.append(attach_source(Finding(
                    rule="tag-mismatch", severity=Severity.WARNING,
                    message=(
                        f"enqueues tag {tag} to %o{out_index}, which feeds "
                        f"{consumer_name}.%i{in_index}{via}, but {reason} — "
                        "the token can never be consumed"),
                    pe=producer_name, slot=slot,
                    line=ins.line, column=ins.column,
                ), wiring.programs[producer_name]))
    return findings


def _capacity_cycle_findings(wiring: _Wiring) -> list[Finding]:
    """Directed cycles in the PE-to-PE channel graph."""
    edges: dict[str, set[str]] = {name: set() for name in wiring.pes}
    labels: dict[tuple[str, str], list[str]] = {}
    for info in wiring.channels:
        if info.producer is None or info.consumer is None:
            continue
        src, dst = info.producer[0], info.consumer[0]
        edges[src].add(dst)
        labels.setdefault((src, dst), []).append(
            info.queue.name or f"{src}.o{info.producer[1]}")
    findings = []
    seen_cycles: set[tuple[str, ...]] = set()

    def walk(node: str, path: list[str], on_path: set[str],
             done: set[str]) -> None:
        on_path.add(node)
        path.append(node)
        for succ in sorted(edges[node]):
            if succ in on_path:
                cycle = path[path.index(succ):]
                pivot = cycle.index(min(cycle))
                key = tuple(cycle[pivot:] + cycle[:pivot])
                if key in seen_cycles:
                    continue
                seen_cycles.add(key)
                hops = " -> ".join(cycle + [succ])
                channels = "; ".join(
                    labels[(a, b)][0]
                    for a, b in zip(cycle, cycle[1:] + [succ]))
                findings.append(Finding(
                    rule="capacity-cycle", severity=Severity.WARNING,
                    message=(
                        f"PE channel cycle {hops} (channels: {channels}); "
                        "all queues are bounded, so the fabric can "
                        "deadlock once every member waits on space held "
                        "up around the loop"),
                    pe=cycle[0],
                ))
            elif succ not in done:
                walk(succ, path, on_path, done)
        on_path.discard(node)
        path.pop()
        done.add(node)

    done: set[str] = set()
    for name in sorted(edges):
        if name not in done:
            walk(name, [], set(), done)
    return findings


def input_tag_map(wiring: _Wiring, pe_name: str) -> dict[int, frozenset[int]]:
    """Per-input-queue possible-tag sets for one PE, from the wiring."""
    pe = wiring.pes[pe_name]
    tag_map: dict[int, frozenset[int]] = {}
    for index, queue in enumerate(pe.inputs):
        info = wiring.by_queue.get(id(queue))
        if info is None:
            continue
        tags = wiring.possible_tags(info)
        if tags is not None:
            tag_map[index] = frozenset(tags)
    return tag_map


def analyze_system(system, params=None) -> list[Finding]:
    """All findings for a built multi-PE system.

    Runs the program-level lints on every PE with wiring-derived tag
    knowledge, then the fabric-only rules (tag mismatch, capacity
    cycles).  Analyze a freshly *built* system: pending queue tokens
    count as possible traffic, and a drained post-run system would
    understate what channels can carry.
    """
    wiring = _Wiring(system)
    findings: list[Finding] = []
    for pe in system.pes:
        pe_params = params if params is not None else pe.params
        findings += analyze_program(
            wiring.programs[pe.name], pe_params, pe=pe.name,
            input_tags=input_tag_map(wiring, pe.name),
        )
    some_params = params
    if some_params is None and system.pes:
        some_params = system.pes[0].params
    if some_params is not None:
        findings += _tag_mismatch_findings(wiring, some_params)
    findings += _capacity_cycle_findings(wiring)
    return findings
