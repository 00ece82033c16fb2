"""Differential execution harness: golden model vs. every pipeline.

One *case* (see :mod:`repro.verify.generator`) runs on the
:class:`~repro.arch.FunctionalPE` golden model and on all 8 stage
partitions × {±P} × {conservative, effective, padded} queue policies.
The harness compares, per configuration:

* the retired output streams of every output queue (values and tags, in
  order);
* the final architectural state — registers, the full predicate file,
  the scratchpad, and the unconsumed input tokens;
* termination within a cycle bound derived from the golden run's cycle
  count (a hang is reported with a :mod:`repro.resilience.forensics`
  dump rather than a bare timeout).

A deterministic per-case subset of configurations additionally runs
with the compiled trigger fast path disabled, holding the reference
dataclass walk to bit-identical state *and counters* against the fast
path.  Every case is also pushed through the assembler/disassembler and
binary encode/decode round trips.

Workers return plain JSON dicts (never raise) so a fuzz campaign can
run as ``fuzz-case`` tasks on the campaign service and aggregate
failures.
"""

from __future__ import annotations

from collections import deque

from repro.analyze.crossval import (
    reachable_slots,
    retired_outside,
    stream_tag_sets,
)
from repro.arch import FunctionalPE
from repro.asm.assembler import assemble
from repro.asm.disassembler import disassemble
from repro.errors import ReproError
from repro.isa.encoding import (
    decode_program,
    encode_instruction,
    encode_program,
    pack_program,
)
from repro.params import ArchParams, DEFAULT_PARAMS
from repro.pipeline import PipelinedPE, all_configs
from repro.resilience.forensics import forensic_report, format_report
from repro.verify.generator import case_source, case_streams

#: The full design matrix under differential test: 8 partitions x {±P}
#: x {conservative, effective, padded} = 48 microarchitectures.
CONFIGS = all_configs(include_padded=True)
CONFIG_NAMES = [config.name for config in CONFIGS]

#: Watchdog for the golden model: a generated case that runs this long
#: without halting is a generator bug, reported as its own failure kind.
GOLDEN_WATCHDOG = 50_000


class _SoloSystem:
    """Adapter giving one PE the System shape forensics expects."""

    def __init__(self, pe) -> None:
        self.cycles = pe.counters.cycles
        self.all_halted = pe.halted
        self.pes = [pe]
        self.read_ports = []
        self.write_ports = []
        self.lsqs = []


def _hang_dump(pe) -> str:
    return format_report(forensic_report(_SoloSystem(pe)))


def _run_model(pe, streams: dict[int, list[tuple[int, int]]],
               max_cycles: int, schedule=None) -> dict | None:
    """Drive one PE to halt; returns its fingerprint, or None on a hang.

    By default, input queues are topped up from the streams whenever
    capacity frees and outputs are drained every cycle, so queue
    availability is a pure function of how many tokens the program has
    consumed — identical across every model, whatever their issue
    timing.

    ``schedule`` (a list of checker witness steps, see
    :mod:`repro.analyze.witness`) overrides that canonical environment
    for its first ``len(schedule)`` cycles: each step names how many
    tokens to deliver per input queue before the cycle and how many
    entries to drain per output queue after it.  Deliveries are clamped
    to available capacity and backlog (a shrinker that deletes stream
    tokens must not turn a witness schedule into an illegal one); once
    the schedule is exhausted the canonical environment resumes, so a
    finite witness prefix still runs to halt.
    """
    backlog = {queue: deque(tokens) for queue, tokens in streams.items()}
    collected: dict[int, list[tuple[int, int]]] = {
        index: [] for index in range(len(pe.outputs))
    }
    # The canonical environment tops up only the queues with backlog
    # left and drains only the outputs that hold entries.
    topup = [(pe.inputs[queue], tokens)
             for queue, tokens in backlog.items() if tokens]
    outputs = list(zip(pe.outputs, collected.values()))
    schedule = list(schedule) if schedule else []
    for cycle in range(max_cycles):
        if pe.halted:
            break
        plan = schedule[cycle] if cycle < len(schedule) else None
        if plan is None:
            exhausted = False
            for queue, tokens in topup:
                while tokens and (len(queue._live) + len(queue._staged)
                                  < queue.capacity):
                    value, tag = tokens.popleft()
                    queue.enqueue(value, tag)
                if not tokens:
                    exhausted = True
            if exhausted:
                topup = [(queue, tokens) for queue, tokens in topup if tokens]
        else:
            for queue, count in (plan.get("deliver") or {}).items():
                queue = int(queue)
                tokens = backlog.get(queue, ())
                for _ in range(count):
                    if not tokens or pe.inputs[queue].is_full:
                        break
                    value, tag = tokens.popleft()
                    pe.inputs[queue].enqueue(value, tag)
        pe.step()
        pe.commit_queues()
        if plan is None:
            for queue, log in outputs:
                if queue._live:
                    log.extend((entry.value, entry.tag)
                               for entry in queue.drain())
        else:
            for index, count in (plan.get("drain") or {}).items():
                index = int(index)
                queue = pe.outputs[index]
                for _ in range(min(count, queue.occupancy)):
                    entry = queue.dequeue()
                    collected[index].append((entry.value, entry.tag))
    if not pe.halted:
        return None
    pe.commit_queues()
    for queue, log in outputs:
        if queue._live:
            log.extend((entry.value, entry.tag) for entry in queue.drain())
    leftovers: dict[int, list[tuple[int, int]]] = {}
    for index, queue in enumerate(pe.inputs):
        left = ([(entry.value, entry.tag) for entry in queue.drain()]
                if queue._live else [])
        left.extend(backlog.get(index, ()))
        if left:
            leftovers[index] = left
    return {
        "halted": True,
        "cycles": pe.counters.cycles,
        "regs": list(pe.regs.snapshot()),
        "preds": pe.preds.state,
        "scratchpad": dict(pe.scratchpad.nonzero()),
        "outputs": {q: list(tokens) for q, tokens in collected.items() if tokens},
        "inputs_left": leftovers,
    }


def _run_guarded(pe, streams: dict[int, list[tuple[int, int]]],
                 max_cycles: int, schedule=None) -> dict | None:
    """:func:`_run_model`, with model crashes captured as results.

    A queue-accounting bug can surface as an exception (dequeue from an
    empty queue, enqueue past capacity) rather than as wrong state; a
    campaign must record that as a divergence, not die on it.
    """
    try:
        return _run_model(pe, streams, max_cycles, schedule=schedule)
    except Exception as exc:     # noqa: BLE001
        return {"crashed": f"{type(exc).__name__}: {exc}"}


def measured_case_cpi(case: dict, config,
                      params: ArchParams = DEFAULT_PARAMS) -> float | None:
    """Worker CPI for one generated case under one pipeline config.

    Runs the pipelined PE in the canonical cooperative environment
    (inputs topped up whenever capacity frees, outputs drained every
    cycle) and returns retired-instruction CPI, or ``None`` when the
    case hangs or crashes.  This is the measurement side of the
    static-bound cross-validation: the proved lower bound of
    :func:`repro.analyze.perf.program_bounds` must never exceed it for
    any case and any configuration (``tests/test_perf.py``).
    """
    name = case.get("name", "case")
    program = assemble(case_source(case), params, name=name)
    pe = PipelinedPE(config, params, name=name)
    program.configure(pe)
    result = _run_guarded(pe, case_streams(case), GOLDEN_WATCHDOG)
    if result is None or not result.get("halted"):
        return None
    if pe.counters.retired == 0:
        return None
    return pe.counters.cpi


_ARCH_KEYS = ("regs", "preds", "scratchpad", "outputs", "inputs_left")


def _diff_states(golden: dict, candidate: dict) -> list[str]:
    """Human-readable field-level differences between two fingerprints."""
    fields = []
    for key in _ARCH_KEYS:
        if golden[key] != candidate[key]:
            fields.append(
                f"{key}: golden={golden[key]!r} candidate={candidate[key]!r}"
            )
    return fields


def _roundtrip_divergences(program, params: ArchParams) -> list[dict]:
    """Assembler/disassembler and binary encode/decode round trips of
    an assembled case."""
    divergences = []
    redisassembled = disassemble(program.instructions, params,
                                 program.initial_predicates)
    reassembled = assemble(redisassembled, params, name=program.name)
    first = [encode_instruction(ins, params) for ins in program.instructions]
    second = [encode_instruction(ins, params)
              for ins in reassembled.instructions]
    if first != second:
        divergences.append({
            "kind": "roundtrip-asm",
            "config": None,
            "detail": "assemble -> disassemble -> assemble changed encodings",
        })
    if reassembled.initial_predicates != program.initial_predicates:
        divergences.append({
            "kind": "roundtrip-asm",
            "config": None,
            "detail": "round trip changed the .start predicate state",
        })
    blob = pack_program(first, params)
    decoded = decode_program(blob, params)
    if encode_program(decoded, params) != blob:
        divergences.append({
            "kind": "roundtrip-binary",
            "config": None,
            "detail": "encode -> decode -> encode changed the binary",
        })
    return divergences


def reference_config_names(case_seed: int, count: int) -> list[str]:
    """The deterministic per-case subset that also runs the reference
    (uncompiled) trigger walk."""
    count = max(0, min(count, len(CONFIG_NAMES)))
    return [CONFIG_NAMES[(case_seed + i * 7) % len(CONFIG_NAMES)]
            for i in range(count)]


#: The models a config may also run, each held to the fast path (the
#: compiled default): (divergence kind, PipelinedPE options, short name
#: for the PE and the cycles detail, label for crash and hang reports,
#: name in the counters detail).
_JIT_LEG = ("jit-vs-interp", {"backend": "interp"}, "interp",
            "interpreter", "interpreter")
_REFERENCE_LEG = ("fast-vs-reference", {"fast_path": False}, "ref",
                  "reference walk", "reference")


def _leg_divergence(leg, case_name: str, config, params: ArchParams,
                    program, streams, bound: int, fast,
                    fast_print: dict) -> dict | None:
    """Run one config on a leg's model and compare it with the fast
    path: crash, hang, final state, cycle count and counters.  Returns
    the divergence, or None when the two agree."""
    kind, options, short, label, long = leg
    pe = PipelinedPE(config, params, name=f"{case_name}-{short}", **options)
    program.configure(pe)
    leg_print = _run_guarded(pe, streams, bound)
    if leg_print is not None and "crashed" in leg_print:
        return {"kind": "crash", "config": f"{config.name} ({label})",
                "detail": leg_print["crashed"]}
    if leg_print is None:
        return {"kind": "hang", "config": f"{config.name} ({label})",
                "detail": f"no halt within {bound} cycles:\n"
                          + _hang_dump(pe)}
    fields = _diff_states(fast_print, leg_print)
    if leg_print["cycles"] != fast_print["cycles"]:
        fields.append(f"cycles: fast={fast_print['cycles']} "
                      f"{short}={leg_print['cycles']}")
    if fast.counters.as_dict() != pe.counters.as_dict():
        fields.append(f"counters differ between fast and {long}")
    if fields:
        return {"kind": kind, "config": config.name,
                "detail": "; ".join(fields)}
    return None


def check_case(case: dict, params: ArchParams = DEFAULT_PARAMS,
               ref_configs: int = 4, jit: bool = False) -> dict:
    """Run one case differentially; returns a JSON-able result dict.

    With ``jit=True`` every configuration additionally runs on the
    interpreter (``backend="interp"``), and the compiled ``repro.jit``
    step every fast-path PE runs by default is held to bit-identical
    state, cycle count, and counters against it.
    """
    result = {
        "name": case["name"],
        "seed": case.get("seed"),
        "configs_checked": 0,
        "golden_cycles": None,
        "divergences": [],
    }
    try:
        program = assemble(case_source(case, params), params,
                           name=case["name"])
        divergences = _roundtrip_divergences(program, params)
    except Exception as exc:     # noqa: BLE001 -- any build failure means
        # the *case* is malformed (shrinker reductions routinely produce
        # programs with dangling states), not that the harness is broken.
        result["divergences"].append({
            "kind": "generator-invalid",
            "config": None,
            "detail": f"case does not assemble: {exc!r}",
        })
        return result
    result["divergences"].extend(divergences)
    streams = case_streams(case)

    golden = FunctionalPE(params, name=f"{case['name']}-golden")
    program.configure(golden)
    golden_print = _run_guarded(golden, streams, GOLDEN_WATCHDOG)
    if golden_print is not None and "crashed" in golden_print:
        result["divergences"].append({
            "kind": "crash",
            "config": None,
            "detail": f"golden model crashed: {golden_print['crashed']}",
        })
        return result
    if golden_print is None:
        result["divergences"].append({
            "kind": "golden-timeout",
            "config": None,
            "detail": "golden model did not halt (generator bug):\n"
                      + _hang_dump(golden),
        })
        return result
    result["golden_cycles"] = golden_print["cycles"]

    # Analyzer cross-validation: reachability over-approximates every
    # model, so a retirement from a slot the static analyzer proved
    # unreachable falsifies the interpreter or the scheduler — either
    # way a divergence.  One reachable-set computation vets all models.
    reachable = reachable_slots(
        program, params,
        stream_tag_sets(streams, params.num_input_queues))
    analysis_problems = retired_outside(reachable, golden.counters)
    if analysis_problems:
        result["divergences"].append({
            "kind": "analysis",
            "config": None,
            "detail": "golden model: " + "; ".join(analysis_problems),
        })

    ref_names = set(reference_config_names(case.get("seed") or 0, ref_configs))
    for config in CONFIGS:
        # Stalls cannot exceed a few pipeline depths per retired
        # instruction plus queue-refill latency; this bound is loose
        # enough that tripping it means livelock, not slowness.
        bound = golden_print["cycles"] * (6 * config.depth) + 500
        fast = PipelinedPE(config, params, name=f"{case['name']}-fast")
        program.configure(fast)
        fast_print = _run_guarded(fast, streams, bound)
        result["configs_checked"] += 1
        if fast_print is not None and "crashed" in fast_print:
            result["divergences"].append({
                "kind": "crash",
                "config": config.name,
                "detail": fast_print["crashed"],
            })
            continue
        if fast_print is None:
            result["divergences"].append({
                "kind": "hang",
                "config": config.name,
                "detail": f"no halt within {bound} cycles "
                          f"(golden: {golden_print['cycles']}):\n"
                          + _hang_dump(fast),
            })
            continue
        fields = _diff_states(golden_print, fast_print)
        if fields:
            result["divergences"].append({
                "kind": "state",
                "config": config.name,
                "detail": "; ".join(fields),
            })
            continue
        analysis_problems = retired_outside(reachable, fast.counters)
        if analysis_problems:
            result["divergences"].append({
                "kind": "analysis",
                "config": config.name,
                "detail": "; ".join(analysis_problems),
            })
            continue
        legs = [_JIT_LEG] if jit else []
        if config.name in ref_names:
            legs.append(_REFERENCE_LEG)
        for leg in legs:
            divergence = _leg_divergence(
                leg, case["name"], config, params, program, streams, bound,
                fast, fast_print)
            if divergence is not None:
                result["divergences"].append(divergence)
                break
    return result


def check_witness(case: dict, witness, params: ArchParams = DEFAULT_PARAMS,
                  ) -> dict:
    """Replay a checker witness through this (independent) harness.

    The checker (:mod:`repro.analyze.check`) and this harness implement
    the run loop separately; a witness that reproduces here is validated
    by two implementations.  The golden model runs under the *canonical*
    environment (its fingerprint is schedule-independent whenever the
    checker proved the golden model schedule-deterministic, which it
    does before emitting any witness); the accused configuration runs
    under the witness schedule at the witness's queue depth.

    Returns a JSON-able dict; ``result["reproduced"]`` is True when the
    replay diverges (crash, hang, or final-state mismatch).
    """
    from dataclasses import replace

    cparams = replace(params, queue_capacity=witness.queue_capacity)
    program = assemble(case_source(case, cparams), cparams,
                       name=case["name"])
    streams = case_streams(case)
    config = next((c for c in CONFIGS if c.name == witness.config), None)
    if config is None:
        raise ReproError(f"witness names unknown config {witness.config!r}")

    golden = FunctionalPE(cparams, name=f"{case['name']}-golden")
    program.configure(golden)
    golden_print = _run_guarded(golden, streams, GOLDEN_WATCHDOG)

    result = {
        "name": case["name"],
        "config": witness.config,
        "kind": witness.kind,
        "queue_capacity": witness.queue_capacity,
        "reproduced": False,
        "divergence": None,
    }
    if golden_print is None or "crashed" in golden_print:
        result["divergence"] = {
            "kind": "golden-timeout" if golden_print is None else "crash",
            "detail": "golden model failed under the canonical schedule",
        }
        return result

    bound = (golden_print["cycles"] * (6 * config.depth) + 500
             + witness.cycles())
    pe = PipelinedPE(config, cparams, name=f"{case['name']}-witness")
    program.configure(pe)
    candidate = _run_guarded(pe, streams, bound, schedule=witness.schedule)
    if candidate is not None and "crashed" in candidate:
        result["reproduced"] = True
        result["divergence"] = {"kind": "crash",
                                "detail": candidate["crashed"]}
        return result
    if candidate is None:
        result["reproduced"] = True
        result["divergence"] = {
            "kind": "hang",
            "detail": f"no halt within {bound} cycles "
                      f"(golden: {golden_print['cycles']}):\n"
                      + _hang_dump(pe),
        }
        return result
    fields = _diff_states(golden_print, candidate)
    if fields:
        result["reproduced"] = True
        result["divergence"] = {"kind": "state", "detail": "; ".join(fields)}
    return result


def real_divergences(result: dict) -> list[dict]:
    """Divergences that indicate a model bug (golden timeouts are
    generator bugs and are excluded — the shrinker must not chase
    degenerate never-halting reductions)."""
    return [d for d in result["divergences"]
            if d["kind"] not in ("golden-timeout", "generator-invalid")]
