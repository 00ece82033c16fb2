"""Cycle-accurate model of a pipelined triggered PE (paper Section 5).

The model is an in-order, single-issue pipeline over the configured
stage partition.  Timing semantics:

* **Issue (T stage)** — trigger resolution against live predicate state
  and the configured queue-status view.  The issue-time
  :class:`~repro.isa.instruction.PredUpdate` applies immediately (the
  ``PC = PC + 4`` analogue), so it never hazards.
* **Decode (exit of the D stage)** — operands are captured (with full
  register forwarding) and input-queue dequeues take effect, matching
  the paper's decision to move dequeues out of the trigger stage.
* **Results** — single-stage ALU operations produce (forwardable)
  results at the end of the stage containing X (or X1); multiplies and
  scratchpad loads at the end of X2.  A consumer stuck in decode behind
  an unready producer is a *data hazard*.
* **Retire (exit of the last stage)** — register writes, output-queue
  enqueues, scratchpad stores and datapath *predicate* writes commit.
  Predicates resolve only here — bypassing them into the scheduler is
  exactly what the trigger critical path cannot afford — which is why
  the predicate-hazard penalty depends only on pipeline depth, as the
  paper observes.

Predicate prediction (+P) follows Section 5.2: a two-bit saturating
counter per predicate offers a value when a predicate-writing
instruction issues, provided no speculation is outstanding (the paper's
scheme is non-nested; ``speculative_depth`` > 1 models the Section 6
extension).  While unresolved, instructions with pre-retirement side
effects (dequeues) are recognized but forbidden from issue.  On
misprediction the pipeline is flushed and the saved predicate state is
restored with the actual outcome.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.arch.predicates import PredicateFile
from repro.arch.queue import TaggedQueue
from repro.arch.regfile import RegisterFile
from repro.arch.scheduler import Scheduler, TriggerKind
from repro.arch.scratchpad import Scratchpad
from repro.arch.trigger_cache import (
    DST_OUT,
    DST_PRED,
    DST_REG,
    IN,
    LIT,
    REG,
    CompiledDatapath,
    compile_datapaths,
    compile_program,
)
from repro.errors import SimulationError
from repro.isa.alu import AluResult, alu_execute
from repro.isa.instruction import Instruction
from repro.params import ArchParams, DEFAULT_PARAMS
from repro.pipeline.config import PipelineConfig, QueuePolicy, SINGLE_CYCLE
from repro.pipeline.counters import PipelineCounters
from repro.pipeline.predictor import PredicatePredictor
from repro.pipeline.queue_status import InFlightQueueState, make_queue_view

_DECISION_CACHE_LIMIT = 1 << 16
"""Entries kept in the memoized trigger-decision cache before it is
dropped wholesale (decision spaces are tiny in practice; the bound only
guards degenerate programs)."""


class _InFlight:
    """One instruction travelling down the pipe."""

    __slots__ = (
        "ins", "meta", "slot", "seq", "stage", "captured", "operands",
        "result", "result_ready", "pred_committed", "writes_reg",
        "writes_pred",
    )

    def __init__(self, ins: Instruction, meta: CompiledDatapath, slot: int,
                 seq: int, stage: int) -> None:
        self.ins = ins
        self.meta = meta
        self.slot = slot
        self.seq = seq
        self.stage = stage
        self.captured = False
        self.operands = (0, 0)
        self.result: AluResult | None = None
        self.result_ready = False
        self.pred_committed = False   # predicate write already applied (+P)
        # Destination kind, flattened once at issue — these are chased
        # every cycle by hazard checks, where enum traffic is measurable.
        self.writes_reg = meta.writes_reg
        self.writes_pred = meta.writes_pred


@dataclass(frozen=True, slots=True)
class StageOccupant:
    """Public view of one pipeline stage's occupant (see
    :meth:`PipelinedPE.stage_snapshot`)."""

    stage: int
    slot: int
    seq: int
    op: str
    label: str
    captured: bool
    result_ready: bool


@dataclass(slots=True)
class _Speculation:
    """One outstanding predicate prediction."""

    owner_seq: int
    pred_index: int
    predicted: int
    fallback: int   # predicate state to restore on misprediction
    forced: bool = False   # injected inversion; excluded from accuracy stats


def _resolve_backend(backend: str) -> str:
    """Validate the executor choice."""
    if backend not in ("interp", "jit"):
        raise SimulationError(
            f"unknown backend {backend!r}; choose 'interp' or 'jit'"
        )
    return backend


class PipelinedPE:
    """A triggered PE with a configurable pipeline microarchitecture."""

    def __init__(
        self,
        config: PipelineConfig = SINGLE_CYCLE,
        params: ArchParams = DEFAULT_PARAMS,
        name: str = "pe",
        has_scratchpad: bool = True,
        initial_predicates: int = 0,
        fast_path: bool = True,
        backend: str = "interp",
    ) -> None:
        self.config = config
        self.params = params
        self.name = name
        capacity = params.queue_capacity
        out_capacity = capacity
        if config.queue_policy is QueuePolicy.PADDED:
            # The reject buffer: one extra physical slot per pipeline stage.
            out_capacity = capacity + config.depth
        self.inputs = [
            TaggedQueue(capacity, f"{name}.i{i}")
            for i in range(params.num_input_queues)
        ]
        self.outputs = [
            TaggedQueue(out_capacity, f"{name}.o{i}")
            for i in range(params.num_output_queues)
        ]
        self.regs = RegisterFile(params)
        self.preds = PredicateFile(params, initial_predicates)
        self.scratchpad = Scratchpad(params) if has_scratchpad else None
        self.scheduler = Scheduler(params)
        self.predictor = PredicatePredictor(params)
        self.instructions: list[Instruction] = []
        self.counters = PipelineCounters()
        self.halted = False
        self._initial_predicates = initial_predicates
        self._pipe: list[_InFlight | None] = [None] * config.depth
        self._queue_state = InFlightQueueState(
            params.num_input_queues, params.num_output_queues
        )
        self._specs: list[_Speculation] = []
        self._next_seq = 0
        self._halt_pending = False
        # Stage indices are immutable per config but cost a property-chain
        # walk per access; flatten them once.
        self._depth = config.depth
        self._decode_stage = config.decode_stage
        self._early_stage = config.early_result_stage
        self._late_stage = config.late_result_stage
        self._predicts = config.predicate_prediction
        self._spec_depth = config.speculative_depth
        # One queue-status view per PE, reading live state — rebuilding it
        # every cycle was pure allocation churn.
        self._view = make_queue_view(config, self.inputs, self.outputs,
                                     self._queue_state)
        # Fast path: triggers compiled at load time plus a memoized
        # trigger decision keyed on everything `evaluate` can observe.
        self.fast_path = fast_path
        self.backend = _resolve_backend(backend)
        self._jit = None          # compiled specialization (repro.jit)
        self._jit_block = None    # bound block-stepping entry point
        self._compiled = None
        self._dp_meta: list[CompiledDatapath] = []
        self._decision_cache: dict[tuple, object] = {}
        self._state_version = 0   # bumps when in-flight queue bookings change
        self._sig_queues = self.inputs + self.outputs
        #: Resilience seam: called with this PE at the top of every live
        #: cycle (see :mod:`repro.resilience.faults`).  None costs one
        #: attribute test per cycle.
        self.fault_hook = None
        #: Observability seam: a :class:`repro.obs.events.Telemetry` sink
        #: receiving issue/retire/quash/rollback events, or ``None``
        #: (one attribute test per cycle, like ``fault_hook``).
        self.telemetry = None
        #: Ring of the most recent (cycle, slot) issues, for forensic dumps.
        self.recent_fires: deque[tuple[int, int]] = deque(maxlen=8)

    # ------------------------------------------------------------------
    # Host interface
    # ------------------------------------------------------------------

    def load_program(self, instructions: list[Instruction]) -> None:
        if len(instructions) > self.params.num_instructions:
            raise SimulationError(
                f"{self.name}: program of {len(instructions)} instructions "
                f"exceeds NIns = {self.params.num_instructions}"
            )
        for ins in instructions:
            if ins.valid:
                ins.validate(self.params)
        self.instructions = list(instructions)
        self._compiled = compile_program(self.instructions) if self.fast_path else None
        self._dp_meta = compile_datapaths(self.instructions, self.params)
        self._decision_cache.clear()
        self._bind_backend()

    def _bind_backend(self) -> None:
        """Attach (or detach) the specialized executor for this program.

        On the ``jit`` backend the content-cached generated ``step``
        shadows the interpreter via an instance binding, and the block
        entry point becomes available to drivers through ``_jit_block``.
        Both defer to the interpreter whenever a fault hook or telemetry
        sink is attached, so instrumented runs stay bit-identical.
        """
        if self.backend == "jit" and self.instructions:
            from repro.jit.cache import get_compiled

            jit = get_compiled(self.instructions, self.config, self.params)
            self._jit = jit
            self.step = jit.step.__get__(self)
            self._jit_block = jit.run.__get__(self)
        else:
            self._jit = None
            self._jit_block = None
            self.__dict__.pop("step", None)

    def invalidate_schedule_cache(self) -> None:
        """Drop memoized trigger decisions (call after external rewiring).

        Queue-version signatures are only monotone for the queue objects
        the PE currently holds; swapping a queue object (as fabric wiring
        does) could otherwise let a stale signature alias a new state.
        """
        self._decision_cache.clear()
        self._state_version += 1
        self._sig_queues = self.inputs + self.outputs

    def reset(self) -> None:
        for queue in self.inputs:
            queue.reset()
        for queue in self.outputs:
            queue.reset()
        self.regs.reset()
        self.preds.reset(self._initial_predicates)
        if self.scratchpad is not None:
            self.scratchpad.reset()
        self.predictor.reset()
        self.counters = PipelineCounters()
        self.halted = False
        self._pipe = [None] * self.config.depth
        self._queue_state.reset()
        self._specs = []
        self._next_seq = 0
        self._halt_pending = False
        self._decision_cache.clear()
        self._state_version += 1
        self.recent_fires.clear()

    def commit_queues(self) -> None:
        for queue in self._sig_queues:
            if queue._staged:
                queue.commit()

    def run_cycles(self, max_cycles: int, stop_on_enqueue: bool = False) -> int:
        """Drive this PE standalone for up to ``max_cycles`` cycles.

        Queues commit after every cycle (the same schedule the fabric
        drivers follow); returns the number of cycles consumed.  On the
        jit backend this dispatches to the generated block loop; with a
        fault hook or telemetry sink attached — or on the interpreter
        backend — it steps cycle by cycle through :meth:`step`, and an
        attached sink samples the PE after each commit, as a
        :class:`~repro.fabric.system.System` would.
        """
        before = self.counters.cycles
        if (
            self._jit_block is not None
            and self.fault_hook is None
            and self.telemetry is None
        ):
            self._jit_block(max_cycles, stop_on_enqueue)
            ran = self.counters.cycles - before
            # Zero cycles means the block refused (entries were already
            # staged on a queue); fall through to the per-cycle loop.
            if ran or self.halted:
                return ran
        for _ in range(max_cycles):
            if self.halted:
                break
            self.step()
            stop = False
            for queue in self._sig_queues:
                if queue._staged:
                    queue.commit()
                    stop = True
            if self.telemetry is not None:
                self.telemetry.sample_pe(self)
            if stop and stop_on_enqueue:
                break
        return self.counters.cycles - before

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Advance one cycle; True when an instruction issued or retired."""
        if self.halted:
            return False
        self.counters.cycles += 1
        if self.fault_hook is not None:
            self.fault_hook(self)
        if self.telemetry is not None:
            self.telemetry.now = self.counters.cycles
        depth = self._depth
        decode_stage = self._decode_stage
        pipe = self._pipe
        progressed = False

        # 1. Advance the pipe back to front; retire from the last stage.
        for stage in reversed(range(depth)):
            entry = pipe[stage]
            if entry is None:
                continue
            if stage == depth - 1:
                self._retire(entry)
                pipe[stage] = None
                progressed = True
                if self.halted:
                    # The halting cycle issues nothing; keep the CPI stack
                    # tiling exact by classifying it as an idle cycle.
                    self.counters.none_triggered_cycles += 1
                    return True
                continue
            if pipe[stage + 1] is not None:
                continue  # structural stall behind a blocked stage
            if stage == decode_stage and not entry.captured:
                continue  # data hazard: operands not captured yet
            pipe[stage] = None
            entry.stage = stage + 1
            pipe[stage + 1] = entry

        # 2. End-of-stage work: operand capture in D, results where due.
        decode_entry = pipe[decode_stage]
        if (decode_entry is not None and not decode_entry.captured
                and self._operands_ready(decode_entry)):
            self._capture(decode_entry)
        # Oldest first: a mispredicting owner must flush younger entries
        # before any of them commits an early predicate write of its own.
        for entry in reversed(pipe):
            if entry is None or entry.result_ready or not entry.captured:
                continue
            if entry.stage >= (
                self._late_stage if entry.meta.late_result else self._early_stage
            ):
                self._compute(entry)

        # 3. Trigger stage: issue a new instruction if the slot is free.
        if pipe[0] is not None:
            # The front is blocked; only data hazards stall this pipeline.
            self.counters.data_hazard_cycles += 1
            return progressed
        if self._halt_pending:
            self.counters.none_triggered_cycles += 1
            return progressed
        pending = self._pending_predicates()
        forbid = bool(self._specs)
        if self.fast_path:
            # Memoize the decision on everything `evaluate` observes: the
            # predicate state, the hazard inputs, and a queue-status
            # signature maintained from monotone version counters.  Stall
            # and idle cycles re-present an unchanged key and skip the
            # program walk entirely.
            signature = self._state_version
            for queue in self._sig_queues:
                signature += queue.version
            key = (self.preds.state, pending, forbid, signature)
            outcome = self._decision_cache.get(key)
            if outcome is None:
                outcome = self.scheduler.evaluate(
                    self.instructions,
                    self.preds.state,
                    self._view,
                    pending_predicates=pending,
                    forbid_side_effects=forbid,
                    compiled=self._compiled,
                )
                if len(self._decision_cache) >= _DECISION_CACHE_LIMIT:
                    self._decision_cache.clear()
                self._decision_cache[key] = outcome
        else:
            outcome = self.scheduler.evaluate(
                self.instructions,
                self.preds.state,
                self._view,
                pending_predicates=pending,
                forbid_side_effects=forbid,
            )
        if outcome.kind is TriggerKind.FIRED:
            self._issue(self.instructions[outcome.index], outcome.index)
            # When decode is coalesced into the trigger stage, operand
            # capture and dequeues belong to the issue cycle itself.
            entry = pipe[0]
            if decode_stage == 0 and self._operands_ready(entry):
                self._capture(entry)
                late = entry.meta.late_result
                if (self._late_stage if late else self._early_stage) == 0:
                    self._compute(entry)
            progressed = True
        elif outcome.kind is TriggerKind.PREDICATE_HAZARD:
            self.counters.pred_hazard_cycles += 1
        elif outcome.kind is TriggerKind.FORBIDDEN:
            self.counters.forbidden_cycles += 1
        else:
            self.counters.none_triggered_cycles += 1
        return progressed

    # ------------------------------------------------------------------
    # Issue
    # ------------------------------------------------------------------

    def _pending_predicates(self) -> int:
        """Predicate bits with in-flight, *unpredicted* datapath writes."""
        mask = 0
        specs = self._specs
        for entry in self._pipe:
            if entry is None or not entry.writes_pred or entry.pred_committed:
                continue
            if specs and any(spec.owner_seq == entry.seq for spec in specs):
                continue
            mask |= 1 << entry.meta.dst_index
        return mask

    def _issue(self, ins: Instruction, slot: int) -> None:
        meta = self._dp_meta[slot]
        entry = _InFlight(ins, meta, slot, self._next_seq, 0)
        self._next_seq += 1
        self._pipe[0] = entry
        self.counters.issued += 1
        self.recent_fires.append((self.counters.cycles, slot))
        if self.telemetry is not None:
            self.telemetry.emit(
                "issue", self.name, slot=slot, op=meta.op.mnemonic,
                seq=entry.seq,
            )

        # Issue-time atomic predicate update (never survives a flush of
        # this instruction, so it touches only the live state).
        self.preds.apply_update(meta.pred_update)

        # Book pending queue activity for the status views.  The state
        # version only moves when the scheduler-visible in-flight
        # bookkeeping does — queue-free instructions leave the memoized
        # decision signature untouched.
        for queue in meta.deq:
            self._queue_state.pending_deqs[queue] += 1
            self._queue_state.sched_deqs[queue] += 1
            self._state_version += 1
        out = meta.out_queue
        if out >= 0:
            self._queue_state.pending_enqs[out] += 1
            self._state_version += 1

        # Offer a prediction for a predicate-writing instruction.
        if (
            entry.writes_pred
            and self._predicts
            and len(self._specs) < self._spec_depth
        ):
            index = meta.dst_index
            predicted = self.predictor.predict(index)
            self._specs.append(
                _Speculation(
                    owner_seq=entry.seq,
                    pred_index=index,
                    predicted=predicted,
                    fallback=self.preds.state,
                    forced=self.predictor.last_forced,
                )
            )
            self.preds.write_bit(index, predicted)

        if meta.is_halt:
            self._halt_pending = True

    # ------------------------------------------------------------------
    # Decode
    # ------------------------------------------------------------------

    def _youngest_producer(self, reg: int, before_seq: int) -> _InFlight | None:
        best = None
        for entry in self._pipe:
            if entry is None or entry.seq >= before_seq:
                continue
            if (entry.writes_reg and entry.ins.dp.dst.index == reg
                    and (best is None or entry.seq > best.seq)):
                best = entry
        return best

    def _operands_ready(self, entry: _InFlight) -> bool:
        for reg in entry.meta.reg_srcs:
            producer = self._youngest_producer(reg, entry.seq)
            if producer is not None and not producer.result_ready:
                return False
        return True

    def _capture(self, entry: _InFlight) -> None:
        """Read operands (with forwarding) and perform dequeues."""
        meta = entry.meta
        operands = []
        for code, payload in meta.operand_plan:
            if code == REG:
                producer = self._youngest_producer(payload, entry.seq)
                if producer is not None:
                    operands.append(producer.result.value)
                else:
                    operands.append(self.regs.read(payload))
            elif code == IN:
                operands.append(self.inputs[payload].peek(0).value)
            else:   # LIT: an immediate (pre-masked) or an absent source
                operands.append(payload)
        entry.operands = (operands[0], operands[1])
        entry.captured = True
        for queue in meta.deq:
            self.inputs[queue].dequeue()
            self._queue_state.pending_deqs[queue] -= 1
            self.counters.dequeues += 1
            self._state_version += 1

    # ------------------------------------------------------------------
    # Execute / retire
    # ------------------------------------------------------------------

    def _compute(self, entry: _InFlight) -> None:
        meta = entry.meta
        semantics = meta.semantics
        a, b = entry.operands
        if semantics is not None:
            params = self.params
            mask = params.word_mask
            entry.result = semantics(
                a & mask, b & mask, params, mask, params.word_width,
                self.scratchpad,
            )
        else:
            entry.result = alu_execute(
                meta.op, a, b, self.params, self.scratchpad
            )
        entry.result_ready = True
        # The speculative predicate unit (+P) sees computed predicates as
        # soon as the ALU produces them: predictions verify here, and
        # unpredicted writes bypass into its live state early.  Without
        # +P there is no such unit, and predicates resolve at retirement.
        if entry.writes_pred and self._predicts:
            self._commit_predicate_write(entry, entry.result.value & 1)
            entry.pred_committed = True

    def _retire(self, entry: _InFlight) -> None:
        if not entry.captured:
            self._capture(entry)    # D coalesced into the final stage
        if not entry.result_ready:
            self._compute(entry)
        result = entry.result
        meta = entry.meta
        dst_kind = meta.dst_kind

        # The scheduler-visible dequeue window closes only at retirement.
        for queue in meta.deq:
            self._queue_state.sched_deqs[queue] -= 1
            self._state_version += 1

        if result.store is not None:
            if self.scratchpad is None:
                raise SimulationError(f"{self.name}: store without a scratchpad")
            self.scratchpad.store(*result.store)

        if dst_kind == DST_REG:
            self.regs.write(meta.dst_index, result.value)
        elif dst_kind == DST_OUT:
            self.outputs[meta.dst_index].enqueue(result.value, meta.out_tag)
            self._queue_state.pending_enqs[meta.dst_index] -= 1
            self.counters.enqueues += 1
            self._state_version += 1
        elif dst_kind == DST_PRED and not entry.pred_committed:
            self._commit_predicate_write(entry, result.value & 1)

        if result.halt:
            self.halted = True

        self.counters.retired += 1
        self.counters.retired_by_op[meta.op.mnemonic] += 1
        self.counters.retired_by_slot[entry.slot] += 1
        if self.telemetry is not None:
            self.telemetry.emit(
                "retire", self.name, slot=entry.slot, op=meta.op.mnemonic,
                seq=entry.seq,
            )

    def _commit_predicate_write(self, entry: _InFlight, actual: int) -> None:
        self.counters.predicate_writes += 1
        index = entry.meta.dst_index
        self.predictor.record_outcome(index, actual)

        spec = next((s for s in self._specs if s.owner_seq == entry.seq), None)
        if spec is None:
            # Unpredicted write: lands in the live state — unless a
            # *younger* in-flight prediction already holds this bit, in
            # which case program order makes the predicted value current
            # and this older write only feeds the rollback state.
            younger_prediction_holds_bit = any(
                s.pred_index == index and s.owner_seq > entry.seq
                for s in self._specs
            )
            if not younger_prediction_holds_bit:
                self.preds.write_bit(index, actual)
            # The write must survive the rollback of any younger
            # speculation (their fallbacks absorb it), but a speculation
            # older than this writer would flush it, so its fallback
            # must not change.
            for other in self._specs:
                if other.owner_seq > entry.seq:
                    if actual:
                        other.fallback |= 1 << index
                    else:
                        other.fallback &= ~(1 << index)
            return

        correct = spec.predicted == actual
        self.predictor.record_resolution(correct, forced=spec.forced)
        if spec.forced:
            self.counters.forced_predictions += 1
        else:
            self.counters.predictions += 1
        if correct:
            self._specs.remove(spec)
            return
        if not spec.forced:
            self.counters.mispredictions += 1
        if self.telemetry is not None:
            self.telemetry.emit(
                "rollback", self.name, pred_index=index,
                predicted=spec.predicted, actual=actual,
                owner_seq=spec.owner_seq,
            )
        self._flush_younger_than(spec.owner_seq)
        self._specs = [s for s in self._specs if s.owner_seq < spec.owner_seq]
        restored = spec.fallback
        if actual:
            restored |= 1 << index
        else:
            restored &= ~(1 << index)
        self.preds.state = restored

    def _flush_younger_than(self, owner_seq: int) -> None:
        """Quash every in-flight instruction issued after the owner."""
        for stage, entry in enumerate(self._pipe):
            if entry is None or entry.seq <= owner_seq:
                continue
            if entry.meta.deq and not entry.captured:
                # Cannot happen: dequeues are forbidden during speculation.
                raise SimulationError(
                    f"{self.name}: flushing an uncaptured dequeue instruction"
                )
            out = entry.meta.out_queue
            if out >= 0:
                self._queue_state.pending_enqs[out] -= 1
                self._state_version += 1
            self._pipe[stage] = None
            self.counters.quashed += 1
            if self.telemetry is not None:
                self.telemetry.emit(
                    "quash", self.name, slot=entry.slot, seq=entry.seq,
                    stage=stage,
                )
        self._halt_pending = any(
            entry is not None and entry.meta.is_halt
            for entry in self._pipe
        )

    # ------------------------------------------------------------------
    # Canonical state (the bounded model checker seam)
    # ------------------------------------------------------------------

    def snapshot_arch_state(self) -> tuple:
        """Canonical, hashable microarchitectural state.

        Everything a future cycle's behavior can depend on, as one
        nested tuple: registers, predicates, non-zero scratchpad words,
        the halt flags, queue contents (live and staged), the in-flight
        queue bookkeeping, the pipeline registers, outstanding
        speculations, and the predictor's two-bit counters.

        Sequence numbers are renumbered to their *relative* order — only
        age comparisons between in-flight entries and speculation owners
        matter, so two states reached after different issue counts but
        with identical relative structure canonicalize identically.
        That (plus excluding monotone cycle/retire counters and the
        predictor's accuracy tallies, which never feed back into
        execution) is what keeps the checker's frontier finite.  The
        inverse is :meth:`restore_arch_state`.
        """
        seqs = sorted(
            {e.seq for e in self._pipe if e is not None}
            | {s.owner_seq for s in self._specs}
        )
        rank = {seq: index for index, seq in enumerate(seqs)}
        pipe = []
        for entry in self._pipe:
            if entry is None:
                pipe.append(None)
                continue
            result = entry.result
            pipe.append((
                entry.slot,
                rank[entry.seq],
                entry.captured,
                entry.operands,
                None if result is None
                else (result.value, result.halt, result.store),
                entry.result_ready,
                entry.pred_committed,
            ))
        scratch = ()
        if self.scratchpad is not None:
            scratch = tuple(
                (address, word)
                for address, word in enumerate(self.scratchpad.dump())
                if word
            )
        return (
            self.regs.snapshot(),
            self.preds.state,
            scratch,
            self.halted,
            self._halt_pending,
            tuple(queue.arch_state() for queue in self.inputs),
            tuple(queue.arch_state() for queue in self.outputs),
            (
                tuple(self._queue_state.pending_deqs),
                tuple(self._queue_state.sched_deqs),
                tuple(self._queue_state.pending_enqs),
            ),
            tuple(pipe),
            tuple(
                (rank[s.owner_seq], s.pred_index, s.predicted, s.fallback,
                 s.forced)
                for s in self._specs
            ),
            (tuple(self.predictor.counters), self.predictor.force_invert_next),
        )

    def restore_arch_state(self, state: tuple) -> None:
        """Restore a :meth:`snapshot_arch_state` snapshot onto this PE.

        The loaded program must be the one the snapshot was taken under
        (pipeline entries are rebuilt from instruction slots).  Counters
        and forensic rings are left untouched; the memoized decision
        cache is dropped so stale decisions cannot alias restored state.
        """
        (regs, preds, scratch, halted, halt_pending, inputs, outputs,
         queue_state, pipe, specs, predictor) = state
        for index, value in enumerate(regs):
            self.regs.write(index, value)
        self.preds.state = preds
        if self.scratchpad is not None:
            self.scratchpad.reset()
            for address, word in scratch:
                self.scratchpad.store(address, word)
        self.halted = halted
        self._halt_pending = halt_pending
        for queue, enc in zip(self.inputs, inputs):
            queue.restore_arch(enc)
        for queue, enc in zip(self.outputs, outputs):
            queue.restore_arch(enc)
        pending_deqs, sched_deqs, pending_enqs = queue_state
        self._queue_state.pending_deqs[:] = pending_deqs
        self._queue_state.sched_deqs[:] = sched_deqs
        self._queue_state.pending_enqs[:] = pending_enqs
        self._pipe = [None] * self._depth
        next_seq = 0
        for stage, enc in enumerate(pipe):
            if enc is None:
                continue
            (slot, seq, captured, operands, result, result_ready,
             pred_committed) = enc
            entry = _InFlight(self.instructions[slot], self._dp_meta[slot],
                              slot, seq, stage)
            entry.captured = captured
            entry.operands = operands
            if result is not None:
                entry.result = AluResult(*result)
            entry.result_ready = result_ready
            entry.pred_committed = pred_committed
            self._pipe[stage] = entry
            next_seq = max(next_seq, seq + 1)
        self._specs = []
        for owner_seq, pred_index, predicted, fallback, forced in specs:
            self._specs.append(_Speculation(
                owner_seq=owner_seq, pred_index=pred_index,
                predicted=predicted, fallback=fallback, forced=forced,
            ))
            next_seq = max(next_seq, owner_seq + 1)
        self._next_seq = next_seq
        counters, force_invert = predictor
        self.predictor.counters[:] = counters
        self.predictor.force_invert_next = force_invert
        self._decision_cache.clear()
        self._state_version += 1

    # ------------------------------------------------------------------
    # Observability / forensics
    # ------------------------------------------------------------------

    def stage_snapshot(self) -> tuple[StageOccupant | None, ...]:
        """Public read-only view of the pipeline registers, one entry per
        stage (``None`` for an empty stage).

        This is the supported way to inspect in-flight state — the
        telemetry sampler reads it, and the pipeline diagram and trace
        exporters render what it sampled — so external tooling never
        reaches into the private pipe.
        Sampling is non-invasive: nothing simulated changes.
        """
        snapshot = []
        for stage, entry in enumerate(self._pipe):
            if entry is None:
                snapshot.append(None)
                continue
            snapshot.append(
                StageOccupant(
                    stage=stage,
                    slot=entry.slot,
                    seq=entry.seq,
                    op=entry.meta.op.mnemonic,
                    label=entry.ins.label.split("@")[0] or "?",
                    captured=entry.captured,
                    result_ready=entry.result_ready,
                )
            )
        return tuple(snapshot)

    def snapshot_state(self) -> dict:
        """Structured microarchitectural state for forensic dumps.

        Includes what the deadlock watchdog needs to explain a hang: the
        in-flight pipeline registers, outstanding speculations, and the
        scheduler-visible queue bookkeeping.
        """
        pipe = []
        for occupant in self.stage_snapshot():
            if occupant is None:
                pipe.append(None)
                continue
            pipe.append(
                {
                    "stage": occupant.stage,
                    "slot": occupant.slot,
                    "op": occupant.op,
                    "seq": occupant.seq,
                    "captured": occupant.captured,
                    "result_ready": occupant.result_ready,
                }
            )
        return {
            "name": self.name,
            "model": "pipelined",
            "config": self.config.name,
            "halted": self.halted,
            "halt_pending": self._halt_pending,
            "cycles": self.counters.cycles,
            "retired": self.counters.retired,
            "issued": self.counters.issued,
            "predicates": f"{self.preds.state:0{self.params.num_preds}b}",
            "registers": list(self.regs.snapshot()),
            "recent_fires": list(self.recent_fires),
            "pipeline": pipe,
            "speculations": [
                {
                    "owner_seq": spec.owner_seq,
                    "pred_index": spec.pred_index,
                    "predicted": spec.predicted,
                }
                for spec in self._specs
            ],
            "pending_deqs": list(self._queue_state.pending_deqs),
            "sched_deqs": list(self._queue_state.sched_deqs),
            "pending_enqs": list(self._queue_state.pending_enqs),
            "inputs": [queue.snapshot() for queue in self.inputs],
            "outputs": [queue.snapshot() for queue in self.outputs],
        }
