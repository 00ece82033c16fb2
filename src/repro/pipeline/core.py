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
from collections.abc import Sequence
from dataclasses import dataclass

from repro.arch.predicates import PredicateFile
from repro.arch.queue import TaggedQueue, restore_queues
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
    Lowering,
    lower_program,
)
from repro.errors import SimulationError
from repro.isa.alu import alu_execute
from repro.isa.instruction import Instruction
from repro.params import ArchParams, DEFAULT_PARAMS
from repro.pipeline.config import PipelineConfig, QueuePolicy, SINGLE_CYCLE
from repro.pipeline.counters import PipelineCounters
from repro.pipeline.predictor import PredicatePredictor
from repro.pipeline.queue_status import InFlightQueueState, make_queue_view


class _InFlight:
    """One instruction travelling down the pipe.

    An entry does not record its stage: operands are captured only in
    the decode stage, so forwarding scans a per-PE constant range of
    deeper stages, and every other walk knows the stage it reads.
    """

    __slots__ = (
        "meta", "slot", "seq", "captured", "operands", "value",
        "result_ready", "pred_committed",
    )

    def __init__(self, meta: CompiledDatapath, slot: int, seq: int) -> None:
        self.meta = meta
        self.slot = slot
        self.seq = seq
        self.captured = False
        self.operands = (0, 0)
        self.value: int | None = None   # the result word, once computed
        self.result_ready = False
        self.pred_committed = False   # predicate write already applied (+P)


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


def _resolve_backend(backend: str | None, fast_path: bool) -> str:
    """Validate the executor choice.  By default the fast path runs its
    config's compiled step (``"jit"``) and the reference walk the
    interpreter; ``"interp"`` keeps a fast-path PE on the interpreter,
    the differential oracle.  The compiled step runs the fast path's
    trigger walk, so it cannot run the reference walk."""
    if backend is None:
        return "jit" if fast_path else "interp"
    if backend not in ("interp", "jit"):
        raise SimulationError(
            f"unknown backend {backend!r}; choose 'interp' or 'jit'"
        )
    if backend == "jit" and not fast_path:
        raise SimulationError(
            "backend 'jit' runs the fast path; it cannot be combined"
            " with fast_path=False"
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
        backend: str | None = None,
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
        # The datapath reads and writes the storage directly (the
        # program's indices were validated when it was lowered).
        self._reg_words = self.regs.words
        self.preds = PredicateFile(params, initial_predicates)
        self.scratchpad = Scratchpad(params) if has_scratchpad else None
        self.scheduler = Scheduler()
        self.predictor = PredicatePredictor(params)
        self.instructions: tuple[Instruction, ...] = ()
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
        # Stage indices and the word geometry are immutable but cost a
        # property-chain walk per access; flatten them once.
        self._word_mask = params.word_mask
        self._word_width = params.word_width
        self._depth = config.depth
        self._decode_stage = config.decode_stage
        self._early_stage = config.early_result_stage
        self._late_stage = config.late_result_stage
        #: Stages that can hold an older producer of a decoding entry.
        self._forward_stages = range(config.decode_stage + 1, config.depth)
        self._predicts = config.predicate_prediction
        self._spec_depth = config.speculative_depth
        # One queue-status view per PE, reading live state — rebuilding it
        # every cycle was pure allocation churn.
        self._view = make_queue_view(config, self.inputs, self.outputs,
                                     self._queue_state)
        # Fast path: the program's lowered triggers, resolved through
        # its predicate-indexed candidate table.
        self.fast_path = fast_path
        self.backend = _resolve_backend(backend, fast_path)
        self._jit = None          # config's compiled cycle (repro.jit)
        self._compiled = None
        self._dp_meta: tuple[CompiledDatapath, ...] = ()
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

    def load_program(self, program: Lowering | Sequence[Instruction]) -> None:
        """Program the instruction memory.

        ``program`` is a :class:`~repro.arch.trigger_cache.Lowering` for
        this PE's parameters (what ``Program.configure`` passes) or a raw
        instruction list, validated and lowered here.  A compiled PE
        (``backend="jit"``) binds its config's compiled cycle
        (:func:`repro.jit.cache.acquire`) at its first program;
        :meth:`step` runs it from then on.
        """
        if not isinstance(program, Lowering):
            program = lower_program(program, self.params)
        elif program.params != self.params:
            raise SimulationError(
                f"{self.name}: program lowered for other parameters")
        self.instructions = program.instructions
        self._compiled = program.compiled if self.fast_path else None
        self._dp_meta = program.datapaths
        if self.backend == "jit" and self._jit is None:
            from repro.jit.cache import acquire

            self._jit = acquire(self.config)

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
        self.recent_fires.clear()

    def commit_queues(self) -> None:
        for queue in self.inputs:
            if queue._staged:
                queue.commit()
        for queue in self.outputs:
            if queue._staged:
                queue.commit()

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Advance one cycle; True when an instruction issued or retired.

        Every pipelined PE's cycle enters here.  The prologue — halt
        test, cycle count, fault hook, telemetry clock — is common; the
        body is the config's compiled cycle (:mod:`repro.jit`) when one
        is bound, else the interpreter below: the ``backend="interp"``
        oracle and the reference walk.
        """
        if self.halted:
            return False
        self.counters.cycles += 1
        if self.fault_hook is not None:
            self.fault_hook(self)
        if self.telemetry is not None:
            self.telemetry.now = self.counters.cycles
        if self._jit is not None:
            return self._jit(self)
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
            pipe[stage + 1] = entry

        # 2. End-of-stage work: operand capture in D, results where due.
        decode_entry = pipe[decode_stage]
        if decode_entry is not None and not decode_entry.captured:
            self._capture(decode_entry)
        # Oldest first: a mispredicting owner must flush younger entries
        # before any of them commits an early predicate write of its own.
        for stage in reversed(range(depth)):
            entry = pipe[stage]
            if entry is None or entry.result_ready or not entry.captured:
                continue
            if stage >= (
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
        outcome = self.scheduler.evaluate(
            self.instructions,
            self.preds.state,
            self._view,
            pending_predicates=self._pending_predicates(),
            forbid_side_effects=bool(self._specs),
            compiled=self._compiled,    # None: the reference walk
        )
        if outcome.kind is TriggerKind.FIRED:
            self._issue(outcome.index)
            # When decode is coalesced into the trigger stage, operand
            # capture and dequeues belong to the issue cycle itself.
            entry = pipe[0]
            if decode_stage == 0 and self._capture(entry):
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
            if (entry is None or not entry.meta.writes_pred
                    or entry.pred_committed):
                continue
            if specs and any(spec.owner_seq == entry.seq for spec in specs):
                continue
            mask |= 1 << entry.meta.dst_index
        return mask

    def _issue(self, slot: int) -> None:
        """Issue ``slot`` into the trigger stage: the new pipeline entry,
        the slot's issue-time predicate update, the in-flight queue
        bookings the status views read, the +P prediction offer and a
        pending halt."""
        meta = self._dp_meta[slot]
        seq = self._next_seq
        self._pipe[0] = _InFlight(meta, slot, seq)
        self._next_seq = seq + 1
        counters = self.counters
        counters.issued += 1
        self.recent_fires.append((counters.cycles, slot))
        if self.telemetry is not None:
            self.telemetry.emit(
                "issue", self.name, slot=slot, op=meta.mnemonic, seq=seq,
            )

        # Issue-time atomic predicate update (never survives a flush of
        # this instruction, so it touches only the live state).
        preds = self.preds
        state = (preds.state | meta.pred_set) & meta.pred_keep

        # Book pending queue activity for the status views.
        if meta.books_queues:
            booked = self._queue_state
            for queue in meta.deq:
                booked.pending_deqs[queue] += 1
                booked.sched_deqs[queue] += 1
            out = meta.out_queue
            if out >= 0:
                booked.pending_enqs[out] += 1

        # +P offers a prediction for a predicate write, unless
        # ``speculative_depth`` predictions are already outstanding.
        if (meta.writes_pred and self._predicts
                and len(self._specs) < self._spec_depth):
            index = meta.dst_index
            predictor = self.predictor
            predicted = predictor.predict(index)
            self._specs.append(_Speculation(
                seq, index, predicted, state, predictor.last_forced))
            if predicted:
                state |= 1 << index
            else:
                state &= ~(1 << index)
        preds.state = state

        if meta.is_halt:
            self._halt_pending = True

    # ------------------------------------------------------------------
    # Decode
    # ------------------------------------------------------------------

    def _capture(self, entry: _InFlight) -> bool:
        """Read operands, with forwarding, and perform the dequeues.

        ``entry`` sits in the decode stage.  A register operand comes
        from its youngest older in-flight producer, else from the
        register file.  The pipe is in order, so that producer is the
        first writer of the register in a deeper stage.  While its
        result is not ready (a data hazard) nothing is captured or
        dequeued, and the return is False.
        """
        meta = entry.meta
        (code_a, a), (code_b, b) = meta.operand_plan
        if meta.reads_reg:
            pipe = self._pipe
            for stage in self._forward_stages:
                producer = pipe[stage]
                if producer is None or not producer.meta.writes_reg:
                    continue
                written = producer.meta.dst_index
                if code_a == REG and written == a:
                    if not producer.result_ready:
                        return False
                    code_a, a = LIT, producer.value
                if code_b == REG and written == b:
                    if not producer.result_ready:
                        return False
                    code_b, b = LIT, producer.value
            if code_a == REG:
                a = self._reg_words[a]
            if code_b == REG:
                b = self._reg_words[b]
        # LIT payloads are immediates (pre-masked) or absent sources.
        if code_a == IN:
            a = self.inputs[a].peek(0).value
        if code_b == IN:
            b = self.inputs[b].peek(0).value
        entry.operands = (a, b)
        entry.captured = True
        for queue in meta.deq:
            self.inputs[queue].dequeue()
            self._queue_state.pending_deqs[queue] -= 1
            self.counters.dequeues += 1
        return True

    # ------------------------------------------------------------------
    # Execute / retire
    # ------------------------------------------------------------------

    def _compute(self, entry: _InFlight) -> None:
        meta = entry.meta
        semantics = meta.semantics
        a, b = entry.operands
        if semantics is None:   # raises the canonical error
            alu_execute(meta.op, a, b, self.params, self.scratchpad)
        mask = self._word_mask
        entry.value = semantics(
            a & mask, b & mask, self.params, mask, self._word_width,
            self.scratchpad,
        )
        entry.result_ready = True
        # The speculative predicate unit (+P) sees computed predicates as
        # soon as the ALU produces them: predictions verify here, and
        # unpredicted writes bypass into its live state early.  Without
        # +P there is no such unit, and predicates resolve at retirement.
        if meta.writes_pred and self._predicts:
            self._commit_predicate_write(entry, entry.value & 1)
            entry.pred_committed = True

    def _retire(self, entry: _InFlight) -> None:
        if not entry.captured:
            self._capture(entry)    # D coalesced into the final stage
        if not entry.result_ready:
            self._compute(entry)
        value = entry.value
        meta = entry.meta
        dst_kind = meta.dst_kind

        # The scheduler-visible dequeue window closes only at retirement.
        for queue in meta.deq:
            self._queue_state.sched_deqs[queue] -= 1

        if meta.is_store:   # ssw: _compute refused a PE without a scratchpad
            a, b = entry.operands
            self.scratchpad.store(a & self._word_mask, b & self._word_mask)

        if dst_kind == DST_REG:
            self._reg_words[meta.dst_index] = value
        elif dst_kind == DST_OUT:
            self.outputs[meta.dst_index].enqueue(value, meta.out_tag)
            self._queue_state.pending_enqs[meta.dst_index] -= 1
            self.counters.enqueues += 1
        elif dst_kind == DST_PRED and not entry.pred_committed:
            self._commit_predicate_write(entry, value & 1)

        if meta.is_halt:
            self.halted = True

        counters = self.counters
        counters.retired += 1
        counters.retired_by_op[meta.mnemonic] += 1
        counters.retired_by_slot[entry.slot] += 1
        if self.telemetry is not None:
            self.telemetry.emit(
                "retire", self.name, slot=entry.slot, op=meta.mnemonic,
                seq=entry.seq,
            )

    def _commit_predicate_write(self, entry: _InFlight, actual: int) -> None:
        self.counters.predicate_writes += 1
        index = entry.meta.dst_index
        self.predictor.record_outcome(index, actual)

        seq = entry.seq
        for spec in self._specs:
            if spec.owner_seq == seq:
                break
        else:
            # Unpredicted write: lands in the live state — unless a
            # *younger* in-flight prediction already holds this bit, in
            # which case program order makes the predicted value current
            # and this older write only feeds the rollback state.
            for other in self._specs:
                if other.pred_index == index and other.owner_seq > seq:
                    break
            else:
                preds = self.preds
                if actual:
                    preds.state |= 1 << index
                else:
                    preds.state &= ~(1 << index)
            # The write must survive the rollback of any younger
            # speculation (their fallbacks absorb it), but a speculation
            # older than this writer would flush it, so its fallback
            # must not change.
            for other in self._specs:
                if other.owner_seq > seq:
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
            pipe.append((
                entry.slot,
                rank[entry.seq],
                entry.captured,
                entry.operands,
                entry.value,
                entry.result_ready,
                entry.pred_committed,
            ))
        scratch = ()
        if self.scratchpad is not None:
            scratch = self.scratchpad.nonzero()
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

    def restore_arch_state(self, state: tuple,
                           held: tuple | None = None) -> None:
        """Restore a :meth:`snapshot_arch_state` snapshot onto this PE.

        ``held`` is the snapshot of the state the PE is in now: the
        caller's last :meth:`snapshot_arch_state`, with nothing run or
        written since.  Given it, only the components that differ from
        it are written; without it, all of them are.

        The loaded program must be the one the snapshot was taken under
        (pipeline entries are rebuilt from instruction slots).  Counters
        and forensic rings are left untouched.
        """
        (regs, preds, scratch, halted, halt_pending, inputs, outputs,
         queue_state, pipe, specs, predictor) = state
        (h_regs, _, h_scratch, _, _, h_inputs, h_outputs, h_queue_state,
         h_pipe, h_specs, h_predictor) = held or (None,) * len(state)
        if regs != h_regs:
            self.regs.restore(regs)
        self.preds.state = preds
        if self.scratchpad is not None and scratch != h_scratch:
            self.scratchpad.restore(scratch, h_scratch)
        self.halted = halted
        self._halt_pending = halt_pending
        restore_queues(self.inputs, inputs, h_inputs)
        restore_queues(self.outputs, outputs, h_outputs)
        if queue_state != h_queue_state:
            pending_deqs, sched_deqs, pending_enqs = queue_state
            self._queue_state.pending_deqs[:] = pending_deqs
            self._queue_state.sched_deqs[:] = sched_deqs
            self._queue_state.pending_enqs[:] = pending_enqs
        # Snapshots number in-flight entries and speculation owners by
        # relative age, so the two are rebuilt together or not at all.
        if pipe != h_pipe or specs != h_specs:
            self._pipe = [None] * self._depth
            next_seq = 0
            for stage, enc in enumerate(pipe):
                if enc is None:
                    continue
                (slot, seq, captured, operands, value, result_ready,
                 pred_committed) = enc
                entry = _InFlight(self._dp_meta[slot], slot, seq)
                entry.captured = captured
                entry.operands = operands
                entry.value = value
                entry.result_ready = result_ready
                entry.pred_committed = pred_committed
                self._pipe[stage] = entry
                next_seq = max(next_seq, seq + 1)
            self._specs = []
            for owner_seq, pred_index, predicted, fallback, forced in specs:
                self._specs.append(_Speculation(
                    owner_seq, pred_index, predicted, fallback, forced))
                next_seq = max(next_seq, owner_seq + 1)
            self._next_seq = next_seq
        if predictor != h_predictor:
            counters, force_invert = predictor
            self.predictor.counters[:] = counters
            self.predictor.force_invert_next = force_invert

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
                    op=entry.meta.mnemonic,
                    label=(self.instructions[entry.slot].label.split("@")[0]
                           or "?"),
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
