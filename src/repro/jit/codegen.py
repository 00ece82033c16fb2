"""Per-config Python code generation for the pipelined PE.

For a fixed (program, partition, ±P, queue-policy) tuple every control
decision the interpreter in :mod:`repro.pipeline.core` makes per cycle —
which stages exist, where decode and the result stages sit, which queues
each trigger inspects — is a compile-time constant.  This module emits
one Python module of straight-line source per such tuple.  Its cycle
function ``_cycle`` has the stage walk unrolled and the trigger
resolution inlined per descriptor (conditions folded down to integer
compares against baked masks and baked queue capacities), with each
slot's issue bookkeeping and predicate update inlined at its fire site.

The datapath is not generated.  Operand capture with forwarding, the ALU
and the +P prediction offer are the interpreter's own
``PipelinedPE._capture``, ``_compute`` and ``_offer``, and retirement is
its ``_retire``, so both executors run the one datapath of
:mod:`repro.isa.alu` and :class:`~repro.pipeline.predictor.PredicatePredictor`.
Two entry points share the one cycle body: ``step`` runs a cycle, and
the block-mode ``run`` loops it with the PE's own queue commits and stop
conditions for the one caller that hands it whole stretches, the
quiescent-sibling rule of
:meth:`System._run_fused <repro.fabric.system.System._run_fused>`.

The generated code is *bit-identical* to the interpreter: it mutates the
same ``PipelinedPE`` state through the same sequence of effects (queue
operations, in-flight queue bookings, counter increments, predictor
training, speculation bookkeeping), so a PE may switch between
the two executors mid-run — which is exactly what happens when a
:class:`~repro.fabric.system.System` run promotes a busy PE.  Whenever a
fault hook or telemetry sink is attached, ``step`` defers to the
interpreter (``_INTERP_STEP``) so instrumented runs observe every seam
the interpreter exposes; ``run`` is never entered on an instrumented
fabric.

Nothing here compiles or keeps modules; see :mod:`repro.jit.cache`,
which also holds ``_issue``, the issue bookkeeping every generated
module shares.
"""

from __future__ import annotations

from repro.arch.trigger_cache import (
    DST_OUT,
    CompiledTrigger,
    Lowering,
    lower_program,
)
from repro.isa.instruction import Instruction
from repro.params import ArchParams
from repro.pipeline.config import PipelineConfig, QueuePolicy
from repro.pipeline.queue_status import TAG_VISIBILITY

CODEGEN_VERSION = 5
"""Bumped whenever generated-source semantics change; named in the
header line of every generated module."""


class _Emitter:
    """Indentation-tracking source accumulator."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def line(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def blank(self) -> None:
        self.lines.append("")

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


class _Codegen:
    """Emits one generated module for a (lowered program, config) pair.

    It reads the :class:`~repro.arch.trigger_cache.Lowering` the PE
    already holds, so promoting a PE does not lower it again.
    """

    def __init__(self, lowering: Lowering, config: PipelineConfig) -> None:
        self.instructions = lowering.instructions
        self.config = config
        params = lowering.params
        self.compiled = lowering.compiled
        self.dp_meta = lowering.datapaths
        self.depth = config.depth
        self.dd = config.decode_stage
        self.early = config.early_result_stage
        self.late = config.late_result_stage
        self.predicts = config.predicate_prediction
        self.policy = config.queue_policy
        self.mask_all = (1 << params.num_preds) - 1
        self.valid_slots = [d.index for d in self.compiled.descriptors]
        self.rs = [
            (self.late if meta.late_result else self.early)
            for meta in self.dp_meta
        ]
        # ±P machinery is only live if some valid slot writes a predicate.
        self.any_pred_writer = any(
            self.dp_meta[n].writes_pred for n in self.valid_slots
        )
        # Output queues some valid slot enqueues to: the only queues the
        # block loop can ever find staged entries on.
        self.written_outputs = sorted({
            self.dp_meta[n].dst_index
            for n in self.valid_slots
            if self.dp_meta[n].dst_kind == DST_OUT
        })
        # Input queues any trigger condition inspects: a dequeue from
        # one of them is what ``run``'s ``stop_on_dequeue`` watches.
        self.used_inputs = sorted({
            q
            for d in self.compiled.descriptors
            for q in d.required_queues
        } | {
            check[0]
            for d in self.compiled.descriptors
            for check in d.tag_checks
        })
        out_capacity = params.queue_capacity
        if self.policy is QueuePolicy.PADDED:
            out_capacity += self.depth
        self.out_capacity = out_capacity

    # ------------------------------------------------------------------
    # Fire site and result stages
    # ------------------------------------------------------------------

    def _issue_body(self, em: _Emitter, d: int, slot: int) -> None:
        """Issue effects for a statically-known slot (the fire site)."""
        meta = self.dp_meta[slot]
        em.line(d, f"e = _issue(pe, c, {slot})")
        update = meta.pred_update
        if update.set_mask or update.clear_mask:
            andm = (~update.clear_mask) & self.mask_all
            em.line(d, f"pe.preds.state = (pe.preds.state | {update.set_mask})"
                       f" & {andm}")
        if meta.writes_pred and self.predicts:
            em.line(d, "pe._offer(e)")
        if meta.is_halt:
            em.line(d, "pe._halt_pending = True")

    def _emit_tables(self, em: _Emitter) -> None:
        """``RS``: each slot's result stage (99 for invalid slots)."""
        valid = set(self.valid_slots)
        rs = [str(self.rs[n]) if n in valid else "99"
              for n in range(len(self.instructions))]
        em.line(0, f"RS = ({', '.join(rs)},)")
        em.blank()

    # ------------------------------------------------------------------
    # Trigger resolution
    # ------------------------------------------------------------------

    def _queue_conds(self, d: CompiledTrigger) -> list[str]:
        """Pure-expression queue conditions, in the interpreter's order:
        required occupancy, tag checks, output space.

        Predicate gating means only the one or two surviving descriptors
        per cycle evaluate these, so they reference queues and booking
        arrays through ``pe``/``qs`` rather than hoisting them.
        """
        inq = "pe.inputs[{}]".format
        outq = "pe.outputs[{}]".format
        pd, sd, pen = "qs.pending_deqs", "qs.sched_deqs", "qs.pending_enqs"
        conds: list[str] = []
        if self.policy is QueuePolicy.EFFECTIVE:
            for q in d.required_queues:
                conds.append(f"len({inq(q)}._live) > {pd}[{q}]")
            for q, tag, negate in d.tag_checks:
                op = "!=" if negate else "=="
                conds.append(f"{pd}[{q}] < {TAG_VISIBILITY}")
                conds.append(f"{inq(q)}._live[{pd}[{q}]].tag {op} {tag}")
            if d.out_queue >= 0:
                o = d.out_queue
                conds.append(
                    f"len({outq(o)}._live) + len({outq(o)}._staged)"
                    f" + {pen}[{o}] < {self.out_capacity}"
                )
        else:
            for q in d.required_queues:
                conds.append(f"not {sd}[{q}]")
                conds.append(f"{inq(q)}._live")
            for q, tag, negate in d.tag_checks:
                op = "!=" if negate else "=="
                conds.append(f"{inq(q)}._live[0].tag {op} {tag}")
            if d.out_queue >= 0:
                o = d.out_queue
                if self.policy is QueuePolicy.PADDED:
                    # Physical padding absorbs in-flight enqueues: the
                    # trigger checks live occupancy against the unpadded
                    # capacity and ignores staged entries (the reject
                    # buffer catches same-cycle traffic).
                    conds.append(
                        f"len({outq(o)}._live)"
                        f" < {self.out_capacity - self.depth}"
                    )
                else:
                    conds.append(f"not {pen}[{o}]")
                    conds.append(
                        f"len({outq(o)}._live) + len({outq(o)}._staged)"
                        f" < {self.out_capacity}"
                    )
        return conds

    def _emit_fire(self, em: _Emitter, d: int, slot: int) -> None:
        self._issue_body(em, d, slot)
        if self.dd == 0:
            if self.rs[slot] == 0:
                em.line(d, "if pe._capture(e):")
                em.line(d + 1, "pe._compute(e)")
            else:
                em.line(d, "pe._capture(e)")
        em.line(d, "return True")

    def _emit_descriptor(self, em: _Emitter, base: int,
                         d: CompiledTrigger) -> None:
        """One priority slot of the inline trigger walk."""
        slot = d.index
        forbid = (
            self.predicts and self.any_pred_writer and d.side_effects
        )
        conds = self._queue_conds(d)
        watched = d.watched
        pending_static_zero = not self.any_pred_writer

        def fire_tail(depth: int) -> None:
            if forbid:
                em.line(depth, "if pe._specs:")
                em.line(depth + 1, "c.forbidden_cycles += 1")
                em.line(depth + 1, "return prog")
            self._emit_fire(em, depth, slot)

        em.line(base, f"# slot {slot}: {self.dp_meta[slot].op.mnemonic}")
        if watched == 0 or pending_static_zero:
            # All watched bits are architectural: one stable compare,
            # cheapest first — most descriptors die on predicates.
            pred: list[str] = []
            if d.pred_on:
                pred.append(f"(ps & {d.pred_on}) == {d.pred_on}")
            if d.pred_off:
                pred.append(f"(inv & {d.pred_off}) == {d.pred_off}")
            allc = pred + conds
            if allc:
                em.line(base, f"if {' and '.join(allc)}:")
                fire_tail(base + 1)
            else:
                fire_tail(base)
            return
        # Dynamic pending mask.  ``((ps | pending) & on) == on`` holds
        # exactly when every stable on-bit is set (pending bits pass for
        # free), i.e. it IS the interpreter's stable-sub-mask match — and
        # it gates the descriptor before any queue checks run, which is
        # sound because all the conditions are pure and the hazard
        # outcome below still requires the queue conditions to hold.
        pred = []
        if d.pred_on:
            pred.append(f"((ps | pending) & {d.pred_on}) == {d.pred_on}")
        if d.pred_off:
            pred.append(f"((inv | pending) & {d.pred_off}) == {d.pred_off}")
        em.line(base, f"if {' and '.join(pred)}:")
        depth = base + 1
        if conds:
            em.line(depth, f"if {' and '.join(conds)}:")
            depth += 1
        em.line(depth, f"if {watched} & pending:")
        em.line(depth + 1, "c.pred_hazard_cycles += 1")
        em.line(depth + 1, "return prog")
        fire_tail(depth)

    # ------------------------------------------------------------------
    # The cycle function and its two entry points
    # ------------------------------------------------------------------

    def _emit_cycle(self, em: _Emitter) -> None:
        """``_cycle(pe)``: one full cycle — stage walk, capture/compute,
        trigger resolution — returning the progressed flag."""
        depth = self.depth
        dd = self.dd
        em.line(0, "def _cycle(pe):")
        em.line(1, "c = pe.counters")
        em.line(1, "pipe = pe._pipe")
        em.line(1, "qs = pe._queue_state")
        em.line(1, "c.cycles += 1")
        em.line(1, "prog = False")

        # Phase 1: advance back to front; retire from the last stage.
        em.line(1, f"e_ = pipe[{depth - 1}]")
        em.line(1, "if e_ is not None:")
        em.line(2, "pe._retire(e_)")
        em.line(2, f"pipe[{depth - 1}] = None")
        em.line(2, "prog = True")
        em.line(2, "if pe.halted:")
        em.line(3, "c.none_triggered_cycles += 1")
        em.line(3, "return True")
        for s in range(depth - 2, -1, -1):
            gate = " and e_.captured" if s == dd else ""
            em.line(1, f"e_ = pipe[{s}]")
            em.line(1, f"if e_ is not None and pipe[{s + 1}] is None{gate}:")
            em.line(2, f"pipe[{s}] = None")
            em.line(2, f"e_.stage = {s + 1}")
            em.line(2, f"pipe[{s + 1}] = e_")

        # Phase 2: operand capture in D, then results deepest-first.  At
        # each stage only the slots whose result stage has been reached
        # can compute.
        em.line(1, f"e_ = pipe[{dd}]")
        em.line(1, "if e_ is not None and not e_.captured:")
        em.line(2, "pe._capture(e_)")
        min_rs = min((self.rs[n] for n in self.valid_slots), default=0)
        for s in range(depth - 1, min_rs - 1, -1):
            eligible = [n for n in self.valid_slots if self.rs[n] <= s]
            if not eligible:
                continue
            em.line(1, f"e_ = pipe[{s}]")
            em.line(1, "if e_ is not None and e_.captured"
                       " and not e_.result_ready:")
            if len(eligible) == len(self.valid_slots):
                em.line(2, "pe._compute(e_)")
            else:
                em.line(2, f"if RS[e_.slot] <= {s}:")
                em.line(3, "pe._compute(e_)")

        # Phase 3: trigger resolution.
        em.line(1, "if pipe[0] is not None:")
        em.line(2, "c.data_hazard_cycles += 1")
        em.line(2, "return prog")
        em.line(1, "if pe._halt_pending:")
        em.line(2, "c.none_triggered_cycles += 1")
        em.line(2, "return prog")

        if self.any_pred_writer:
            em.line(1, "pending = 0")
            if self.predicts:
                em.line(1, "specs = pe._specs")
                em.line(1, "if specs:")
                em.line(2, "for e_ in pipe:")
                em.line(3, "if e_ is not None and e_.writes_pred"
                           " and not e_.pred_committed:")
                em.line(4, "for sp_ in specs:")
                em.line(5, "if sp_.owner_seq == e_.seq:")
                em.line(6, "break")
                em.line(4, "else:")
                em.line(5, "pending |= 1 << e_.meta.dst_index")
                em.line(1, "else:")
                em.line(2, "for e_ in pipe:")
                em.line(3, "if e_ is not None and e_.writes_pred"
                           " and not e_.pred_committed:")
                em.line(4, "pending |= 1 << e_.meta.dst_index")
            else:
                em.line(1, "for e_ in pipe:")
                em.line(2, "if e_ is not None and e_.writes_pred"
                           " and not e_.pred_committed:")
                em.line(3, "pending |= 1 << e_.meta.dst_index")

        # Per-cycle hoists the descriptor conditions read.
        any_off = any(d.pred_off for d in self.compiled.descriptors)
        any_watched = any(d.watched for d in self.compiled.descriptors)
        if any_watched:
            em.line(1, "ps = pe.preds.state")
        if any_off:
            em.line(1, "inv = ~ps")

        for d in self.compiled.descriptors:
            self._emit_descriptor(em, 1, d)
        em.line(1, "c.none_triggered_cycles += 1")
        em.line(1, "return prog")
        em.blank()

    def _emit_step(self, em: _Emitter) -> None:
        em.line(0, "def step(pe):")
        em.line(1, "if pe.halted:")
        em.line(2, "return False")
        em.line(1, "if pe.fault_hook is not None or pe.telemetry is not None:")
        em.line(2, "return _INTERP_STEP(pe)")
        em.line(1, "return _cycle(pe)")
        em.blank()

    def _emit_run(self, em: _Emitter) -> None:
        """``run(pe, budget, idle_streak, stall_limit, stop_on_dequeue)``:
        block-step up to ``budget`` cycles with per-cycle commits of the
        PE's own enqueues; returns the updated idle streak.

        Stops early on halt, at the end of any cycle that staged an
        enqueue, on any input dequeue when ``stop_on_dequeue`` is set
        (so a sibling blocked on a full channel is re-evaluated the
        cycle after space appears, exactly as under interleaved
        stepping), or when the streak reaches ``stall_limit``.  The one
        caller, the fused loop of
        :class:`~repro.fabric.system.System`, runs only uninstrumented
        fabrics and enters after its channel-commit pass, so no queue
        holds a staged entry at entry.
        """
        em.line(0, "def run(pe, budget, idle_streak, stall_limit,"
                   " stop_on_dequeue):")
        # End of cycle: commit any enqueue this PE staged (only the
        # outputs the program writes can ever hold one here).
        for o in self.written_outputs:
            em.line(1, f"W{o} = pe.outputs[{o}]")
        versions = " + ".join(f"I{q}.version" for q in self.used_inputs)
        for q in self.used_inputs:
            em.line(1, f"I{q} = pe.inputs[{q}]")
        if versions:
            em.line(1, f"dv_ = {versions}")
        em.line(1, "while budget > 0:")
        em.line(2, "if pe.halted:")
        em.line(3, "break")
        em.line(2, "budget -= 1")
        em.line(2, "prog = _cycle(pe)")
        if self.written_outputs:
            em.line(2, "stop = False")
            for o in self.written_outputs:
                em.line(2, f"if W{o}._staged:")
                em.line(3, f"W{o}.commit()")
                em.line(3, "stop = True")
        em.line(2, "if prog:")
        em.line(3, "idle_streak = 0")
        em.line(2, "else:")
        em.line(3, "idle_streak += 1")
        em.line(3, "if idle_streak >= stall_limit:")
        em.line(4, "break")
        if self.written_outputs:
            em.line(2, "if stop:")
            em.line(3, "break")
        if versions:
            em.line(2, f"if stop_on_dequeue and dv_ != ({versions}):")
            em.line(3, "break")
        em.line(1, "return idle_streak")
        em.blank()

    # ------------------------------------------------------------------

    def generate(self) -> str:
        em = _Emitter()
        em.line(0, f"# generated by repro.jit.codegen v{CODEGEN_VERSION}"
                   f" for config {self.config.name!r}")
        self._emit_tables(em)
        self._emit_cycle(em)
        self._emit_step(em)
        self._emit_run(em)
        return em.source()


def generate_source(
    instructions: list[Instruction],
    config: PipelineConfig,
    params: ArchParams,
) -> str:
    """Emit the specialized module source for one (program, config) tuple."""
    return _Codegen(lower_program(instructions, params), config).generate()
