"""Per-config Python code generation for the pipelined PE.

For a fixed (program, partition, ±P, queue-policy) tuple every decision
the interpreter in :mod:`repro.pipeline.core` makes per cycle — which
stages exist, where decode and the result stages sit, which queues each
trigger inspects, what the ALU does, which destination a retirement
writes — is a compile-time constant.  This module emits one Python
module of straight-line source per such tuple.  Its cycle function
``_cycle`` has the stage walk unrolled and the trigger resolution
inlined per descriptor (conditions folded down to integer compares
against baked masks and baked queue capacities), with each slot's issue
effects inlined at its fire site.  Each slot's capture and compute
effects are a small function reached through slot-indexed tables, and
slots whose effects read the same share one function; retirement, once
per instruction and generic in what it writes, calls the interpreter's
own ``_retire``.  Two entry points share the one cycle body: ``step``
runs a cycle, and the block-mode ``run`` loops it with the PE's own
queue commits and stop conditions for the one caller that hands it
whole stretches, the quiescent-sibling rule of
:meth:`System._run_fused <repro.fabric.system.System._run_fused>`.

The generated code is *bit-identical* to the interpreter: it mutates the
same ``PipelinedPE`` state through the same sequence of effects (queue
version bumps, ``_state_version`` accounting, counter increments,
predictor training, speculation bookkeeping), so a PE may switch between
the two executors mid-run — which is exactly what happens when a
:class:`~repro.fabric.system.System` run promotes a busy PE.  Whenever a
fault hook or telemetry sink is attached, ``step`` defers to the
interpreter (``_INTERP_STEP``) so instrumented runs observe every seam
the interpreter exposes; ``run`` is never entered on an instrumented
fabric.

Nothing here compiles or keeps modules; see :mod:`repro.jit.cache`,
which also holds the helpers every generated module shares (``_issue``,
``_offer``, ``_fwd``).
"""

from __future__ import annotations

from repro.arch.trigger_cache import (
    DST_OUT,
    IN,
    LIT,
    CompiledDatapath,
    CompiledTrigger,
    Lowering,
    lower_program,
)
from repro.isa.instruction import Instruction
from repro.params import ArchParams
from repro.pipeline.config import PipelineConfig, QueuePolicy
from repro.pipeline.queue_status import TAG_VISIBILITY

CODEGEN_VERSION = 4
"""Bumped whenever generated-source semantics change; named in the
header line of every generated module."""

# Operations whose inlined form reads only operand ``a`` (operand ``b``
# need not be masked for them; the semantics/alu_execute fallbacks mask
# both).
_UNARY_OPS = frozenset({
    "nop", "halt", "mov", "not", "clz", "ctz", "popc", "sext8", "sext16",
    "eqz", "nez",
})


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


def _alu_lines(
    meta: CompiledDatapath, params: ArchParams, ev: str
) -> list[str]:
    """Statements computing ``<ev>.result`` from masked locals ``a``/``b``.

    Most operations inline to a single ``AluResult`` construction (with
    interned ``_AR0``/``_AR1``/``_HALT`` singletons for boolean and
    control results).  The loop-bodied and scratchpad operations call
    the entry's shared semantics callable, and operations with no
    defined semantics fall through to ``alu_execute`` for the canonical
    error.
    """
    m = params.word_mask
    w = params.word_width
    w2 = 1 << w
    sb = params.word_sign_bit
    sa = f"(a - {w2} if a & {sb} else a)"
    sgb = f"(b - {w2} if b & {sb} else b)"
    mn = meta.op.mnemonic
    table: dict[str, list[str]] = {
        "nop": [f"{ev}.result = _AR0"],
        "halt": [f"{ev}.result = _HALT"],
        "mov": [f"{ev}.result = AluResult(a)"],
        "add": [f"{ev}.result = AluResult((a + b) & {m})"],
        "sub": [f"{ev}.result = AluResult((a - b) & {m})"],
        "mul": [f"{ev}.result = AluResult((a * b) & {m})"],
        "mulh": [f"{ev}.result = AluResult((({sa} * {sgb}) >> {w}) & {m})"],
        "mulhu": [f"{ev}.result = AluResult(((a * b) >> {w}) & {m})"],
        "and": [f"{ev}.result = AluResult(a & b)"],
        "or": [f"{ev}.result = AluResult(a | b)"],
        "xor": [f"{ev}.result = AluResult(a ^ b)"],
        "nor": [f"{ev}.result = AluResult(~(a | b) & {m})"],
        "nand": [f"{ev}.result = AluResult(~(a & b) & {m})"],
        "xnor": [f"{ev}.result = AluResult(~(a ^ b) & {m})"],
        "not": [f"{ev}.result = AluResult(~a & {m})"],
        "shl": [f"{ev}.result = AluResult((a << (b % {w})) & {m})"],
        "shr": [f"{ev}.result = AluResult((a >> (b % {w})) & {m})"],
        "asr": [f"{ev}.result = AluResult(({sa} >> (b % {w})) & {m})"],
        "rol": [
            f"sh = b % {w}",
            f"{ev}.result = AluResult(((a << sh) | (a >> ({w} - sh))) & {m})"
            f" if sh else AluResult(a)",
        ],
        "ror": [
            f"sh = b % {w}",
            f"{ev}.result = AluResult(((a >> sh) | (a << ({w} - sh))) & {m})"
            f" if sh else AluResult(a)",
        ],
        "clz": [f"{ev}.result = AluResult({w} - a.bit_length() if a else {w})"],
        "ctz": [
            f"{ev}.result = AluResult((a & -a).bit_length() - 1 if a else {w})"
        ],
        "popc": [f'{ev}.result = AluResult(bin(a).count("1"))'],
        "eq": [f"{ev}.result = _AR1 if a == b else _AR0"],
        "ne": [f"{ev}.result = _AR1 if a != b else _AR0"],
        "slt": [f"{ev}.result = _AR1 if {sa} < {sgb} else _AR0"],
        "sle": [f"{ev}.result = _AR1 if {sa} <= {sgb} else _AR0"],
        "sgt": [f"{ev}.result = _AR1 if {sa} > {sgb} else _AR0"],
        "sge": [f"{ev}.result = _AR1 if {sa} >= {sgb} else _AR0"],
        "ult": [f"{ev}.result = _AR1 if a < b else _AR0"],
        "ule": [f"{ev}.result = _AR1 if a <= b else _AR0"],
        "ugt": [f"{ev}.result = _AR1 if a > b else _AR0"],
        "uge": [f"{ev}.result = _AR1 if a >= b else _AR0"],
        "eqz": [f"{ev}.result = _AR1 if a == 0 else _AR0"],
        "nez": [f"{ev}.result = _AR1 if a else _AR0"],
        "land": [f"{ev}.result = _AR1 if a and b else _AR0"],
        "lor": [f"{ev}.result = _AR1 if a or b else _AR0"],
    }
    if w >= 8:
        table["sext8"] = [
            "v = a & 255",
            f"{ev}.result = AluResult(((v | {m ^ 0xFF}) & {m})"
            f" if v & 128 else v)",
        ]
    if w >= 16:
        table["sext16"] = [
            "v = a & 65535",
            f"{ev}.result = AluResult(((v | {m ^ 0xFFFF}) & {m})"
            f" if v & 32768 else v)",
        ]
    lines = table.get(mn)
    if lines is not None:
        return lines
    if meta.semantics is not None:
        return [
            f"{ev}.result = {ev}.meta.semantics(a, b, pe.params, {m}, {w},"
            " pe.scratchpad)"
        ]
    return [f"{ev}.result = _ALU_EXEC({ev}.meta.op, a, b, pe.params,"
            " pe.scratchpad)"]


class _Codegen:
    """Emits one generated module for a (lowered program, config) pair.

    It reads the :class:`~repro.arch.trigger_cache.Lowering` the PE
    already holds, so promoting a PE does not lower it again.
    """

    def __init__(self, lowering: Lowering, config: PipelineConfig) -> None:
        self.instructions = lowering.instructions
        self.config = config
        self.params = params = lowering.params
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
        # Registers some valid slot writes — operand scans for any other
        # register can skip the in-flight producer search entirely.
        self.written_regs = {
            self.dp_meta[n].dst_index
            for n in self.valid_slots
            if self.dp_meta[n].writes_reg
        }
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
        # kind -> slot -> name of the function holding that slot's
        # effects; (kind, body) -> the function emitted for that body.
        self.names: dict[str, dict[int, str]] = {"cap": {}, "exc": {}}
        self._bodies: dict[tuple[str, str], str] = {}

    # ------------------------------------------------------------------
    # Per-slot effect functions
    # ------------------------------------------------------------------

    def _emit_helper(self, em: _Emitter, kind: str, slot: int,
                     body) -> None:
        """Emit ``_<kind>_<slot>(pe, e)`` holding ``body(em, slot)``,
        unless an earlier slot's function has the same body: the slot
        then shares it."""
        sub = _Emitter()
        body(sub, slot)
        key = (kind, sub.source())
        name = self._bodies.get(key)
        if name is None:
            name = self._bodies[key] = f"_{kind}_{slot}"
            em.line(0, f"def {name}(pe, e):")
            em.lines.extend(sub.lines)
            em.blank()
        self.names[kind][slot] = name

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
            em.line(d, f"_offer(pe, e, {meta.dst_index})")
        if meta.is_halt:
            em.line(d, "pe._halt_pending = True")

    def _capture_body(self, em: _Emitter, slot: int) -> None:
        """Operand capture with forwarding, then the dequeues; returns
        early, capturing nothing, while a producer is not ready.
        Register numbers and literals are read from the entry's operand
        plan, so slots that differ only in those share one function."""
        meta = self.dp_meta[slot]
        plan = meta.operand_plan
        if any(code != IN for code, _payload in plan):
            em.line(1, "pl_ = e.meta.operand_plan")
        for k, (code, payload) in enumerate(plan):
            var = f"v{k}"
            if code == LIT:
                em.line(1, f"{var} = pl_[{k}][1]")
            elif code == IN:
                em.line(1, f"{var} = pe.inputs[{payload}]._live[0].value")
            elif self.dd + 1 < self.depth and payload in self.written_regs:
                em.line(1, f"{var} = _fwd(pe, pl_[{k}][1], SCAN)")
                em.line(1, f"if {var} is None:")
                em.line(2, "return")
            else:
                # No deeper stage, or no slot writes the register: no
                # in-flight producer can exist.
                em.line(1, f"{var} = pe.regs._regs[pl_[{k}][1]]")
        em.line(1, "e.operands = (v0, v1)")
        em.line(1, "e.captured = True")
        if meta.deq:
            em.line(1, "qs = pe._queue_state")
            for q in meta.deq:
                em.line(1, f"pe.inputs[{q}].dequeue()")
                em.line(1, f"qs.pending_deqs[{q}] -= 1")
            em.line(1, f"pe.counters.dequeues += {len(meta.deq)}")
            em.line(1, f"pe._state_version += {len(meta.deq)}")

    def _exec_body(self, em: _Emitter, slot: int) -> None:
        """Compute effects; with +P a computed predicate commits here."""
        meta = self.dp_meta[slot]
        em.line(1, "a, b = e.operands")
        em.line(1, f"a &= {self.params.word_mask}")
        if meta.op.mnemonic not in _UNARY_OPS:
            em.line(1, f"b &= {self.params.word_mask}")
        for stmt in _alu_lines(meta, self.params, "e"):
            em.line(1, stmt)
        em.line(1, "e.result_ready = True")
        if meta.writes_pred and self.predicts:
            em.line(1, "pe._commit_predicate_write(e, e.result.value & 1)")
            em.line(1, "e.pred_committed = True")

    def _emit_tables(self, em: _Emitter) -> None:
        """Slot-indexed dispatch tuples (``None`` for invalid slots)."""
        for table, kind in (("EXC", "exc"), ("CAP", "cap")):
            names = self.names[kind]
            cells = [names.get(n, "None")
                     for n in range(len(self.instructions))]
            em.line(0, f"{table} = ({', '.join(cells)},)")
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
            em.line(d, f"{self.names['cap'][slot]}(pe, e)")
            if self.rs[slot] == 0:
                em.line(d, "if e.captured:")
                em.line(d + 1, f"{self.names['exc'][slot]}(pe, e)")
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
        em.line(2, "CAP[e_.slot](pe, e_)")
        min_rs = min((self.rs[n] for n in self.valid_slots), default=0)
        for s in range(depth - 1, min_rs - 1, -1):
            eligible = [n for n in self.valid_slots if self.rs[n] <= s]
            if not eligible:
                continue
            em.line(1, f"e_ = pipe[{s}]")
            em.line(1, "if e_ is not None and e_.captured"
                       " and not e_.result_ready:")
            if len(eligible) == len(self.valid_slots):
                em.line(2, "EXC[e_.slot](pe, e_)")
            else:
                em.line(2, f"if RS[e_.slot] <= {s}:")
                em.line(3, "EXC[e_.slot](pe, e_)")

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
        em.line(0, "_AR0 = AluResult(0)")
        em.line(0, "_AR1 = AluResult(1)")
        em.line(0, "_HALT = AluResult(halt=True)")
        em.line(0, f"SCAN = {tuple(range(self.dd + 1, self.depth))}")
        em.blank()
        for kind, body in (("cap", self._capture_body),
                           ("exc", self._exec_body)):
            for slot in self.valid_slots:
                self._emit_helper(em, kind, slot, body)
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
