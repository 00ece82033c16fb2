"""Per-config Python code generation for the pipelined PE.

For a fixed (program, partition, ±P, queue-policy) tuple every decision
the interpreter in :mod:`repro.pipeline.core` makes per cycle — which
stages exist, where decode and the result stages sit, which queues each
trigger inspects, what the ALU does, which destination a retirement
writes — is a compile-time constant.  This module emits one Python
module of straight-line source per such tuple: a specialized ``step``
and a block-mode ``run`` whose cycle body has the stage walk unrolled,
the trigger resolution inlined per descriptor (conditions folded down
to integer compares against baked masks and baked queue capacities),
and the issue/compute/retire effects of each slot inlined at their use
sites — the fire site knows its slot statically, and the retire and
result stages dispatch through a small ``if``-chain over the slots that
can actually reach them.

The generated code is *bit-identical* to the interpreter: it mutates the
same ``PipelinedPE`` state through the same sequence of effects (queue
version bumps, ``_state_version`` accounting, counter increments,
predictor training, speculation bookkeeping), so a PE may switch between
the two executors mid-run — which is exactly what happens on the cold
edges.  Whenever a fault hook or telemetry sink is attached, both entry
points defer to the interpreter (``_INTERP_STEP``) so instrumented runs
observe every seam the interpreter exposes.

Nothing here caches or keys anything; see :mod:`repro.jit.cache` for
content fingerprinting and compiled-module reuse.
"""

from __future__ import annotations

from repro.arch.trigger_cache import (
    DST_OUT,
    DST_PRED,
    DST_REG,
    IN,
    LIT,
    REG,
    CompiledDatapath,
    CompiledTrigger,
    compile_datapaths,
    compile_program,
)
from repro.isa.instruction import Instruction
from repro.params import ArchParams
from repro.pipeline.config import PipelineConfig, QueuePolicy
from repro.pipeline.queue_status import TAG_VISIBILITY

CODEGEN_VERSION = 2
"""Bumped whenever generated-source semantics change; part of the cache key."""

_STORE_OPS = frozenset({"ssw"})
"""Mnemonics whose results carry a scratchpad store effect."""

# Operations whose inlined form reads only operand ``a`` (operand ``b``
# need not be masked for them; the SEM/alu_execute fallbacks mask both).
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
    meta: CompiledDatapath, slot: int, params: ArchParams, ev: str
) -> list[str]:
    """Statements computing ``<ev>.result`` from masked locals ``a``/``b``.

    Most operations inline to a single ``AluResult`` construction (with
    interned ``_AR0``/``_AR1``/``_HALT`` singletons for boolean and
    control results).  The loop-bodied and scratchpad operations call
    the shared semantics table (``SEM``), and operations with no defined
    semantics fall through to ``alu_execute`` for the canonical error.
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
            f"{ev}.result = SEM[{slot}](a, b, pe.params, {m}, {w},"
            " pe.scratchpad)"
        ]
    return [
        f"{ev}.result = _ALU_EXEC(pe._dp_meta[{slot}].op, a, b, pe.params,"
        " pe.scratchpad)"
    ]


class _Codegen:
    """Emits one generated module for a (program, config, params) tuple."""

    def __init__(
        self,
        instructions: list[Instruction],
        config: PipelineConfig,
        params: ArchParams,
    ) -> None:
        self.instructions = instructions
        self.config = config
        self.params = params
        self.compiled = compile_program(instructions)
        self.dp_meta = compile_datapaths(instructions, params)
        self.depth = config.depth
        self.dd = config.decode_stage
        self.early = config.early_result_stage
        self.late = config.late_result_stage
        self.predicts = config.predicate_prediction
        self.spec_depth = config.speculative_depth
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
        # Input/output queues any trigger condition inspects.
        self.used_inputs = sorted({
            q
            for d in self.compiled.descriptors
            for q in d.required_queues
        } | {
            check[0]
            for d in self.compiled.descriptors
            for check in d.tag_checks
        })
        self.used_outputs = sorted({
            d.out_queue for d in self.compiled.descriptors if d.out_queue >= 0
        })
        out_capacity = params.queue_capacity
        if self.policy is QueuePolicy.PADDED:
            out_capacity += self.depth
        self.out_capacity = out_capacity
        # Naming mode for queue conditions; set per entry point.
        self._hoisted = False
        # Small programs dispatch pipeline entries to their slot's
        # inlined effects through an ``if``-chain (one or two compares);
        # past this size the chain's average compare count loses to a
        # tuple-indexed call into a per-slot function.
        self.use_tables = len(self.valid_slots) > 6

    # ------------------------------------------------------------------
    # Per-slot effect bodies (inlined at their use sites)
    # ------------------------------------------------------------------

    def _issue_body(self, em: _Emitter, d: int, slot: int, ev: str) -> None:
        """Issue effects for a statically-known slot (the fire site)."""
        meta = self.dp_meta[slot]
        em.line(d, f"{ev} = _InFlight(pe.instructions[{slot}],"
                   f" pe._dp_meta[{slot}], {slot}, pe._next_seq, 0)")
        em.line(d, "pe._next_seq += 1")
        em.line(d, f"pipe[0] = {ev}")
        em.line(d, "c.issued += 1")
        em.line(d, f"pe.recent_fires.append((c.cycles, {slot}))")
        update = meta.pred_update
        if update.set_mask or update.clear_mask:
            andm = (~update.clear_mask) & self.mask_all
            em.line(d, f"pe.preds.state = (pe.preds.state | {update.set_mask})"
                       f" & {andm}")
        bumps = len(meta.deq) + (1 if meta.out_queue >= 0 else 0)
        if bumps:
            for q in meta.deq:
                em.line(d, f"qs.pending_deqs[{q}] += 1")
                em.line(d, f"qs.sched_deqs[{q}] += 1")
            if meta.out_queue >= 0:
                em.line(d, f"qs.pending_enqs[{meta.out_queue}] += 1")
            em.line(d, f"pe._state_version += {bumps}")
        if meta.writes_pred and self.predicts:
            idx = meta.dst_index
            bit = 1 << idx
            em.line(d, "specs = pe._specs")
            em.line(d, f"if len(specs) < {self.spec_depth}:")
            em.line(d + 1, "pr = pe.predictor")
            # Inlined predictor fast path; forced inversions (fault
            # campaigns) take the full method for its flag handling.
            em.line(d + 1, "if pr.force_invert_next:")
            em.line(d + 2, f"p_ = pr.predict({idx})")
            em.line(d + 1, "else:")
            em.line(d + 2, "pr.last_forced = False")
            em.line(d + 2, f"p_ = 1 if pr.counters[{idx}] >= 2 else 0")
            em.line(d + 1, f"specs.append(_Speculation({ev}.seq, {idx}, p_,"
                           " pe.preds.state, pr.last_forced))")
            em.line(d + 1, "if p_:")
            em.line(d + 2, f"pe.preds.state |= {bit}")
            em.line(d + 1, "else:")
            em.line(d + 2, f"pe.preds.state &= ~{bit}")
        if meta.is_halt:
            em.line(d, "pe._halt_pending = True")

    def _emit_operand(self, em: _Emitter, var: str, code: int,
                      payload: int) -> None:
        """Assign one captured operand (with register forwarding) or return
        early if its youngest in-flight producer is not ready."""
        if code == LIT:
            em.line(1, f"{var} = {payload}")
            return
        if code == IN:
            em.line(1, f"{var} = pe.inputs[{payload}]._live[0].value")
            return
        # REG: in-order pipe ⇒ deeper stage is older; the first producer
        # found scanning from just past decode is the youngest.  A
        # register no slot writes can have no in-flight producer.
        scan = list(range(self.dd + 1, self.depth))
        if not scan or payload not in self.written_regs:
            em.line(1, f"{var} = pe.regs._regs[{payload}]")
            return
        match = (f"o_ is not None and o_.writes_reg"
                 f" and o_.meta.dst_index == {payload}")
        if len(scan) == 1:
            em.line(1, f"o_ = pipe[{scan[0]}]")
            em.line(1, f"if {match}:")
            em.line(2, "if not o_.result_ready:")
            em.line(3, "return")
            em.line(2, f"{var} = o_.result.value")
            em.line(1, "else:")
            em.line(2, f"{var} = pe.regs._regs[{payload}]")
        else:
            em.line(1, f"for j_ in {tuple(scan)}:")
            em.line(2, "o_ = pipe[j_]")
            em.line(2, f"if {match}:")
            em.line(3, "if not o_.result_ready:")
            em.line(4, "return")
            em.line(3, f"{var} = o_.result.value")
            em.line(3, "break")
            em.line(1, "else:")
            em.line(2, f"{var} = pe.regs._regs[{payload}]")

    def _emit_capture_fn(self, em: _Emitter, slot: int) -> None:
        """``_cap_<slot>(pe, e)``: operand capture with forwarding.

        Stays a function (unlike issue/compute/retire) because the
        not-ready producer case needs a multi-level early exit, which
        ``return`` expresses and inline code cannot.
        """
        meta = self.dp_meta[slot]
        em.line(0, f"def _cap_{slot}(pe, e):")
        plan = meta.operand_plan
        needs_pipe = (
            self.dd + 1 < self.depth
            and any(
                code == REG and payload in self.written_regs
                for code, payload in plan
            )
        )
        if needs_pipe:
            em.line(1, "pipe = pe._pipe")
        (c0, p0), (c1, p1) = plan
        self._emit_operand(em, "v0", c0, p0)
        self._emit_operand(em, "v1", c1, p1)
        em.line(1, "e.operands = (v0, v1)")
        em.line(1, "e.captured = True")
        if meta.deq:
            em.line(1, "qs = pe._queue_state")
            em.line(1, "c = pe.counters")
            for q in meta.deq:
                em.line(1, f"pe.inputs[{q}].dequeue()")
                em.line(1, f"qs.pending_deqs[{q}] -= 1")
                em.line(1, "c.dequeues += 1")
                em.line(1, "pe._state_version += 1")
        em.blank()

    def _exec_body(self, em: _Emitter, d: int, slot: int, ev: str) -> None:
        """Compute effects for a statically-known slot."""
        meta = self.dp_meta[slot]
        em.line(d, f"a, b = {ev}.operands")
        em.line(d, f"a &= {self.params.word_mask}")
        if meta.op.mnemonic not in _UNARY_OPS:
            em.line(d, f"b &= {self.params.word_mask}")
        for stmt in _alu_lines(meta, slot, self.params, ev):
            em.line(d, stmt)
        em.line(d, f"{ev}.result_ready = True")
        if meta.writes_pred and self.predicts:
            em.line(d, f"_pw_{slot}(pe, {ev}, {ev}.result.value & 1)")
            em.line(d, f"{ev}.pred_committed = True")

    def _ret_body(self, em: _Emitter, d: int, slot: int, ev: str) -> None:
        """Retire effects for a statically-known slot."""
        meta = self.dp_meta[slot]
        if self.dd == self.depth - 1:
            # Decode coalesced into the final stage: force the capture
            # (no deeper producers exist, so it cannot block).
            em.line(d, f"if not {ev}.captured:")
            em.line(d + 1, f"_cap_{slot}(pe, {ev})")
        em.line(d, f"if not {ev}.result_ready:")
        self._exec_body(em, d + 1, slot, ev)
        em.line(d, f"r_ = {ev}.result")
        for q in meta.deq:
            em.line(d, f"qs.sched_deqs[{q}] -= 1")
            em.line(d, "pe._state_version += 1")
        if meta.op.mnemonic in _STORE_OPS:
            em.line(d, "pe.scratchpad.store(*r_.store)")
        if meta.dst_kind == DST_REG:
            em.line(d, f"pe.regs._regs[{meta.dst_index}] = r_.value"
                       f" & {self.params.word_mask}")
        elif meta.dst_kind == DST_OUT:
            em.line(d, f"pe.outputs[{meta.dst_index}].enqueue(r_.value,"
                       f" {meta.out_tag})")
            em.line(d, f"qs.pending_enqs[{meta.dst_index}] -= 1")
            em.line(d, "c.enqueues += 1")
            em.line(d, "pe._state_version += 1")
        elif meta.dst_kind == DST_PRED:
            em.line(d, f"if not {ev}.pred_committed:")
            if self.predicts:
                em.line(d + 1, f"_pw_{slot}(pe, {ev}, r_.value & 1)")
            else:
                # No speculation machinery: the predicate commit folds to
                # a counter train plus a live-state bit write.
                idx = meta.dst_index
                bit = 1 << idx
                em.line(d + 1, "c.predicate_writes += 1")
                em.line(d + 1, "cn = pe.predictor.counters")
                em.line(d + 1, "if r_.value & 1:")
                em.line(d + 2, f"if cn[{idx}] < 3:")
                em.line(d + 3, f"cn[{idx}] += 1")
                em.line(d + 2, f"pe.preds.state |= {bit}")
                em.line(d + 1, "else:")
                em.line(d + 2, f"if cn[{idx}] > 0:")
                em.line(d + 3, f"cn[{idx}] -= 1")
                em.line(d + 2, f"pe.preds.state &= ~{bit}")
        if meta.is_halt:
            em.line(d, "pe.halted = True")
        elif meta.semantics is None:
            em.line(d, "if r_.halt:")
            em.line(d + 1, "pe.halted = True")
        em.line(d, "c.retired += 1")
        em.line(d, f"c.retired_by_op[{meta.op.mnemonic!r}] += 1")
        em.line(d, f"c.retired_by_slot[{slot}] += 1")

    def _emit_pred_write_fn(self, em: _Emitter, slot: int) -> None:
        """``_pw_<slot>(pe, e, v_)``: the ±P predicate commit, flattened.

        Mirrors ``PipelinedPE._commit_predicate_write`` exactly — train,
        spec lookup, unpredicted bypass with fallback patching, or
        resolution with accuracy accounting — but with the predicate
        index baked in and no generator allocations.  The misprediction
        flush stays a call into the PE (it is the rare path and owns the
        quash bookkeeping).
        """
        meta = self.dp_meta[slot]
        idx = meta.dst_index
        bit = 1 << idx
        em.line(0, f"def _pw_{slot}(pe, e, v_):")
        em.line(1, "pe.counters.predicate_writes += 1")
        em.line(1, "cn = pe.predictor.counters")
        em.line(1, "if v_:")
        em.line(2, f"if cn[{idx}] < 3:")
        em.line(3, f"cn[{idx}] += 1")
        em.line(1, "else:")
        em.line(2, f"if cn[{idx}] > 0:")
        em.line(3, f"cn[{idx}] -= 1")
        em.line(1, "specs = pe._specs")
        em.line(1, "sp = None")
        em.line(1, "for s_ in specs:")
        em.line(2, "if s_.owner_seq == e.seq:")
        em.line(3, "sp = s_")
        em.line(3, "break")
        em.line(1, "if sp is None:")
        # Unpredicted write: lands in the live state unless a younger
        # in-flight prediction already holds this bit; younger spec
        # fallbacks absorb it either way.
        em.line(2, "for s_ in specs:")
        em.line(3, f"if s_.pred_index == {idx} and s_.owner_seq > e.seq:")
        em.line(4, "break")
        em.line(2, "else:")
        em.line(3, "if v_:")
        em.line(4, f"pe.preds.state |= {bit}")
        em.line(3, "else:")
        em.line(4, f"pe.preds.state &= ~{bit}")
        em.line(2, "for s_ in specs:")
        em.line(3, "if s_.owner_seq > e.seq:")
        em.line(4, "if v_:")
        em.line(5, f"s_.fallback |= {bit}")
        em.line(4, "else:")
        em.line(5, f"s_.fallback &= ~{bit}")
        em.line(2, "return")
        em.line(1, "correct = sp.predicted == v_")
        em.line(1, "pr = pe.predictor")
        em.line(1, "if sp.forced:")
        em.line(2, "pr.forced += 1")
        em.line(2, "pe.counters.forced_predictions += 1")
        em.line(1, "else:")
        em.line(2, "pr.predictions += 1")
        em.line(2, "if correct:")
        em.line(3, "pr.correct += 1")
        em.line(2, "pe.counters.predictions += 1")
        em.line(1, "if correct:")
        em.line(2, "specs.remove(sp)")
        em.line(2, "return")
        em.line(1, "if not sp.forced:")
        em.line(2, "pe.counters.mispredictions += 1")
        em.line(1, "pe._flush_younger_than(sp.owner_seq)")
        em.line(1, "pe._specs = [s_ for s_ in pe._specs"
                   " if s_.owner_seq < sp.owner_seq]")
        em.line(1, "restored = sp.fallback")
        em.line(1, "if v_:")
        em.line(2, f"restored |= {bit}")
        em.line(1, "else:")
        em.line(2, f"restored &= ~{bit}")
        em.line(1, "pe.preds.state = restored")
        em.blank()

    def _slot_chain(self, em: _Emitter, d: int, slots: list[int], ev: str,
                    body) -> None:
        """Dispatch over the given slots with an ``if``-chain on ``.slot``,
        inlining ``body(em, depth, slot, ev)`` per branch."""
        if len(slots) == 1:
            body(em, d, slots[0], ev)
            return
        em.line(d, f"k_ = {ev}.slot")
        kw = "if"
        for slot in slots:
            em.line(d, f"{kw} k_ == {slot}:")
            body(em, d + 1, slot, ev)
            kw = "elif"

    def _emit_ret_fn(self, em: _Emitter, slot: int) -> None:
        """``_ret_<slot>(pe, e)``: the retire body as a table target."""
        em.line(0, f"def _ret_{slot}(pe, e):")
        em.line(1, "c = pe.counters")
        em.line(1, "qs = pe._queue_state")
        self._ret_body(em, 1, slot, "e")
        em.blank()

    def _emit_exc_fn(self, em: _Emitter, slot: int) -> None:
        """``_exc_<slot>(pe, e)``: the compute body as a table target."""
        em.line(0, f"def _exc_{slot}(pe, e):")
        self._exec_body(em, 1, slot, "e")
        em.blank()

    def _emit_tables(self, em: _Emitter) -> None:
        """Slot-indexed dispatch tuples (``None`` for invalid slots)."""
        def table(name: str, prefix: str) -> None:
            cells = [
                f"{prefix}{n}" if n in set(self.valid_slots) else "None"
                for n in range(len(self.instructions))
            ]
            em.line(0, f"{name} = ({', '.join(cells)},)")

        table("RET", "_ret_")
        table("EXC", "_exc_")
        table("CAP", "_cap_")
        rs = [
            str(self.rs[n]) if n in set(self.valid_slots) else "99"
            for n in range(len(self.instructions))
        ]
        em.line(0, f"RS = ({', '.join(rs)},)")
        em.blank()

    # ------------------------------------------------------------------
    # Trigger resolution
    # ------------------------------------------------------------------

    def _queue_conds(self, d: CompiledTrigger) -> list[str]:
        """Pure-expression queue conditions, in the interpreter's order:
        required occupancy, tag checks, output space.

        ``self._hoisted`` selects the naming: the block ``run`` hoists
        queues and booking arrays into locals once per invocation, while
        ``step`` references them through ``pe``/``qs`` — predicate
        gating means only the one or two surviving descriptors per cycle
        evaluate these, so per-call hoisting would cost more than the
        attribute chains it saves.
        """
        if self._hoisted:
            inq = "I{}".format
            outq = "O{}".format
            pd, sd, pen = "pd", "sd", "pen"
        else:
            inq = "pe.inputs[{}]".format
            outq = "pe.outputs[{}]".format
            pd, sd, pen = (
                "qs.pending_deqs", "qs.sched_deqs", "qs.pending_enqs"
            )
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

    def _emit_fire(self, em: _Emitter, d: int, slot: int,
                   terminal_true: list[str]) -> None:
        self._issue_body(em, d, slot, "e")
        if self.dd == 0:
            em.line(d, f"_cap_{slot}(pe, e)")
            if self.rs[slot] == 0:
                em.line(d, "if e.captured:")
                self._exec_body(em, d + 1, slot, "e")
        for text in terminal_true:
            em.line(d, text)

    def _emit_descriptor(self, em: _Emitter, base: int, d: CompiledTrigger,
                         terminal_true: list[str],
                         terminal_prog: list[str]) -> None:
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
                for text in terminal_prog:
                    em.line(depth + 1, text)
            self._emit_fire(em, depth, slot, terminal_true)

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
        for text in terminal_prog:
            em.line(depth + 1, text)
        fire_tail(depth)

    # ------------------------------------------------------------------
    # Cycle body (shared between step and run)
    # ------------------------------------------------------------------

    def _emit_cycle_body(self, em: _Emitter, base: int, mode: str) -> None:
        """The full cycle: stage walk, capture/compute, trigger resolve.

        ``mode`` selects the terminal statements: ``"step"`` returns the
        progressed flag, ``"run"`` breaks out of a one-shot inner loop
        with ``prog`` holding it.
        """
        if mode == "step":
            terminal_true = ["return True"]
            terminal_prog = ["return prog"]
        else:
            terminal_true = ["prog = True", "break"]
            terminal_prog = ["break"]
        depth = self.depth
        dd = self.dd

        # Phase 1: advance back to front; retire from the last stage.
        em.line(base, f"e_ = pipe[{depth - 1}]")
        em.line(base, "if e_ is not None:")
        if self.use_tables:
            em.line(base + 1, "RET[e_.slot](pe, e_)")
        else:
            self._slot_chain(
                em, base + 1, self.valid_slots, "e_", self._ret_body
            )
        em.line(base + 1, f"pipe[{depth - 1}] = None")
        em.line(base + 1, "prog = True")
        em.line(base + 1, "if pe.halted:")
        em.line(base + 2, "c.none_triggered_cycles += 1")
        for text in terminal_true:
            em.line(base + 2, text)
        for s in range(depth - 2, -1, -1):
            gate = " and e_.captured" if s == dd else ""
            em.line(base, f"e_ = pipe[{s}]")
            em.line(base, f"if e_ is not None and pipe[{s + 1}] is None{gate}:")
            em.line(base + 1, f"pipe[{s}] = None")
            em.line(base + 1, f"e_.stage = {s + 1}")
            em.line(base + 1, f"pipe[{s + 1}] = e_")

        # Phase 2: operand capture in D, then results deepest-first.  At
        # each stage only the slots whose result stage has been reached
        # can compute, so the dispatch chains are pre-filtered.
        em.line(base, f"e_ = pipe[{dd}]")
        em.line(base, "if e_ is not None and not e_.captured:")
        if self.use_tables:
            em.line(base + 1, "CAP[e_.slot](pe, e_)")
        else:
            self._slot_chain(
                em, base + 1, self.valid_slots, "e_",
                lambda em_, d_, slot, ev: em_.line(
                    d_, f"_cap_{slot}(pe, {ev})"
                ),
            )
        min_rs = min((self.rs[n] for n in self.valid_slots), default=0)
        for s in range(depth - 1, min_rs - 1, -1):
            eligible = [n for n in self.valid_slots if self.rs[n] <= s]
            if not eligible:
                continue
            em.line(base, f"e_ = pipe[{s}]")
            em.line(base, "if e_ is not None and e_.captured"
                          " and not e_.result_ready:")
            if self.use_tables:
                if len(eligible) == len(self.valid_slots):
                    em.line(base + 1, "EXC[e_.slot](pe, e_)")
                else:
                    em.line(base + 1, f"if RS[e_.slot] <= {s}:")
                    em.line(base + 2, "EXC[e_.slot](pe, e_)")
            else:
                self._slot_chain(em, base + 1, eligible, "e_",
                                 self._exec_body)

        # Phase 3: trigger resolution.
        em.line(base, "if pipe[0] is not None:")
        em.line(base + 1, "c.data_hazard_cycles += 1")
        for text in terminal_prog:
            em.line(base + 1, text)
        em.line(base, "if pe._halt_pending:")
        em.line(base + 1, "c.none_triggered_cycles += 1")
        for text in terminal_prog:
            em.line(base + 1, text)

        if self.any_pred_writer:
            em.line(base, "pending = 0")
            if self.predicts:
                em.line(base, "specs = pe._specs")
                em.line(base, "if specs:")
                em.line(base + 1, "for e_ in pipe:")
                em.line(base + 2, "if e_ is not None and e_.writes_pred"
                                  " and not e_.pred_committed:")
                em.line(base + 3, "for sp_ in specs:")
                em.line(base + 4, "if sp_.owner_seq == e_.seq:")
                em.line(base + 5, "break")
                em.line(base + 3, "else:")
                em.line(base + 4, "pending |= 1 << e_.meta.dst_index")
                em.line(base, "else:")
                em.line(base + 1, "for e_ in pipe:")
                em.line(base + 2, "if e_ is not None and e_.writes_pred"
                                  " and not e_.pred_committed:")
                em.line(base + 3, "pending |= 1 << e_.meta.dst_index")
            else:
                em.line(base, "for e_ in pipe:")
                em.line(base + 1, "if e_ is not None and e_.writes_pred"
                                  " and not e_.pred_committed:")
                em.line(base + 2, "pending |= 1 << e_.meta.dst_index")

        # Per-cycle hoists the descriptor conditions read.
        any_off = any(d.pred_off for d in self.compiled.descriptors)
        any_watched = any(d.watched for d in self.compiled.descriptors)
        if any_watched:
            em.line(base, "ps = pe.preds.state")
        if any_off:
            em.line(base, "inv = ~ps")

        for d in self.compiled.descriptors:
            self._emit_descriptor(em, base, d, terminal_true, terminal_prog)
        em.line(base, "c.none_triggered_cycles += 1")
        for text in terminal_prog:
            em.line(base, text)

    def _hoist_lines(self) -> list[str]:
        """Locals the block entry point hoists before its cycle loop."""
        lines = ["c = pe.counters", "pipe = pe._pipe", "qs = pe._queue_state"]
        if not self._hoisted:
            return lines
        for q in self.used_inputs:
            lines.append(f"I{q} = pe.inputs[{q}]")
        for o in self.used_outputs:
            lines.append(f"O{o} = pe.outputs[{o}]")
        if self.policy is QueuePolicy.EFFECTIVE:
            if self.used_inputs:
                lines.append("pd = qs.pending_deqs")
            if self.used_outputs:
                lines.append("pen = qs.pending_enqs")
        else:
            if self.used_inputs:
                lines.append("sd = qs.sched_deqs")
            if self.used_outputs and self.policy is not QueuePolicy.PADDED:
                lines.append("pen = qs.pending_enqs")
        return lines

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def _emit_step(self, em: _Emitter) -> None:
        self._hoisted = False
        em.line(0, "def step(pe):")
        em.line(1, "if pe.halted:")
        em.line(2, "return False")
        em.line(1, "if pe.fault_hook is not None or pe.telemetry is not None:")
        em.line(2, "return _INTERP_STEP(pe)")
        for text in self._hoist_lines():
            em.line(1, text)
        em.line(1, "c.cycles += 1")
        em.line(1, "prog = False")
        self._emit_cycle_body(em, 1, "step")
        em.blank()

    def _emit_run(self, em: _Emitter) -> None:
        self._hoisted = True
        em.line(0, "def run(pe, budget, stop_on_enqueue=False, idle_streak=0,"
                   " stall_limit=0, stop_on_dequeue=False):")
        em.line(1, '"""Block-step up to ``budget`` cycles with per-cycle')
        em.line(1, "queue commits; returns the updated idle streak.  Stops")
        em.line(1, "early on halt, on a staged enqueue (``stop_on_enqueue``),")
        em.line(1, "on any input dequeue (``stop_on_dequeue`` - so a sibling")
        em.line(1, "blocked on a full channel is re-evaluated the cycle after")
        em.line(1, "space appears, exactly as under interleaved stepping),")
        em.line(1, "or when the streak reaches ``stall_limit``.  Runs zero")
        em.line(1, "cycles - so callers fall back to the interpreter - when a")
        em.line(1, "hook or telemetry sink is attached, or when entries are")
        em.line(1, 'already staged on any queue."""')
        em.line(1, "if pe.fault_hook is not None or pe.telemetry is not None:")
        em.line(2, "return idle_streak")
        em.line(1, "for q_ in pe._sig_queues:")
        em.line(2, "if q_._staged:")
        em.line(3, "return idle_streak")
        for text in self._hoist_lines():
            em.line(1, text)
        for o in self.written_outputs:
            em.line(1, f"W{o} = pe.outputs[{o}]")
        if self.used_inputs:
            versions = " + ".join(f"I{q}.version" for q in self.used_inputs)
            em.line(1, f"dv_ = {versions}")
        em.line(1, "while budget > 0:")
        em.line(2, "if pe.halted:")
        em.line(3, "break")
        em.line(2, "budget -= 1")
        em.line(2, "c.cycles += 1")
        em.line(2, "prog = False")
        em.line(2, "while 1:")
        self._emit_cycle_body(em, 3, "run")
        # End of cycle: commit any enqueue this PE staged (only the
        # outputs the program writes can ever hold one here — the
        # prologue guaranteed everything else came in clean).
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
        em.line(3, "if stall_limit and idle_streak >= stall_limit:")
        em.line(4, "break")
        if self.written_outputs:
            em.line(2, "if stop and stop_on_enqueue:")
            em.line(3, "break")
        if self.used_inputs:
            versions = " + ".join(f"I{q}.version" for q in self.used_inputs)
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
        em.blank()
        for slot in self.valid_slots:
            self._emit_capture_fn(em, slot)
            if self.predicts and self.dp_meta[slot].writes_pred:
                self._emit_pred_write_fn(em, slot)
        if self.use_tables:
            for slot in self.valid_slots:
                self._emit_exc_fn(em, slot)
                self._emit_ret_fn(em, slot)
            self._emit_tables(em)
        self._emit_step(em)
        self._emit_run(em)
        return em.source()


def generate_source(
    instructions: list[Instruction],
    config: PipelineConfig,
    params: ArchParams,
) -> str:
    """Emit the specialized module source for one (program, config) tuple."""
    return _Codegen(instructions, config, params).generate()


def semantics_table(
    instructions: list[Instruction], params: ArchParams
) -> tuple:
    """Per-slot semantics callables for the generated ``SEM[...]`` fallbacks."""
    return tuple(
        meta.semantics for meta in compile_datapaths(instructions, params)
    )
