"""Per-config Python code generation for the pipelined PE.

The paper's microarchitectures differ only in per-config control: the
stage partition, ±P and the queue-status policy (Section 5).  For a
fixed :class:`~repro.pipeline.config.PipelineConfig` every control
decision the interpreter in :mod:`repro.pipeline.core` makes per cycle
about the pipe itself — which stages exist, where decode and the result
stages sit, whether predictions are offered — is a compile-time
constant.  This module emits one Python module of straight-line source
per config, defining one function, ``cycle(pe)``: the body of a
:meth:`PipelinedPE.step <repro.pipeline.core.PipelinedPE.step>` cycle,
which runs it after its prologue (halt test, cycle count, fault hook,
telemetry clock).  It has the stage walk unrolled, capture and compute
placed at the config's decode and result stages, and the
pending-predicate mask gathered over the stages that can hold a writer.

Nothing in a module depends on the program or on the queue-status
policy, so configs that differ only in that policy share one body: the
48 configs (:func:`~repro.pipeline.config.all_configs` with the padded
policy) have 16, one per (stage partition, ±P), named by
:func:`body_name`.  Trigger resolution is
:meth:`Scheduler._evaluate_compiled
<repro.arch.scheduler.Scheduler._evaluate_compiled>` over the PE's
predicate-indexed candidate table and its queue-status view
(:mod:`repro.pipeline.queue_status`), so generated code holds no
program constant and no queue-status condition.  The datapath is not
generated either: issue (with its telemetry event and +P prediction
offer), operand capture with forwarding, the ALU and retirement are the
interpreter's own ``PipelinedPE._issue``, ``_capture``, ``_compute``
and ``_retire``.  So the generated cycle is *bit-identical* to the
interpreter and emits every event it emits: it mutates the same
``PipelinedPE`` state through the same sequence of effects.

Nothing here compiles or keeps modules, or loops over cycles; see
:mod:`repro.jit.cache`.
"""

from __future__ import annotations

from repro.pipeline.config import PipelineConfig

CODEGEN_VERSION = 8
"""Bumped whenever generated-source semantics change; named in the
header line of every generated module."""


def body_name(config: PipelineConfig) -> str:
    """The name of ``config``'s generated body, e.g. ``"T|D|X1|X2 +P"``:
    its stage partition and whether it offers predictions — everything
    of the config that reaches the generated source."""
    if config.predicate_prediction:
        return config.partition + " +P"
    return config.partition


class _Codegen:
    """Emits the generated module for one pipeline config."""

    def __init__(self, config: PipelineConfig) -> None:
        self.config = config
        self.depth = config.depth
        self.dd = config.decode_stage
        self.early = config.early_result_stage
        self.late = config.late_result_stage
        self.predicts = config.predicate_prediction
        self.lines: list[str] = []

    def line(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def _compute_at(self, d: int, stage: int, entry: str) -> None:
        """Compute ``entry``, which sits in ``stage``, if its result is
        due there: every op at the late result stage, single-stage ops
        from the early one."""
        if stage >= self.late:
            self.line(d, f"pe._compute({entry})")
        elif stage >= self.early:
            self.line(d, f"if not {entry}.meta.late_result:")
            self.line(d + 1, f"pe._compute({entry})")

    def _emit_cycle(self) -> None:
        """``cycle(pe)``: the body of one counted cycle — stage walk,
        capture/compute, trigger resolution and issue — returning the
        progressed flag."""
        depth, dd = self.depth, self.dd
        line = self.line
        line(0, "def cycle(pe):")
        line(1, "c = pe.counters")
        line(1, "pipe = pe._pipe")
        line(1, "prog = False")

        # Phase 1: advance back to front; retire from the last stage.
        line(1, f"e_ = pipe[{depth - 1}]")
        line(1, "if e_ is not None:")
        line(2, "pe._retire(e_)")
        line(2, f"pipe[{depth - 1}] = None")
        line(2, "prog = True")
        line(2, "if pe.halted:")
        line(3, "c.none_triggered_cycles += 1")
        line(3, "return True")
        for s in range(depth - 2, -1, -1):
            gate = " and e_.captured" if s == dd else ""
            line(1, f"e_ = pipe[{s}]")
            line(1, f"if e_ is not None and pipe[{s + 1}] is None{gate}:")
            line(2, f"pipe[{s}] = None")
            line(2, f"pipe[{s + 1}] = e_")

        # Phase 2: operand capture in D, then results deepest-first.
        line(1, f"e_ = pipe[{dd}]")
        line(1, "if e_ is not None and not e_.captured:")
        line(2, "pe._capture(e_)")
        for s in range(depth - 1, self.early - 1, -1):
            line(1, f"e_ = pipe[{s}]")
            line(1, "if e_ is not None and e_.captured"
                    " and not e_.result_ready:")
            self._compute_at(2, s, "e_")

        # Phase 3: trigger resolution.
        line(1, "if pipe[0] is not None:")
        line(2, "c.data_hazard_cycles += 1")
        line(2, "return prog")
        line(1, "if pe._halt_pending:")
        line(2, "c.none_triggered_cycles += 1")
        line(2, "return prog")
        # Predicate bits with in-flight, unpredicted datapath writes.
        # Stage 0 is empty here, so only the deeper stages can hold one.
        line(1, "pending = 0")
        if depth > 1:
            if self.predicts:
                line(1, "specs = pe._specs")
            for s in range(1, depth):
                line(1, f"e_ = pipe[{s}]")
                line(1, "if e_ is not None and e_.meta.writes_pred"
                        " and not e_.pred_committed:")
                if self.predicts:
                    line(2, "for sp_ in specs:")
                    line(3, "if sp_.owner_seq == e_.seq:")
                    line(4, "break")
                    line(2, "else:")
                    line(3, "pending |= 1 << e_.meta.dst_index")
                else:
                    line(2, "pending |= 1 << e_.meta.dst_index")
        # Speculation (and so a forbidden cycle) exists only under +P.
        forbid = "bool(pe._specs)" if self.predicts else "False"
        line(1, "o_ = pe.scheduler._evaluate_compiled(pe._compiled,"
                f" pe.preds.state, pe._view, pending, {forbid})")
        line(1, "if o_ is _NONE_TRIGGERED:")
        line(2, "c.none_triggered_cycles += 1")
        line(2, "return prog")
        line(1, "k_ = o_.kind")
        line(1, "if k_ is _FIRED:")
        line(2, "pe._issue(o_.index)")
        if dd == 0:
            # Decode coalesced into the trigger stage: operand capture
            # and dequeues belong to the issue cycle itself.
            line(2, "e = pipe[0]")
            if self.early == 0:
                line(2, "if pe._capture(e):")
                self._compute_at(3, 0, "e")
            else:
                line(2, "pe._capture(e)")
        line(2, "return True")
        line(1, "if k_ is _HAZARD:")
        line(2, "c.pred_hazard_cycles += 1")
        line(1, "else:")
        line(2, "c.forbidden_cycles += 1")
        line(1, "return prog")
        self.lines.append("")

    def generate(self) -> str:
        self.line(0, f"# generated by repro.jit.codegen v{CODEGEN_VERSION}"
                     f" for {body_name(self.config)!r}")
        self._emit_cycle()
        return "\n".join(self.lines)


def generate_source(config: PipelineConfig) -> str:
    """Emit the specialized module source for one pipeline config; every
    config of one :func:`body_name` gets the same text."""
    return _Codegen(config).generate()
