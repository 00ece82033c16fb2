"""Program lowering: compiled triggers and datapaths match their source,
and one lowering serves every PE a program is configured onto."""

import os
import pickle
import sys
from dataclasses import replace

import pytest

from repro.arch import FunctionalPE, trigger_cache
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
    lower_program,
)
from repro.asm import assemble
from repro.errors import EncodingError, SimulationError
from repro.isa.alu import alu_execute
from repro.isa.instruction import (
    DatapathOp,
    Destination,
    Instruction,
    Operand,
    OperandType,
    PredUpdate,
    TagCheck,
    Trigger,
    make_nop,
)
from repro.isa.opcodes import op_by_name
from repro.params import DEFAULT_PARAMS as P
from repro.pipeline import PipelinedPE, all_configs
from repro.verify.corpus import load_corpus
from repro.verify.generator import case_source
from repro.workloads import WORKLOADS, get_workload
from repro.workloads.gcd import gcd_program

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")


def _ins(**kwargs):
    defaults = dict(
        trigger=Trigger(),
        dp=DatapathOp(
            op=op_by_name("add"),
            srcs=(Operand.reg(0), Operand.reg(1)),
            dst=Destination.reg(0),
        ),
    )
    defaults.update(kwargs)
    return Instruction(**defaults)


class TestCompiledTrigger:
    def test_fields_mirror_the_instruction(self):
        ins = _ins(
            trigger=Trigger(
                pred_on=0b0101, pred_off=0b1010,
                tag_checks=(TagCheck(queue=2, tag=3, negate=True),),
            ),
            dp=DatapathOp(
                op=op_by_name("add"),
                srcs=(Operand.input_queue(1), Operand.reg(0)),
                dst=Destination.output_queue(2, 1),
                deq=(1,),
            ),
        )
        [d] = compile_program([ins], P.num_preds).descriptors
        assert d.index == 0
        assert d.pred_on == 0b0101 and d.pred_off == 0b1010
        assert d.watched == 0b1111
        assert d.required_queues == (1, 2)   # operand + tag-checked queues
        assert d.tag_checks == ((2, 3, True),)
        assert d.out_queue == 2
        assert d.side_effects == ins.dp.has_side_effects_before_retire

    def test_invalid_slots_dropped_but_indices_kept(self):
        program = [make_nop(), _ins(), make_nop(), _ins()]
        compiled = compile_program(program, P.num_preds)
        assert [d.index for d in compiled.descriptors] == [1, 3]


class TestCompiledDatapath:
    def test_operand_plan_padded_and_immediate_premasked(self):
        ins = _ins(dp=DatapathOp(
            op=op_by_name("not"),
            srcs=(Operand.imm(),),
            dst=Destination.reg(3),
            imm=-1,
        ))
        meta = CompiledDatapath(ins, P)
        assert meta.operand_plan == ((LIT, P.word_mask), (LIT, 0))
        assert meta.dst_kind == DST_REG and meta.dst_index == 3

    def test_queue_sources_and_destinations(self):
        ins = _ins(dp=DatapathOp(
            op=op_by_name("add"),
            srcs=(Operand.input_queue(2), Operand.reg(5)),
            dst=Destination.output_queue(1, 3),
            deq=(2,),
        ))
        meta = CompiledDatapath(ins, P)
        assert meta.operand_plan == ((IN, 2), (REG, 5))
        assert meta.deq == (2,)
        assert meta.dst_kind == DST_OUT
        assert meta.dst_index == 1 and meta.out_tag == 3
        assert meta.out_queue == 1

    def test_predicate_destination_flags(self):
        ins = _ins(dp=DatapathOp(
            op=op_by_name("eqz"),
            srcs=(Operand.reg(0),),
            dst=Destination.predicate(2),
            pred_update=PredUpdate(set_mask=0b1),
        ))
        meta = CompiledDatapath(ins, P)
        assert meta.dst_kind == DST_PRED and meta.dst_index == 2
        assert meta.writes_pred and not meta.writes_reg
        assert meta.out_queue == -1
        assert (meta.pred_set, meta.pred_keep) == (0b1, 0xFF)

    def test_semantics_agree_with_alu_execute(self):
        for mnemonic in ("add", "mulh", "asr", "brev", "slt", "halt"):
            op = op_by_name(mnemonic)
            srcs = tuple(Operand.reg(i) for i in range(op.num_srcs))
            ins = _ins(dp=DatapathOp(op=op, srcs=srcs, dst=Destination.reg(0)))
            meta = CompiledDatapath(ins, P)
            assert meta.is_halt == (mnemonic == "halt")
            assert meta.late_result == op.late_result
            for a, b in ((0, 0), (7, 3), (P.word_mask, 1)):
                got = meta.semantics(a, b, P, P.word_mask, P.word_width, None)
                expected = alu_execute(op, a, b, P, None)
                assert got == expected.value
                assert expected.halt == meta.is_halt
                assert expected.store is None and not meta.is_store

    def test_compiled_by_position_including_invalid(self):
        program = [make_nop(), _ins(), make_nop()]
        metas = compile_datapaths(program, P)
        assert len(metas) == 3
        assert metas[1].op is program[1].dp.op

    def test_flattened_fields_match_every_real_slot(self):
        """On every slot of the ten workloads' PEs and the corpus cases,
        the issue masks are ``PredUpdate.apply`` masked to NPreds over
        every predicate state, and the flags and mnemonic match the
        instruction."""
        lowerings = []
        for name in WORKLOADS():
            system = get_workload(name).build(
                lambda pe_name: FunctionalPE(P, name=pe_name), 4, 0)
            lowerings += [(pe.instructions, pe._dp_meta)
                          for pe in system.pes]
        for _, case in load_corpus(CORPUS_DIR):
            lowering = assemble(case_source(case, P), P,
                                name=case["name"]).lowered(P)
            lowerings.append((lowering.instructions, lowering.datapaths))
        every = (1 << P.num_preds) - 1
        slots = updates = 0
        for instructions, metas in lowerings:
            for ins, meta in zip(instructions, metas, strict=True):
                dp = ins.dp
                slots += 1
                updates += bool(dp.pred_update.touched)
                assert [(state | meta.pred_set) & meta.pred_keep
                        for state in range(every + 1)] == [
                    dp.pred_update.apply(state) & every
                    for state in range(every + 1)]
                reads_reg = any(src.kind is OperandType.REG
                                for src in dp.srcs)
                assert meta.reads_reg == reads_reg == any(
                    code == REG for code, _ in meta.operand_plan)
                assert meta.books_queues == (
                    bool(dp.deq) or ins.output_queue is not None)
                assert meta.mnemonic == dp.op.mnemonic
        assert slots > 200 and updates > 100, (slots, updates)


class TestLoweringIsShared:
    """One lowering per program and parameters, never a stale one."""

    @staticmethod
    def _count_lowerings(monkeypatch) -> list:
        calls = []
        real = trigger_cache.lower_program

        def counting(instructions, params):
            calls.append(params)
            return real(instructions, params)

        for module in list(sys.modules.values()):
            if getattr(module, "lower_program", None) is real:
                monkeypatch.setattr(module, "lower_program", counting)
        return calls

    def test_one_lowering_for_every_pe(self, monkeypatch):
        calls = self._count_lowerings(monkeypatch)
        program = gcd_program(P)
        golden = FunctionalPE(P)
        program.configure(golden)
        pes = [PipelinedPE(config, P)
               for config in all_configs(include_padded=True)]
        pes.append(PipelinedPE(pes[-1].config, P, fast_path=False))
        for pe in pes:
            program.configure(pe)
        assert len(pes) == 49
        assert calls == [P]
        assert all(pe.instructions is golden.instructions for pe in pes)
        assert pes[-1]._compiled is None      # the reference walk

    def test_replacing_an_instruction_lowers_again(self, monkeypatch):
        calls = self._count_lowerings(monkeypatch)
        program = gcd_program(P)
        program.configure(FunctionalPE(P))
        replacement = _ins()
        program.instructions[0] = replacement
        pe = PipelinedPE(params=P)
        program.configure(pe)
        assert len(calls) == 2
        assert pe.instructions[0] is replacement
        program.configure(FunctionalPE(P))
        assert len(calls) == 2

    def test_other_params_are_validated_afresh(self):
        # udiv's checkable params: the same ISA at an 8-bit word.
        narrow = replace(P, word_width=8)
        program = assemble("when %p == XXXXXXXX:\n    add %r0, %r0, $300;")
        program.configure(FunctionalPE(P))
        for pe in (FunctionalPE(narrow), PipelinedPE(params=narrow)):
            with pytest.raises(EncodingError, match="does not fit"):
                program.configure(pe)

    def test_lowering_for_other_params_is_refused(self):
        lowering = lower_program(gcd_program(P).instructions, P)
        narrow = replace(P, word_width=8)
        for pe in (FunctionalPE(narrow), PipelinedPE(params=narrow)):
            with pytest.raises(SimulationError, match="other parameters"):
                pe.load_program(lowering)

    def test_configured_program_still_pickles(self):
        program = gcd_program(P)
        program.configure(FunctionalPE(P))
        clone = pickle.loads(pickle.dumps(program))
        assert clone == program
        clone.configure(PipelinedPE(params=P))

    def test_raw_list_lowers_like_a_program(self):
        program = gcd_program(P)
        pe = PipelinedPE(params=P)
        pe.load_program(program.instructions)
        assert pe.instructions == tuple(program.instructions)
        with pytest.raises(SimulationError, match="NIns"):
            pe.load_program([_ins()] * (P.num_instructions + 1))


class TestLoweringRejectsOutOfRangeIndices:
    """The PEs index register and predicate storage and their queue
    lists directly at the lowered indices, so :func:`lower_program`
    must refuse every index outside the parameters."""

    def _refused(self, **fields):
        with pytest.raises(EncodingError, match="out of range|only"):
            lower_program([_ins(**fields)], P)

    def _dp(self, srcs=(Operand.reg(0),), dst=None, deq=()):
        return DatapathOp(op=op_by_name("mov"), srcs=srcs,
                          dst=dst or Destination.reg(0), deq=deq)

    @pytest.mark.parametrize("index", [-1, P.num_regs])
    def test_register_source_and_destination(self, index):
        self._refused(dp=self._dp(srcs=(Operand.reg(index),)))
        self._refused(dp=self._dp(dst=Destination.reg(index)))

    @pytest.mark.parametrize("index", [-1, P.num_preds])
    def test_predicate_destination(self, index):
        self._refused(dp=self._dp(dst=Destination.predicate(index)))

    @pytest.mark.parametrize("index", [-1, P.num_input_queues])
    def test_input_queue_source_dequeue_and_tag_check(self, index):
        self._refused(dp=self._dp(srcs=(Operand.input_queue(index),)))
        self._refused(dp=self._dp(deq=(index,)))
        self._refused(trigger=Trigger(tag_checks=(TagCheck(queue=index, tag=0),)))

    @pytest.mark.parametrize("index", [-1, P.num_output_queues])
    def test_output_queue_destination(self, index):
        self._refused(dp=self._dp(dst=Destination.output_queue(index, 0)))

    def test_in_range_indices_lower(self):
        top = self._dp(srcs=(Operand.reg(P.num_regs - 1),),
                       dst=Destination.output_queue(P.num_output_queues - 1, 0),
                       deq=(P.num_input_queues - 1,))
        lowering = lower_program([_ins(dp=top)], P)
        assert lowering.datapaths[0].out_queue == P.num_output_queues - 1
