"""Parameter derivation (paper Tables 1 and 2)."""

import pytest

from repro.errors import ParameterError
from repro.params import ArchParams, DEFAULT_PARAMS


class TestDefaults:
    def test_table1_values(self):
        p = DEFAULT_PARAMS
        assert p.num_regs == 8
        assert p.num_input_queues == 4
        assert p.num_output_queues == 4
        assert p.max_check == 2
        assert p.max_deq == 2
        assert p.num_preds == 8
        assert p.word_width == 32
        assert p.tag_width == 2
        assert p.num_instructions == 16
        assert p.num_ops == 42
        assert p.num_srcs == 2
        assert p.num_dsts == 1

    def test_instruction_is_106_bits(self):
        assert DEFAULT_PARAMS.instruction_width == 106

    def test_padded_to_128_bits(self):
        assert DEFAULT_PARAMS.padded_instruction_width == 128

    def test_table2_field_widths(self):
        widths = DEFAULT_PARAMS.field_widths()
        assert widths == {
            "Val": 1,
            "PredMask": 16,
            "QueueIndices": 6,
            "NotTags": 2,
            "TagVals": 4,
            "Op": 6,
            "SrcTypes": 4,
            "SrcIDs": 6,
            "DstTypes": 2,
            "DstIDs": 3,
            "OutTag": 2,
            "IQueueDeq": 6,
            "PredUpdate": 16,
            "Imm": 32,
        }

    def test_word_helpers(self):
        p = DEFAULT_PARAMS
        assert p.word_mask == 0xFFFFFFFF
        assert p.word_sign_bit == 0x80000000
        assert p.num_tags == 4

    def test_table1_rows_cover_all_parameters(self):
        rows = DEFAULT_PARAMS.table1()
        assert len(rows) == 12
        assert rows[0] == ("NRegs", "Number of registers", 8)


class TestDerivedScaling:
    def test_more_queues_widen_indices(self):
        p = ArchParams(num_input_queues=8, max_deq=2)
        # 8 queues + "none" encoding needs 4 bits per index.
        assert p.queue_index_width == 4
        assert p.iqueue_deq_width == 8

    def test_wider_tags_widen_tag_vals(self):
        p = ArchParams(tag_width=4)
        assert p.tag_vals_width == p.max_check * 4
        assert p.num_tags == 16

    def test_instruction_width_tracks_word_width(self):
        narrow = ArchParams(word_width=16)
        assert narrow.instruction_width == 106 - 16
        assert narrow.padded_instruction_width == 96

    def test_more_predicates_widen_masks(self):
        p = ArchParams(num_preds=16)
        assert p.pred_mask_width == 32
        assert p.pred_update_width == 32


class TestValidation:
    @pytest.mark.parametrize("field", [
        "num_regs", "num_input_queues", "num_output_queues", "max_check",
        "max_deq", "num_preds", "word_width", "tag_width",
        "num_instructions", "num_ops", "queue_capacity",
    ])
    def test_rejects_non_positive(self, field):
        with pytest.raises(ParameterError):
            ArchParams(**{field: 0})

    def test_rejects_max_check_above_queue_count(self):
        with pytest.raises(ParameterError):
            ArchParams(max_check=5, num_input_queues=4)

    def test_rejects_max_deq_above_queue_count(self):
        with pytest.raises(ParameterError):
            ArchParams(max_deq=5, num_input_queues=4)

    def test_from_dict_round_trip(self):
        p = ArchParams.from_dict({"num_regs": 16, "word_width": 64})
        assert p.num_regs == 16
        assert p.word_width == 64

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ParameterError, match="unknown parameter"):
            ArchParams.from_dict({"numregs": 8})

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_PARAMS.num_regs = 9


def _clog2(value):
    return max(1, (value - 1).bit_length())


def _params_formulas(p):
    index = _clog2(p.num_input_queues + 1)
    src_id = _clog2(max(p.num_regs, p.num_input_queues))
    dst_id = _clog2(max(p.num_regs, p.num_output_queues, p.num_preds))
    widths = {
        "val_width": 1,
        "pred_mask_width": 2 * p.num_preds,
        "queue_index_width": index,
        "queue_indices_width": p.max_check * index,
        "not_tags_width": p.max_check,
        "tag_vals_width": p.max_check * p.tag_width,
        "op_width": _clog2(p.num_ops),
        "src_types_width": 2 * p.num_srcs,
        "src_id_width": src_id,
        "src_ids_width": p.num_srcs * src_id,
        "dst_types_width": 2 * p.num_dsts,
        "dst_id_width": dst_id,
        "dst_ids_width": p.num_dsts * dst_id,
        "out_tag_width": p.tag_width,
        "iqueue_deq_width": p.max_deq * index,
        "pred_update_width": 2 * p.num_preds,
        "imm_width": p.word_width,
    }
    # One index's width is a building block, not a Table 2 field.
    total = sum(width for name, width in widths.items()
                if name not in ("queue_index_width", "src_id_width",
                                "dst_id_width"))
    return {
        **widths,
        "word_mask": 2 ** p.word_width - 1,
        "word_sign_bit": 2 ** (p.word_width - 1),
        "num_tags": 2 ** p.tag_width,
        "instruction_width": total,
        "padded_instruction_width": -(-total // 32) * 32,
    }


def _config_formulas(c):
    from repro.pipeline.config import QueuePolicy

    where = {phase: index for index, stage in enumerate(c.stages)
             for phase in stage}
    split = "X1" in where
    partition = "|".join("".join(stage) for stage in c.stages)
    suffix = ("+P" if c.predicate_prediction else "") + {
        QueuePolicy.CONSERVATIVE: "",
        QueuePolicy.EFFECTIVE: "+Q",
        QueuePolicy.PADDED: "+pad",
    }[c.queue_policy]
    return {
        "depth": len(c.stages),
        "split_alu": split,
        "partition": partition,
        "effective_queue_status": c.queue_policy is QueuePolicy.EFFECTIVE,
        "name": f"{partition} {suffix}".strip(),
        "decode_stage": where["D"],
        "early_result_stage": where["X1" if split else "X"],
        "late_result_stage": where["X2" if split else "X"],
    }


def _instruction_formulas(ins):
    from repro.isa.instruction import DestinationType, OperandType

    dst = ins.dp.dst
    return {
        "output_queue": dst.index if dst.kind is DestinationType.OUT else None,
        "required_input_queues": frozenset(
            {check.queue for check in ins.trigger.tag_checks}
            | {src.index for src in ins.dp.srcs
               if src.kind is OperandType.IN}
            | set(ins.dp.deq)),
    }


class TestCachedDerivations:
    """The frozen descriptions derive each value once
    (``functools.cached_property``): the cached value must be the
    formula's, and caching must leave equality, hashing, ``replace``,
    pickling and ``dataclasses.asdict`` (the CPI store's params
    fingerprint) as they were."""

    @staticmethod
    def _assert_cached(obj, formula):
        from dataclasses import asdict, replace
        from functools import cached_property
        import pickle

        expected = formula(obj)
        cached = {name for name, attr in vars(type(obj)).items()
                  if isinstance(attr, cached_property)}
        assert cached == expected.keys(), type(obj)
        fresh = replace(obj)            # built from the fields alone
        assert not cached & vars(fresh).keys()
        assert {name: getattr(obj, name) for name in cached} == expected
        assert cached <= vars(obj).keys()
        assert obj == fresh and hash(obj) == hash(fresh)
        assert repr(obj) == repr(fresh)
        assert asdict(obj) == asdict(fresh)
        assert replace(obj) == obj
        back = pickle.loads(pickle.dumps(obj))
        assert back == obj and hash(back) == hash(obj)
        assert asdict(back) == asdict(obj)
        assert {name: getattr(back, name) for name in cached} == expected

    def test_cached_values_match_formulas(self):
        from dataclasses import replace

        from repro.analyze.check import checkable_workloads
        from repro.asm.assembler import assemble
        from repro.pipeline.config import all_configs
        from repro.verify.generator import case_source, generate_case

        variants = [DEFAULT_PARAMS, replace(DEFAULT_PARAMS, word_width=8),
                    replace(DEFAULT_PARAMS, queue_capacity=1),
                    replace(DEFAULT_PARAMS, queue_capacity=2)]
        for params in variants:
            self._assert_cached(params, _params_formulas)
            # A replaced field re-derives: no cached value carries over.
            wider = replace(params, word_width=16)
            assert wider.word_mask == 0xFFFF
            assert _params_formulas(wider) == {
                name: getattr(wider, name) for name in _params_formulas(wider)}
        assert DEFAULT_PARAMS.instruction_width == 106

        configs = all_configs(include_padded=True)
        assert len(configs) == 48
        for config in configs:
            self._assert_cached(config, _config_formulas)
            flipped = replace(config, predicate_prediction=not
                              config.predicate_prediction)
            assert flipped.name == _config_formulas(flipped)["name"]

        programs = [program for _, program, _, _ in checkable_workloads()]
        for seed in range(20):
            case = generate_case(seed, DEFAULT_PARAMS)
            programs.append(assemble(case_source(case, DEFAULT_PARAMS),
                                     DEFAULT_PARAMS, name=case["name"]))
        instructions = [ins for program in programs
                        for ins in program.instructions]
        assert any(ins.output_queue is not None for ins in instructions)
        assert any(ins.dp.pred_update.touched for ins in instructions)
        for ins in instructions:
            self._assert_cached(ins.trigger, lambda trigger: {
                "watched_predicates": trigger.pred_on | trigger.pred_off})
            self._assert_cached(ins.dp.pred_update, lambda update: {
                "touched": update.set_mask | update.clear_mask})
            self._assert_cached(ins, _instruction_formulas)
