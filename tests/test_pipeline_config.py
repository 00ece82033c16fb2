"""Pipeline configuration: partitions, names, feature matrix."""

import pytest

from repro.errors import ConfigError
from repro.pipeline.config import (
    ALL_PARTITIONS,
    PIPELINED_PARTITIONS,
    PipelineConfig,
    QueuePolicy,
    SINGLE_CYCLE,
    all_configs,
    config_by_name,
    partition_name,
)


class TestPartitions:
    def test_eight_partitions(self):
        assert len(ALL_PARTITIONS) == 8
        assert len(PIPELINED_PARTITIONS) == 7

    def test_names(self):
        names = [partition_name(stages) for stages in ALL_PARTITIONS]
        assert names == [
            "TDX", "TD|X", "T|DX", "TDX1|X2", "TD|X1|X2", "T|DX1|X2",
            "T|D|X", "T|D|X1|X2",
        ]

    def test_depths(self):
        depths = [len(stages) for stages in ALL_PARTITIONS]
        assert depths == [1, 2, 2, 2, 3, 3, 3, 4]

    def test_paper_range_is_2_to_4_stages(self):
        assert {len(s) for s in PIPELINED_PARTITIONS} == {2, 3, 4}


class TestConfig:
    def test_single_cycle(self):
        assert SINGLE_CYCLE.depth == 1
        assert SINGLE_CYCLE.name == "TDX"
        assert not SINGLE_CYCLE.split_alu

    def test_split_alu_detection(self):
        assert config_by_name("TDX1|X2").split_alu
        assert not config_by_name("T|D|X").split_alu

    def test_stage_lookup(self):
        config = config_by_name("T|D|X1|X2")
        assert config.decode_stage == 1
        assert config.early_result_stage == 2
        assert config.late_result_stage == 3

    def test_coalesced_stages(self):
        config = config_by_name("TD|X")
        assert config.decode_stage == 0
        assert config.early_result_stage == 1
        assert config.late_result_stage == 1

    def test_name_includes_features(self):
        config = config_by_name("T|DX +P+Q")
        assert config.predicate_prediction
        assert config.queue_policy is QueuePolicy.EFFECTIVE
        assert config.name == "T|DX +P+Q"

    def test_padded_name(self):
        config = config_by_name("T|D|X1|X2 +pad")
        assert config.queue_policy is QueuePolicy.PADDED

    def test_unknown_partition(self):
        with pytest.raises(ConfigError):
            config_by_name("T|D|X3")

    @pytest.mark.parametrize(
        "name", ["TDX +q", "TDX junk", "T|DX +PQ", "TDX +P+Q+pad"])
    def test_malformed_name_is_refused(self, name):
        with pytest.raises(ConfigError, match="unknown pipeline config"):
            config_by_name(name)

    def test_every_name_round_trips(self):
        configs = all_configs(include_padded=True)
        assert len(configs) == 48
        for config in configs:
            assert config_by_name(config.name) == config
            spaced = " " + config.name.replace(" ", "  ") + "\t"
            assert config_by_name(spaced) == config

    def test_rejects_out_of_order_phases(self):
        with pytest.raises(ConfigError):
            PipelineConfig(stages=(("D",), ("T", "X")))

    def test_rejects_bad_speculative_depth(self):
        with pytest.raises(ConfigError):
            PipelineConfig(stages=ALL_PARTITIONS[0], speculative_depth=0)

    def test_with_options(self):
        base = config_by_name("T|D|X")
        nested = base.with_options(speculative_depth=2)
        assert nested.speculative_depth == 2
        assert base.speculative_depth == 1


class TestMatrix:
    def test_paper_matrix_is_32(self):
        assert len(all_configs()) == 32

    def test_matrix_with_padding_is_48(self):
        assert len(all_configs(include_padded=True)) == 48

    def test_names_unique(self):
        names = [c.name for c in all_configs(include_padded=True)]
        assert len(names) == len(set(names))
