"""Pipeline microarchitecture configurations.

The paper divides a PE's work into three conceptual stages — trigger (T),
decode (D) and execute (X, optionally split X1|X2) — and considers every
pipeline formed by placing registers between them (Section 5.4).  With
the single-cycle TDX that yields eight partitions; crossed with the two
optional hazard optimizations (+P predicate prediction, +Q effective
queue status) the paper's 32 microarchitectures fall out of
:func:`all_configs`.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace
from functools import cached_property

from repro.errors import ConfigError


class QueuePolicy(enum.Enum):
    """How the scheduler accounts for in-flight queue activity."""

    CONSERVATIVE = "conservative"   # pending dequeue => empty; pending enqueue => full
    EFFECTIVE = "effective"         # the paper's +Q accounting (Section 5.3)
    PADDED = "padded"               # WaveScalar-style reject buffer on outputs


ALL_PARTITIONS: tuple[tuple[tuple[str, ...], ...], ...] = (
    (("T", "D", "X"),),
    (("T", "D"), ("X",)),
    (("T",), ("D", "X")),
    (("T", "D", "X1"), ("X2",)),
    (("T", "D"), ("X1",), ("X2",)),
    (("T",), ("D", "X1"), ("X2",)),
    (("T",), ("D",), ("X",)),
    (("T",), ("D",), ("X1",), ("X2",)),
)
"""All eight stage partitions, single-cycle TDX first."""

PIPELINED_PARTITIONS = ALL_PARTITIONS[1:]
"""The seven pipelined designs of Figure 5."""


def partition_name(stages: tuple[tuple[str, ...], ...]) -> str:
    return "|".join("".join(stage) for stage in stages)


@dataclass(frozen=True)
class PipelineConfig:
    """One microarchitecture: a stage partition plus feature flags."""

    stages: tuple[tuple[str, ...], ...]
    predicate_prediction: bool = False          # +P
    queue_policy: QueuePolicy = QueuePolicy.CONSERVATIVE
    speculative_depth: int = 1
    """Maximum simultaneous unresolved predicate speculations.  The paper's
    scheme is non-nested (depth 1); Section 6 floats nested speculation as
    an extension, modeled here by raising this knob."""

    def __post_init__(self) -> None:
        phases = [phase for stage in self.stages for phase in stage]
        if phases not in (["T", "D", "X"], ["T", "D", "X1", "X2"]):
            raise ConfigError(
                f"stages must partition T,D,X or T,D,X1,X2 in order; got {phases}"
            )
        if self.speculative_depth < 1:
            raise ConfigError("speculative_depth must be at least 1")

    # ------------------------------------------------------------------
    # Derived shape: a config is frozen, so each value below is computed
    # once per config object, on first read.

    @cached_property
    def depth(self) -> int:
        return len(self.stages)

    @cached_property
    def split_alu(self) -> bool:
        return any("X1" in stage for stage in self.stages)

    @cached_property
    def partition(self) -> str:
        return partition_name(self.stages)

    @cached_property
    def effective_queue_status(self) -> bool:
        return self.queue_policy is QueuePolicy.EFFECTIVE

    @cached_property
    def name(self) -> str:
        """Paper-style name, e.g. ``"T|DX1|X2 +P+Q"``."""
        suffix = ""
        if self.predicate_prediction:
            suffix += "+P"
        if self.queue_policy is QueuePolicy.EFFECTIVE:
            suffix += "+Q"
        elif self.queue_policy is QueuePolicy.PADDED:
            suffix += "+pad"
        return f"{self.partition} {suffix}".strip()

    def stage_of(self, phase: str) -> int:
        for index, stage in enumerate(self.stages):
            if phase in stage:
                return index
        raise ConfigError(f"no stage contains phase {phase!r}")

    @property
    def trigger_stage(self) -> int:
        return 0

    @cached_property
    def decode_stage(self) -> int:
        return self.stage_of("D")

    @cached_property
    def early_result_stage(self) -> int:
        """Stage whose end produces single-stage ALU results."""
        return self.stage_of("X1") if self.split_alu else self.stage_of("X")

    @cached_property
    def late_result_stage(self) -> int:
        """Stage whose end produces multi-stage (multiply, load) results."""
        return self.stage_of("X2") if self.split_alu else self.stage_of("X")

    def result_stage(self, late: bool) -> int:
        return self.late_result_stage if late else self.early_result_stage

    def with_options(self, **kwargs) -> "PipelineConfig":
        return replace(self, **kwargs)


def all_configs(include_padded: bool = False) -> list[PipelineConfig]:
    """The paper's design matrix: 8 partitions x {base, +P, +Q, +P+Q}.

    32 microarchitectures (Section 3); ``include_padded`` appends the
    reject-buffer alternative used in the Section 5.4 comparison.
    """
    configs = []
    policies = [QueuePolicy.CONSERVATIVE, QueuePolicy.EFFECTIVE]
    if include_padded:
        policies.append(QueuePolicy.PADDED)
    for stages, prediction, policy in itertools.product(
        ALL_PARTITIONS, (False, True), policies
    ):
        configs.append(
            PipelineConfig(
                stages=stages,
                predicate_prediction=prediction,
                queue_policy=policy,
            )
        )
    return configs


SINGLE_CYCLE = PipelineConfig(stages=ALL_PARTITIONS[0])
"""The TDX baseline of Section 4."""


_BY_NAME = {config.name: config for config in all_configs(include_padded=True)}


def config_by_name(name: str) -> PipelineConfig:
    """The config named like ``"T|DX1|X2 +P+Q"``.

    The name must be a config's :attr:`~PipelineConfig.name`, up to
    whitespace; anything else raises :class:`ConfigError`.
    """
    config = _BY_NAME.get(" ".join(name.split()))
    if config is None:
        raise ConfigError(f"unknown pipeline config name {name!r}")
    return config
