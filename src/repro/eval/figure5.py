"""Figure 5: CPI stacks of the seven pipelines x {base, +P, +P+Q}.

Paper shape claims, all checked by the benches:

* predicate-hazard CPI is identical for pipelines of the same depth and
  grows superlinearly with depth (0.18 / 0.24 / 0.27 in the paper);
* predicate prediction (+P) removes predicate hazards almost entirely,
  with virtually no quashed instructions, at the cost of a
  forbidden-instruction component that grows with pipeline depth;
* queue-status accounting (+Q) pulls the no-triggered-instruction
  component back toward the single-cycle constant;
* together the optimizations cut 4-stage CPI by ~35%.
"""

from __future__ import annotations

from repro.dse.cpi import CpiTable
from repro.pipeline.config import (
    ALL_PARTITIONS,
    PipelineConfig,
    QueuePolicy,
    partition_name,
)

VARIANTS = ("base", "+P", "+P+Q")

STACK_KEYS = (
    "retired",
    "quashed",
    "predicate_hazard",
    "data_hazard",
    "forbidden",
    "none_triggered",
)


def _variant(stages, variant: str) -> PipelineConfig:
    return PipelineConfig(
        stages=stages,
        predicate_prediction=variant in ("+P", "+P+Q"),
        queue_policy=QueuePolicy.EFFECTIVE if variant == "+P+Q" else QueuePolicy.CONSERVATIVE,
    )


def compute(cpi_table: CpiTable | None = None) -> dict[str, dict[str, dict[str, float]]]:
    """{partition: {variant: stack}} over all eight partitions."""
    if cpi_table is None:
        cpi_table = CpiTable()
    stacks: dict[str, dict[str, dict[str, float]]] = {}
    for stages in ALL_PARTITIONS:
        name = partition_name(stages)
        stacks[name] = {}
        variants = ("base",) if name == "TDX" else VARIANTS
        for variant in variants:
            stacks[name][variant] = cpi_table.stack(_variant(stages, variant))
    return stacks


def render(cpi_table: CpiTable | None = None) -> str:
    stacks = compute(cpi_table)
    lines = [
        "Figure 5: CPI stacks (average worker behavior over ten workloads)",
        "",
        f"{'design':22s} {'CPI':>6s} {'ret':>5s} {'qsh':>5s} {'pred':>5s} "
        f"{'data':>5s} {'forb':>5s} {'none':>5s}",
    ]
    for partition, variants in stacks.items():
        for variant, stack in variants.items():
            label = partition if variant == "base" else f"{partition} {variant}"
            cpi = sum(stack[key] for key in STACK_KEYS)
            lines.append(
                f"{label:22s} {cpi:6.2f} {stack['retired']:5.2f} "
                f"{stack['quashed']:5.2f} {stack['predicate_hazard']:5.2f} "
                f"{stack['data_hazard']:5.2f} {stack['forbidden']:5.2f} "
                f"{stack['none_triggered']:5.2f}"
            )
    return "\n".join(lines)


def four_stage_improvement(cpi_table: CpiTable | None = None) -> float:
    """Fractional CPI reduction of T|D|X1|X2 from both optimizations.

    The paper reports 35%.
    """
    if cpi_table is None:
        cpi_table = CpiTable()
    stages = ALL_PARTITIONS[-1]
    base = cpi_table.cpi(_variant(stages, "base"))
    optimized = cpi_table.cpi(_variant(stages, "+P+Q"))
    return (base - optimized) / base
