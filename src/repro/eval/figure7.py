"""Figure 7: benefit of +P and +Q at the balanced region of the frontier.

The paper reports that enabling both optimizations improves the frontier
by 20-25% in both energy and delay near the origin of the energy-delay
tradeoff, with +Q alone best at the extreme high-performance end.

We quantify the improvement with the hypervolume-style measure natural
to this plot: for matched delays in the balanced region, the energy of
the feature frontier relative to the baseline frontier (and vice versa).

Each feature set's frontier is taken over its configs' points in the
report's full sweep, as Figures 6 and 8 take theirs, so no grid is
closed twice.  The subset keeps the sweep's config-major order.
"""

from __future__ import annotations

from repro.dse.design_point import DesignPoint
from repro.dse.pareto import pareto_frontier
from repro.pipeline.config import PIPELINED_PARTITIONS, PipelineConfig, QueuePolicy

FEATURE_SETS = {
    "none": (False, QueuePolicy.CONSERVATIVE),
    "+P": (True, QueuePolicy.CONSERVATIVE),
    "+Q": (False, QueuePolicy.EFFECTIVE),
    "+P+Q": (True, QueuePolicy.EFFECTIVE),
}


def _configs(feature: str) -> list[PipelineConfig]:
    """The seven pipelined partitions under one feature setting.

    The single-cycle TDX has no pipeline to optimize and is identical in
    every feature set, so it is excluded — the comparison isolates what
    the optimizations buy a pipelined design.
    """
    prediction, policy = FEATURE_SETS[feature]
    return [
        PipelineConfig(stages=stages, predicate_prediction=prediction,
                       queue_policy=policy)
        for stages in PIPELINED_PARTITIONS
    ]


def _frontier_energy_at(frontier: list[DesignPoint], delay_ns: float) -> float | None:
    """Lowest energy achievable at or below a delay target."""
    feasible = [p for p in frontier if p.ns_per_instruction <= delay_ns]
    if not feasible:
        return None
    return min(p.pj_per_instruction for p in feasible)


def compute(points: list[DesignPoint],
            balanced_delays_ns: tuple[float, ...] = (2.0, 3.0, 4.0, 6.0, 8.0)) -> dict:
    """Per-feature frontiers over ``points`` and their balanced-region gains."""
    frontiers = {}
    for feature in FEATURE_SETS:
        names = {config.name for config in _configs(feature)}
        frontiers[feature] = pareto_frontier(
            [point for point in points if point.config_name in names])

    improvements = {}
    for feature in ("+P", "+Q", "+P+Q"):
        ratios = []
        for delay in balanced_delays_ns:
            base = _frontier_energy_at(frontiers["none"], delay)
            opt = _frontier_energy_at(frontiers[feature], delay)
            if base is not None and opt is not None:
                ratios.append(1.0 - opt / base)
        improvements[feature] = sum(ratios) / len(ratios) if ratios else None
    return {"frontiers": frontiers, "improvements": improvements}


def render(points: list[DesignPoint]) -> str:
    data = compute(points)
    lines = [
        "Figure 7: frontier benefit of the pipeline optimizations "
        "(balanced region)",
        "",
    ]
    for feature, frontier in data["frontiers"].items():
        fastest = frontier[0]
        lines.append(
            f"{feature:5s} frontier: {len(frontier):2d} points, fastest "
            f"{fastest.ns_per_instruction:5.2f} ns ({fastest.config_name})"
        )
    lines.append("")
    for feature, improvement in data["improvements"].items():
        shown = "n/a" if improvement is None else f"{improvement:.0%}"
        lines.append(
            f"energy improvement at matched balanced delays, {feature:5s}: {shown}"
        )
    lines.append("(paper: +P+Q improves the balanced frontier 20-25% in energy and delay)")
    return "\n".join(lines)
