"""Static-bound pruning for the design-space sweep.

The sweep's cost is the CPI campaign: every microarchitecture pays a
full ten-workload simulation before any of its (VT, VDD, f) points can
be placed on the energy-delay plane.  At the ROADMAP's 10^5-10^6 point
scale that is the budget.  This module skips the campaign for configs
that provably cannot contribute to the Pareto frontier, using the
static CPI lower bounds of :mod:`repro.analyze.perf`.

Soundness argument (why no frontier member is ever dropped):

* both sweep metrics are strictly increasing in CPI at a fixed
  synthesis point — ``delay = cpi / f`` and ``energy = power * cpi / f``
  — so projecting a point with a CPI **lower bound** yields an
  *optimistic* (delay, energy) pair, component-wise <= the true pair;
* a candidate point is pruned only when some **already-measured, kept**
  point is <= its optimistic projection on both axes and strictly below
  on at least one.  Chaining ``measured <= projection <= true`` (with
  the strict axis staying strict), the kept point strictly dominates
  the candidate's *true* metrics;
* :func:`repro.dse.pareto.pareto_frontier` never admits a point that
  some other point in the set strictly dominates, so the pruned point
  could not have been a frontier member — and its dominator remains in
  the returned set.

Configs are evaluated in ascending order of their static lower bound:
the likely-fastest microarchitectures are measured first, so their real
points dominate away as much of the remaining space as possible before
it is ever simulated.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from repro.params import ArchParams, DEFAULT_PARAMS
from repro.pipeline.config import PipelineConfig

log = logging.getLogger("repro.dse.prune")

#: No program retires more than one instruction per cycle, so 1.0 is a
#: universal CPI floor — the projection for configs the oracle has no
#: bound for (still sound, never helpful).
_UNIVERSAL_FLOOR = 1.0


@dataclass
class PruneStats:
    """Pruned/evaluated accounting for one oracle's lifetime."""

    configs_total: int = 0
    configs_pruned: int = 0
    points_total: int = 0
    points_pruned: int = 0

    @property
    def configs_evaluated(self) -> int:
        return self.configs_total - self.configs_pruned

    @property
    def points_evaluated(self) -> int:
        return self.points_total - self.points_pruned

    @property
    def point_rate(self) -> float:
        """Fraction of candidate points pruned."""
        return self.points_pruned / self.points_total if self.points_total \
            else 0.0

    def as_dict(self) -> dict:
        return {
            "configs_total": self.configs_total,
            "configs_pruned": self.configs_pruned,
            "configs_evaluated": self.configs_evaluated,
            "points_total": self.points_total,
            "points_pruned": self.points_pruned,
            "points_evaluated": self.points_evaluated,
            "point_rate": round(self.point_rate, 4),
        }


class PruneOracle:
    """Per-config static CPI lower bounds, packaged for ``sweep(prune=)``.

    ``lower_bounds`` maps config names to proved workload-average CPI
    floors (:func:`repro.analyze.perf.config_lower_bounds` produces
    exactly this).  ``batch`` controls how many surviving configs are
    simulated per :meth:`~repro.dse.cpi.CpiTable.populate` call — larger
    batches parallelize better, smaller ones prune harder because each
    batch's measured points cut down the next.
    """

    def __init__(self, lower_bounds: dict[str, float],
                 batch: int = 8) -> None:
        self.lower_bounds = dict(lower_bounds)
        self.batch = max(1, batch)
        self.stats = PruneStats()

    def lower_bound(self, config: PipelineConfig) -> float:
        return self.lower_bounds.get(config.name, _UNIVERSAL_FLOOR)

    @classmethod
    def from_workloads(
        cls,
        configs: list[PipelineConfig],
        params: ArchParams = DEFAULT_PARAMS,
        workloads: list[str] | None = None,
        scale: int = 8,
        seed: int = 0,
        batch: int = 8,
    ) -> "PruneOracle":
        """Build the oracle by static analysis — no simulation."""
        from repro.analyze.perf import config_lower_bounds

        return cls(
            config_lower_bounds(configs, params, workloads=workloads,
                                scale=scale, seed=seed),
            batch=batch,
        )


def _projection(synthesis, lower: float) -> tuple[float, float]:
    """Optimistic (delay ns, energy pJ) for one synthesis point at the
    config's CPI lower bound — the same formulas as
    :class:`~repro.dse.design_point.DesignPoint` with CPI replaced by
    its floor."""
    per_instruction = lower / synthesis.f_target_hz
    return per_instruction * 1e9, synthesis.power_w * per_instruction * 1e12


def _dominated(delay: float, energy: float,
               measured: list[tuple[float, float]]) -> bool:
    return any(
        m_delay <= delay and m_energy <= energy
        and (m_delay < delay or m_energy < energy)
        for m_delay, m_energy in measured)


def pruned_sweep(
    configs: list[PipelineConfig],
    cpi_table,
    oracle: PruneOracle,
    tech=None,
    include_fmax_points: bool = True,
    service=None,
):
    """The ``sweep(prune=...)`` evaluation loop.

    Points arrive in ascending-static-lower-bound config order (not the
    caller's order — documented on :func:`repro.dse.sweep.sweep`).  The
    CPI campaign for each batch of surviving configs goes through
    ``cpi_table.populate`` unchanged, so the ``service=`` path and the
    table's store compose with pruning.
    """
    from repro.dse.design_point import DesignPoint
    from repro.dse.sweep import close_grid
    from repro.vlsi.technology import TECH65

    tech = TECH65 if tech is None else tech
    stats = oracle.stats
    stats.configs_total += len(configs)
    ordered = sorted(configs, key=oracle.lower_bound)
    measured: list[tuple[float, float]] = []
    points: list[DesignPoint] = []
    for start in range(0, len(ordered), oracle.batch):
        batch = ordered[start:start + oracle.batch]
        survivors = []
        for config in batch:
            lower = oracle.lower_bound(config)
            grid = close_grid(config, tech, include_fmax_points)
            stats.points_total += len(grid)
            alive = any(
                not _dominated(*_projection(s, lower), measured)
                for s in grid
            )
            if not alive:
                stats.configs_pruned += 1
                stats.points_pruned += len(grid)
                log.info(
                    "pruned config %s: all %d grid points dominated at "
                    "static CPI floor %.3f", config.name, len(grid), lower)
                continue
            survivors.append((config, lower, grid))
        if not survivors:
            continue
        cpi_table.populate([config for config, _, _ in survivors],
                           service=service)
        for config, lower, grid in survivors:
            cpi = cpi_table.cpi(config)
            kept = 0
            for synthesis in grid:
                if _dominated(*_projection(synthesis, lower), measured):
                    stats.points_pruned += 1
                    continue
                point = DesignPoint(synthesis=synthesis, cpi=cpi)
                points.append(point)
                measured.append(
                    (point.ns_per_instruction, point.pj_per_instruction))
                kept += 1
            log.info("evaluated config %s: kept %d of %d points "
                     "(measured CPI %.3f, static floor %.3f)",
                     config.name, kept, len(grid), cpi, lower)
    log.info(
        "prune summary: %d of %d configs pruned, %d of %d points pruned "
        "(%.1f%%)", stats.configs_pruned, stats.configs_total,
        stats.points_pruned, stats.points_total, 100 * stats.point_rate)
    return points
