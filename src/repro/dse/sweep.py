"""The Section 3 design-space sweep.

Characterization grids (paper Section 3):

* standard-VT cells at 0.6 / 0.7 / 0.8 / 0.9 / 1.0 V;
* low- and high-VT cells at 0.4 / 0.6 / 0.8 / 1.0 V;
* target frequencies 100 MHz - 1.5 GHz at 100 MHz granularity,
  refined to 50 MHz steps up through 500 MHz in near-threshold regimes,
  plus 10 MHz steps through 100 MHz for subthreshold high-VT corners;
* each microarchitecture's exact f_max at each (V, VT) is also closed,
  which is how points like "TDX1|X2 at 1157 MHz" enter the space.

Crossed with the 32 microarchitectures this yields the paper's >4,000
closed design points.
"""

from __future__ import annotations

from repro.dse.cpi import CpiTable
from repro.dse.design_point import DesignPoint
from repro.pipeline.config import PipelineConfig, all_configs
from repro.vlsi.synthesis import fmax, synthesize
from repro.vlsi.technology import TECH65, Technology, VtFlavor

_NEAR_THRESHOLD_VDD = 0.7    # refinement kicks in at and below this supply
_SUBTHRESHOLD_VDD = 0.45     # high-VT cells below their threshold voltage


def voltage_grid(vt: VtFlavor) -> list[float]:
    """Characterized supply voltages for one VT flavor."""
    if vt is VtFlavor.SVT:
        return [0.6, 0.7, 0.8, 0.9, 1.0]
    return [0.4, 0.6, 0.8, 1.0]


def frequency_grid(vt: VtFlavor, vdd: float) -> list[float]:
    """Characterized target frequencies (Hz) at one (VT, VDD) corner."""
    targets = {100e6 * step for step in range(1, 16)}       # 100 MHz - 1.5 GHz
    if vdd <= _NEAR_THRESHOLD_VDD:
        targets.update(50e6 * step for step in range(2, 11))  # 100-500 by 50
    if vt is VtFlavor.HVT and vdd <= _SUBTHRESHOLD_VDD:
        targets.update(10e6 * step for step in range(1, 11))  # 10-100 by 10
    return sorted(targets)


def close_grid(
    config: PipelineConfig,
    tech: Technology = TECH65,
    include_fmax_points: bool = True,
):
    """Close one config's (VT, VDD, f) synthesis grid — no CPI needed.

    Synthesis depends only on the microarchitecture and the electrical
    corner, so the grid can be closed before (or without) the expensive
    CPI campaign; :mod:`repro.dse.prune` exploits exactly that to
    project best-case metrics from static CPI lower bounds.

    Feasibility is decided once per (VT, VDD) corner: only the targets
    at or below the corner's f_max, the ones :func:`synthesize` can
    close, are synthesized.
    """
    results = []
    for vt in VtFlavor:
        for vdd in voltage_grid(vt):
            ceiling = fmax(config, vdd, vt, tech)
            targets = [f for f in frequency_grid(vt, vdd) if f <= ceiling]
            if include_fmax_points:
                targets.append(ceiling)
            results.extend(synthesize(config, vdd, vt, f_target, tech)
                           for f_target in targets)
    return results


def sweep(
    configs: list[PipelineConfig] | None = None,
    cpi_table: CpiTable | None = None,
    tech: Technology = TECH65,
    include_fmax_points: bool = True,
    service=None,
    prune=None,
) -> list[DesignPoint]:
    """Close every feasible design point in the characterized space.

    The per-config CPI campaign runs through ``cpi_table.populate``
    (``suite-run`` tasks on the campaign service); the synthesis grids
    are then closed in-process by :func:`close_grid`, config-major, so
    the returned point list is identical however the campaign ran.

    ``service`` (a :mod:`repro.serve` client) runs the CPI campaign on
    that service: results are unchanged, but identical work is deduped
    against its durable store and an interrupted sweep resumes from its
    completed configs.

    ``prune`` (a :class:`repro.dse.prune.PruneOracle`) short-circuits
    the CPI campaign for configs whose entire best-case grid — projected
    from the static CPI lower bound of :mod:`repro.analyze.perf` — is
    already dominated by measured points.  Pruned points are omitted
    from the returned list, but the Pareto frontier of the result is
    identical to the unpruned sweep's (see :mod:`repro.dse.prune` for
    the argument); pruned/evaluated counts land in ``prune.stats`` and
    the ``repro.dse.prune`` logger.
    """
    if configs is None:
        configs = all_configs()
    if cpi_table is None:
        cpi_table = CpiTable()
    if prune is not None:
        from repro.dse.prune import pruned_sweep

        return pruned_sweep(
            configs, cpi_table, prune, tech=tech,
            include_fmax_points=include_fmax_points, service=service,
        )
    cpi_table.populate(configs, service=service)
    points: list[DesignPoint] = []
    for config in configs:
        cpi = cpi_table.cpi(config)
        points.extend(
            DesignPoint(synthesis=result, cpi=cpi)
            for result in close_grid(config, tech, include_fmax_points)
        )
    return points
