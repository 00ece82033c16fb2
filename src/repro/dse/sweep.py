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

import functools

from repro.dse.cpi import CpiTable
from repro.dse.design_point import DesignPoint
from repro.pipeline.config import PipelineConfig, all_configs
from repro.vlsi.synthesis import (
    Corner,
    close_point,
    config_constants,
    corner,
    corner_fmax,
    target_terms,
)
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


@functools.cache
def corner_table(
    tech: Technology,
) -> tuple[tuple[Corner, tuple[tuple[float, float, float], ...]], ...]:
    """Every characterized (VT, VDD) corner of ``tech``, each with its
    grid targets' ``(f, sizing, area growth)``, in sweep order.

    None of it depends on the design, so it is derived once per
    technology (13 corners, 228 targets) and shared by every
    :func:`close_grid` call; the frozen ``tech`` is the cache key.
    """
    return tuple(
        (corner(vdd, vt, tech),
         tuple((f, *target_terms(f)) for f in frequency_grid(vt, vdd)))
        for vt in VtFlavor
        for vdd in voltage_grid(vt)
    )


def close_grid(config: PipelineConfig):
    """Close one config's (VT, VDD, f) synthesis grid at ``TECH65``,
    with each corner's f_max point — no CPI needed.

    Synthesis depends only on the microarchitecture and the electrical
    corner, so the grid can be closed before (or without) the expensive
    CPI campaign.

    Each point equals what :func:`repro.vlsi.synthesis.synthesize`
    returns for it, but what only the config fixes (critical path,
    capacitance, base area) is derived once per call, f_max once per
    corner, and what only the corner and target fix once per
    technology (:func:`corner_table`).  Only the targets at or below
    the corner's f_max, the ones ``synthesize`` can close, are closed.
    """
    constants = config_constants(config)
    results = []
    for at, targets in corner_table(TECH65):
        ceiling = corner_fmax(constants.critical_fo4, at)
        results += [close_point(constants, at, f, size, growth, ceiling)
                    for f, size, growth in targets if f <= ceiling]
        results.append(close_point(constants, at, ceiling,
                                   *target_terms(ceiling), ceiling))
    return results


def sweep(
    configs: list[PipelineConfig] | None = None,
    cpi_table: CpiTable | None = None,
) -> list[DesignPoint]:
    """Close every feasible design point in the characterized space.

    The per-config CPI campaign runs through ``cpi_table.populate``
    (``suite-run`` tasks on the campaign service); the synthesis grids
    are then closed in-process by :func:`close_grid`, config-major, so
    the returned point list is identical however the campaign ran.  To
    run the campaign on a long-lived service, populate the table on it
    first (``cpi_table.populate(configs, service=client)``); the
    sweep's own ``populate`` then finds nothing missing.
    """
    if configs is None:
        configs = all_configs()
    if cpi_table is None:
        cpi_table = CpiTable()
    cpi_table.populate(configs)
    points: list[DesignPoint] = []
    for config in configs:
        cpi = cpi_table.cpi(config)
        points += [DesignPoint(result, cpi) for result in close_grid(config)]
    return points
