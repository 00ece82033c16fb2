"""Pareto frontier extraction over the energy-delay plane."""

from __future__ import annotations

from operator import attrgetter
from typing import Sequence

from repro.dse.design_point import DesignPoint

#: The (delay, energy) sort key of every frontier walk.
DELAY_ENERGY = attrgetter("ns_per_instruction", "pj_per_instruction")


def pareto_frontier(points: Sequence[DesignPoint]) -> list[DesignPoint]:
    """Points not dominated in (pJ, ns) per instruction, sorted fastest
    first.

    A point dominates another when it is no worse on both axes and
    strictly better on at least one.
    """
    frontier: list[DesignPoint] = []
    best_energy = float("inf")
    for point in sorted(points, key=DELAY_ENERGY):
        energy = point.pj_per_instruction
        if energy < best_energy:
            frontier.append(point)
            best_energy = energy
    return frontier


def frontier_span(frontier: Sequence[DesignPoint]) -> dict[str, float]:
    """The energy and delay extremes and their ratios (the 71x / 225x claim)."""
    if not frontier:
        return {}
    energies = [p.pj_per_instruction for p in frontier]
    delays = [p.ns_per_instruction for p in frontier]
    return {
        "min_pj": min(energies),
        "max_pj": max(energies),
        "energy_span": max(energies) / min(energies),
        "min_ns": min(delays),
        "max_ns": max(delays),
        "delay_span": max(delays) / min(delays),
    }
