"""Design-space exploration: the paper's >4,000-point energy-delay study."""

from repro.dse.design_point import DesignPoint
from repro.dse.cpi import CpiTable
from repro.dse.sweep import close_grid, sweep, voltage_grid, frequency_grid
from repro.dse.pareto import pareto_frontier

__all__ = [
    "DesignPoint",
    "CpiTable",
    "close_grid",
    "sweep",
    "voltage_grid",
    "frequency_grid",
    "pareto_frontier",
]
