"""Rectangular PE arrays with nearest-neighbor channels.

The paper's FPGA prototype arranges PEs in small spatial arrays (up to
4x4 on the Zynq part) connected by point-to-point tagged channels.  This
module builds that topology: each PE dedicates one input and one output
queue per direction (N, E, S, W), neighbors share channels, and edge
queues remain free for memory ports or host I/O.

Direction-to-queue convention (both for inputs and outputs)::

    NORTH = queue 0      EAST = queue 1      SOUTH = queue 2      WEST = queue 3

so ``pe.outputs[EAST]`` of (r, c) is the same queue object as
``pe.inputs[WEST]`` of (r, c + 1).
"""

from __future__ import annotations

import enum
from typing import Callable

from repro.errors import ConfigError
from repro.fabric.system import System


class Direction(enum.IntEnum):
    NORTH = 0
    EAST = 1
    SOUTH = 2
    WEST = 3

    @property
    def opposite(self) -> "Direction":
        return Direction((self + 2) % 4)


class PEArray:
    """A rows x cols mesh of PEs inside a :class:`System`."""

    def __init__(
        self,
        system: System,
        rows: int,
        cols: int,
        make_pe: Callable[[str], object],
        name: str = "pe",
    ) -> None:
        if rows < 1 or cols < 1:
            raise ConfigError("array dimensions must be at least 1x1")
        self.system = system
        self.rows = rows
        self.cols = cols
        self._grid = []
        for r in range(rows):
            row = []
            for c in range(cols):
                pe = make_pe(f"{name}_{r}_{c}")
                if len(pe.inputs) < 4 or len(pe.outputs) < 4:
                    raise ConfigError(
                        "mesh wiring needs at least four input and output queues"
                    )
                system.add_pe(pe)
                row.append(pe)
            self._grid.append(row)
        self._wire_mesh()

    def _wire_mesh(self) -> None:
        for r in range(self.rows):
            for c in range(self.cols):
                if c + 1 < self.cols:   # east-west pair
                    self.system.connect(
                        self._grid[r][c], Direction.EAST,
                        self._grid[r][c + 1], Direction.WEST,
                    )
                    self.system.connect(
                        self._grid[r][c + 1], Direction.WEST,
                        self._grid[r][c], Direction.EAST,
                    )
                if r + 1 < self.rows:   # north-south pair
                    self.system.connect(
                        self._grid[r][c], Direction.SOUTH,
                        self._grid[r + 1][c], Direction.NORTH,
                    )
                    self.system.connect(
                        self._grid[r + 1][c], Direction.NORTH,
                        self._grid[r][c], Direction.SOUTH,
                    )

    # ------------------------------------------------------------------

    def pe(self, row: int, col: int):
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ConfigError(f"({row}, {col}) outside the {self.rows}x{self.cols} array")
        return self._grid[row][col]

    def __iter__(self):
        for row in self._grid:
            yield from row

    def is_edge_direction(self, row: int, col: int, direction: Direction) -> bool:
        """Whether a direction points off the array (queue free for I/O)."""
        self.pe(row, col)
        return (
            (direction is Direction.NORTH and row == 0)
            or (direction is Direction.SOUTH and row == self.rows - 1)
            or (direction is Direction.WEST and col == 0)
            or (direction is Direction.EAST and col == self.cols - 1)
        )

    def attach_read_port(self, row: int, col: int, direction: Direction):
        """Turn an edge PE's free direction into a memory load endpoint.

        Requests leave on the direction's output queue; responses arrive
        on the same direction's input queue.
        """
        if not self.is_edge_direction(row, col, direction):
            raise ConfigError(
                f"({row}, {col}) {direction.name} faces a neighbor, not the edge"
            )
        return self.system.add_read_port(
            self.pe(row, col), request_out=int(direction), response_in=int(direction)
        )
