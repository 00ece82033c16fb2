"""Workload framework.

Each of the ten Table 3 microbenchmarks is a :class:`Workload`: it builds
a :class:`~repro.fabric.system.System` of one or more programmed PEs plus
memory ports, declares which PE is the designated *worker* (the paper
reads performance counters from the worker only), and checks the final
memory/architectural state against a pure-Python golden model.

Workloads are microarchitecture-agnostic: ``build`` receives a PE factory
so the same program runs on the functional model or on any of the eight
pipeline configurations.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable

from repro.arch.functional import FunctionalPE
from repro.fabric.system import System
from repro.params import ArchParams, DEFAULT_PARAMS

PEFactory = Callable[[str], object]
"""Makes a PE given its name; defaults to :class:`FunctionalPE`."""


@dataclass
class WorkloadRun:
    """Outcome of one workload execution."""

    name: str
    cycles: int
    worker_name: str
    worker_counters: object
    system: System

    @property
    def worker_cpi(self) -> float:
        return self.worker_counters.cpi


class Workload(abc.ABC):
    """One Table 3 microbenchmark."""

    name: str = ""
    description: str = ""
    pe_count: int = 1
    worker_name: str = "worker"
    default_scale: int = 64   # elements processed; tests shrink, benches grow

    def __init__(self, params: ArchParams = DEFAULT_PARAMS) -> None:
        self.params = params

    @abc.abstractmethod
    def build(self, make_pe: PEFactory, scale: int, seed: int) -> System:
        """Construct and program the system (PEs, wiring, memory preload)."""

    @abc.abstractmethod
    def check(self, system: System, scale: int, seed: int) -> None:
        """Validate final state against the golden model (raises on mismatch)."""

    # ------------------------------------------------------------------

    def default_pe_factory(self) -> PEFactory:
        return lambda name: FunctionalPE(self.params, name=name)

    def run(
        self,
        make_pe: PEFactory | None = None,
        scale: int | None = None,
        seed: int = 0,
        max_cycles: int = 4_000_000,
        telemetry=None,
    ) -> WorkloadRun:
        """Build, execute to completion, validate, and report.

        A ``telemetry`` sink (:class:`repro.obs.events.Telemetry`) is
        attached after ``build``, once wiring has replaced the queues.
        """
        if make_pe is None:
            make_pe = self.default_pe_factory()
        if scale is None:
            scale = self.default_scale
        system = self.build(make_pe, scale, seed)
        if telemetry is not None:
            telemetry.attach_system(system)
        cycles = system.run(max_cycles=max_cycles)
        self.check(system, scale, seed)
        worker = system.pe(self.worker_name)
        return WorkloadRun(
            name=self.name,
            cycles=cycles,
            worker_name=self.worker_name,
            worker_counters=worker.counters,
            system=system,
        )
