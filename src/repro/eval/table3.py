"""Table 3: the ten PE-centric microbenchmarks, run and validated.

The numbers are the functional model's suite record
(:data:`repro.dse.cpi.FUNCTIONAL` in the report's
:class:`~repro.dse.cpi.CpiTable`), stored like any config's, so a warm
re-run reads them instead of simulating.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dse.cpi import FUNCTIONAL, CpiTable
from repro.workloads.suite import get_workload


@dataclass(frozen=True)
class WorkloadReport:
    name: str
    description: str
    pe_count: int
    cycles: int
    worker_retired: int
    worker_cpi: float
    validated: bool


def compute(cpi_table: CpiTable) -> list[WorkloadReport]:
    """Every workload on the functional model at the table's scale."""
    reports = []
    for kernel in cpi_table.kernels(FUNCTIONAL):
        workload = get_workload(kernel.workload)
        reports.append(
            WorkloadReport(
                name=kernel.workload,
                description=workload.description,
                pe_count=workload.pe_count,
                cycles=kernel.cycles,
                worker_retired=kernel.retired,
                worker_cpi=kernel.cpi,
                # A record is stored only after every golden check passed.
                validated=True,
            )
        )
    return reports


def render(cpi_table: CpiTable) -> str:
    lines = ["Table 3: microbenchmark suite (functional model)", ""]
    lines.append(f"{'benchmark':14s} {'PEs':>3s} {'cycles':>8s} {'retired':>8s} {'CPI':>6s}  ok")
    for report in compute(cpi_table):
        lines.append(
            f"{report.name:14s} {report.pe_count:3d} {report.cycles:8d} "
            f"{report.worker_retired:8d} {report.worker_cpi:6.2f}  {report.validated}"
        )
    return "\n".join(lines)
