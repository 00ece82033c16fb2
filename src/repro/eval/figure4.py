"""Figure 4: datapath predicate write frequency and prediction accuracy.

Paper shape: dot_product writes no predicates at all; filter and merge
sit near 50% accuracy (high-entropy data-dependent control); gcd, stream
and mean approach perfect accuracy (long predictable loops); bst and
udiv land in between (unpredictable branches nested inside predictable
loops).  Average dynamic predicate-write rate is about 20%.

The rates and accuracies are read from the report's
:class:`~repro.dse.cpi.CpiTable` record of :data:`DEFAULT_CONFIG`, the
same campaign that feeds that config's CPI, so they cost no simulation
of their own.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dse.cpi import CpiTable
from repro.pipeline.config import config_by_name

DEFAULT_CONFIG = "T|D|X1|X2 +P+Q"


@dataclass(frozen=True)
class PredictionReport:
    name: str
    predicate_write_rate: float
    accuracy: float | None     # None when the worker never writes predicates


def compute(cpi_table: CpiTable,
            config_name: str = DEFAULT_CONFIG) -> list[PredictionReport]:
    """One row per Table 3 kernel, from the config's suite record."""
    return [
        PredictionReport(
            name=kernel.workload,
            predicate_write_rate=kernel.predicate_write_rate,
            accuracy=kernel.accuracy,
        )
        for kernel in cpi_table.kernels(config_by_name(config_name))
    ]


def render(cpi_table: CpiTable) -> str:
    lines = [
        f"Figure 4: predicate write frequency and prediction accuracy "
        f"({DEFAULT_CONFIG} worker PE)",
        "",
        f"{'benchmark':14s} {'write rate':>10s} {'accuracy':>9s}",
    ]
    reports = compute(cpi_table)
    for report in reports:
        accuracy = "n/a" if report.accuracy is None else f"{report.accuracy:8.0%}"
        lines.append(
            f"{report.name:14s} {report.predicate_write_rate:9.0%} {accuracy:>9s}"
        )
    rates = [r.predicate_write_rate for r in reports]
    lines.append("")
    lines.append(f"average write rate: {sum(rates) / len(rates):.0%} (paper: ~20%)")
    return "\n".join(lines)
