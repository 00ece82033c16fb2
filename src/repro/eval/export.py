"""CSV export of every exhibit's data (for external plotting).

``python -m repro.eval.export OUTDIR`` writes one CSV per exhibit:

* ``table1.csv``, ``table2.csv``, ``table3.csv``
* ``figure3_breakdown.csv``
* ``figure4_prediction.csv``
* ``figure5_cpi_stacks.csv``
* ``figure6_points.csv`` (the full design space, one row per point)
* ``figure8_frontier.csv``
"""

from __future__ import annotations

import csv
import os
import sys

from repro.dse.cpi import CpiTable
from repro.dse.pareto import pareto_frontier
from repro.dse.sweep import sweep
from repro.eval import figure3, figure4, figure5, table1, table2, table3


def _write(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def export_all(outdir: str, scale: int = 24,
               cache_path: str | None = None) -> list[str]:
    """Regenerate everything and write the CSVs; returns written paths."""
    os.makedirs(outdir, exist_ok=True)
    written = []
    cpi_table = CpiTable(scale=scale, cache_path=cache_path)
    points = sweep(cpi_table=cpi_table)

    def path(name: str) -> str:
        full = os.path.join(outdir, name)
        written.append(full)
        return full

    _write(path("table1.csv"), ["parameter", "description", "value"],
           [list(row) for row in table1.compute()])

    _write(path("table2.csv"), ["field", "bits"],
           [[name, bits] for name, bits in table2.compute().items()])

    _write(
        path("table3.csv"),
        ["benchmark", "pes", "cycles", "worker_retired", "worker_cpi"],
        [[r.name, r.pe_count, r.cycles, r.worker_retired,
          round(r.worker_cpi, 4)] for r in table3.compute(cpi_table)],
    )

    data = figure3.compute()
    _write(
        path("figure3_breakdown.csv"),
        ["component", "area_fraction", "power_fraction", "area_um2", "power_mw"],
        [[name, entry["area_fraction"], entry["power_fraction"],
          round(entry["area_um2"], 1), round(entry["power_mw"], 4)]
         for name, entry in data["components"].items()],
    )

    _write(
        path("figure4_prediction.csv"),
        ["benchmark", "predicate_write_rate", "prediction_accuracy"],
        [[r.name, round(r.predicate_write_rate, 4),
          "" if r.accuracy is None else round(r.accuracy, 4)]
         for r in figure4.compute(cpi_table)],
    )

    stacks = figure5.compute(cpi_table)
    rows = []
    for partition, variants in stacks.items():
        for variant, stack in variants.items():
            rows.append([partition, variant] +
                        [round(stack[key], 4) for key in figure5.STACK_KEYS])
    _write(
        path("figure5_cpi_stacks.csv"),
        ["partition", "variant"] + list(figure5.STACK_KEYS),
        rows,
    )

    columns = ["design", "vt", "vdd", "mhz", "ns_per_instruction",
               "pj_per_instruction", "mw", "mm2", "mw_per_mm2", "ed", "cpi"]
    _write(
        path("figure6_points.csv"), columns,
        [[point.row()[column] for column in columns] for point in points],
    )
    _write(
        path("figure8_frontier.csv"), columns,
        [[point.row()[column] for column in columns]
         for point in pareto_frontier(points)],
    )
    return written


def main() -> None:
    outdir = sys.argv[1] if len(sys.argv) > 1 else "exhibits"
    for written in export_all(outdir):
        print(f"wrote {written}")


if __name__ == "__main__":
    main()
