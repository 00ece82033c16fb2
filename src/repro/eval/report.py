"""Render every exhibit into one text report (feeds EXPERIMENTS.md)."""

from __future__ import annotations

from repro.dse.cpi import CpiTable
from repro.dse.sweep import sweep
from repro.eval import (
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    overheads,
    table1,
    table2,
    table3,
)


def full_report(scale: int = 24, cache_path: str | None = None) -> str:
    """Regenerate every table and figure from one CPI table and one sweep.

    Cold, each model's suite is simulated once (minutes); on a warm
    ``cache_path`` store nothing is simulated.
    """
    cpi_table = CpiTable(scale=scale, cache_path=cache_path)
    points = sweep(cpi_table=cpi_table)
    sections = [
        table1.render(),
        table2.render(),
        table3.render(cpi_table),
        figure3.render(),
        figure4.render(cpi_table),
        figure5.render(cpi_table),
        figure6.render(points),
        figure7.render(points),
        figure8.render(points),
        overheads.render(),
    ]
    separator = "\n\n" + "=" * 72 + "\n\n"
    return separator.join(sections)


def main() -> None:
    print(full_report())


if __name__ == "__main__":
    main()
