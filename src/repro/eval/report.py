"""Render every exhibit into one text report (feeds EXPERIMENTS.md)."""

from __future__ import annotations

from repro.dse.cpi import FUNCTIONAL, CpiTable
from repro.dse.design_point import DesignPoint
from repro.dse.pareto import DELAY_ENERGY
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
from repro.pipeline.config import all_configs


def frontier_order(points: list[DesignPoint]) -> list[DesignPoint]:
    """``points`` stable-sorted by (delay, energy), the order in which
    :func:`repro.dse.pareto.pareto_frontier` walks them.

    Every frontier of Figures 6-8 taken over a subsequence of the result
    then sorts an already-ordered list in one pass, and tied points keep
    their order in ``points``, so each frontier is the one ``points``
    itself gives.
    """
    return sorted(points, key=DELAY_ENERGY)


def report_models() -> list:
    """The 32 configs of the sweep and :data:`FUNCTIONAL` (Table 3)."""
    return [*all_configs(), FUNCTIONAL]


def full_report(scale: int = 24, cache_path: str | None = None) -> str:
    """Regenerate every table and figure from one CPI table and one sweep.

    The table is filled by one campaign over every model the exhibits
    read (:func:`report_models`).  Cold, each model's suite is simulated
    once (minutes); on a warm ``cache_path`` store nothing is simulated.
    """
    cpi_table = CpiTable(scale=scale, cache_path=cache_path)
    cpi_table.populate(report_models())
    # One sort serves all eleven Pareto frontiers of Figures 6-8.
    points = frontier_order(sweep(cpi_table=cpi_table))
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
