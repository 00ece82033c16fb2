#!/usr/bin/env python3
"""Design-space exploration: pick a PE for your power and delay budget.

Replays the paper's Section 5.4 methodology end to end: measure CPI for
a set of microarchitectures on the ten-workload suite (cycle-accurate
simulation), close every (VT, VDD, frequency) point in the 65 nm model,
extract the Pareto frontier, and answer the designer's question — which
PE should I instantiate for a given budget?

Run:  python examples/design_space.py [--full]

Without --full a representative six-microarchitecture subset keeps the
simulation campaign under a minute; --full sweeps the paper's complete
32-microarchitecture matrix.
"""

import sys

from repro import config_by_name
from repro.dse import CpiTable, pareto_frontier, sweep
from repro.dse.pareto import frontier_span
from repro.pipeline.config import all_configs

SUBSET = ["TDX", "TD|X", "TDX1|X2 +Q", "T|DX +P+Q", "T|D|X1|X2", "T|D|X1|X2 +P+Q"]


def pick(frontier, max_power_mw=None, max_delay_ns=None):
    """Lowest-energy frontier point satisfying the budgets."""
    feasible = [
        p for p in frontier
        if (max_power_mw is None or p.power_mw <= max_power_mw)
        and (max_delay_ns is None or p.ns_per_instruction <= max_delay_ns)
    ]
    if not feasible:
        return None
    return min(feasible, key=lambda p: p.pj_per_instruction)


def main() -> None:
    full = "--full" in sys.argv
    configs = all_configs() if full else [config_by_name(n) for n in SUBSET]
    print(f"measuring CPI for {len(configs)} microarchitectures on the "
          f"ten-workload suite (cycle-accurate)...")
    table = CpiTable(scale=24, cache_path=".dse_cpi_cache.sqlite")
    points = sweep(configs=configs, cpi_table=table)
    frontier = pareto_frontier(points)
    assert frontier, "no design point closed"
    assert not any(
        q.ns_per_instruction <= p.ns_per_instruction
        and q.pj_per_instruction < p.pj_per_instruction
        for p in frontier for q in points
    ), "a design point dominates the frontier"
    span = frontier_span(frontier)

    print(f"\nclosed {len(points)} design points; "
          f"{len(frontier)} on the Pareto frontier")
    print(f"energy span {span['min_pj']:.2f}-{span['max_pj']:.2f} pJ/ins, "
          f"delay span {span['min_ns']:.2f}-{span['max_ns']:.2f} ns/ins\n")

    print(f"{'design':20s} {'vt':>3s} {'Vdd':>4s} {'MHz':>7s} "
          f"{'ns/ins':>7s} {'pJ/ins':>7s} {'mW':>7s}")
    for point in frontier:
        row = point.row()
        print(f"{row['design']:20s} {row['vt']:>3s} {row['vdd']:4.1f} "
              f"{row['mhz']:7.1f} {row['ns_per_instruction']:7.2f} "
              f"{row['pj_per_instruction']:7.2f} {row['mw']:7.3f}")

    print("\ndesign recommendations:")
    scenarios = [
        ("high performance (delay <= 2 ns/ins)", None, 2.0),
        ("balanced (<= 1 mW, <= 5 ns/ins)", 1.0, 5.0),
        ("ultra low power (<= 0.05 mW)", 0.05, None),
    ]
    for label, power, delay in scenarios:
        choice = pick(frontier, power, delay)
        if choice is None:
            print(f"  {label}: no feasible frontier point")
            continue
        row = choice.row()
        print(f"  {label}:")
        print(f"    {row['design']} @ {row['vdd']:.1f} V {row['vt'].upper()}, "
              f"{row['mhz']:.0f} MHz -> {row['ns_per_instruction']:.2f} ns/ins, "
              f"{row['pj_per_instruction']:.2f} pJ/ins, {row['mw']:.3f} mW")


if __name__ == "__main__":
    main()
