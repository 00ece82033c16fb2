"""Tables 1-3: parameters, instruction encoding, and the workload suite."""

from repro.asm import assemble
from repro.dse.cpi import CpiTable
from repro.eval import table1, table2, table3
from repro.params import ArchParams, DEFAULT_PARAMS
from repro.workloads import run_workload


def test_table1(benchmark):
    """Table 1: parameter derivation (and the paper's fixed values)."""
    rows = benchmark(lambda: table1.compute(ArchParams()))
    values = {name: value for name, __, value in rows}
    for name, expected in table1.PAPER_VALUES.items():
        assert values[name] == expected


def test_table2(benchmark):
    """Table 2: field widths summing to the 106-bit instruction."""
    widths = benchmark(table2.compute)
    assert widths == table2.PAPER_WIDTHS
    assert sum(widths.values()) == table2.PAPER_TOTAL_BITS
    assert DEFAULT_PARAMS.padded_instruction_width == table2.PAPER_PADDED_BITS


def test_table2_encode_throughput(benchmark):
    """Assembling and encoding a full 16-instruction PE program."""
    source = "\n".join(
        f"when %p == XXXXXX{i % 4:02b} with %i0.0:\n"
        f"    add %r{i % 8}, %r{(i + 1) % 8}, %i0; deq %i0;"
        for i in range(DEFAULT_PARAMS.num_instructions)
    )
    blob = benchmark(lambda: assemble(source).binary(DEFAULT_PARAMS))
    assert len(blob) == 16 * 16   # sixteen 128-bit instructions


def test_table3(benchmark, cpi_table):
    """Table 3: the whole suite runs and validates on the functional model."""
    table = CpiTable(scale=24, cache_path=cpi_table.cache_path)
    reports = benchmark.pedantic(
        lambda: table3.compute(table), rounds=1, iterations=1)
    assert len(reports) == 10
    assert all(r.validated for r in reports)
    # The paper's behavioral contrast: stream hits CPI 1, bst is
    # memory-bound, merge/filter are branchy but flowing.
    by_name = {r.name: r for r in reports}
    assert by_name["stream"].worker_cpi < 1.2
    assert by_name["bst"].worker_cpi > 1.5


def test_table3_single_workload_run(benchmark):
    """Cost of one representative workload execution (bst, the paper's
    activity-extraction workload)."""
    run = benchmark.pedantic(
        lambda: run_workload("bst", scale=24), rounds=1, iterations=1)
    assert run.worker_counters.retired > 0
