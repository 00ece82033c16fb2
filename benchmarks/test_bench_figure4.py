"""Figure 4: predicate write frequency and prediction accuracy."""

from repro.dse.cpi import CpiTable
from repro.eval import figure4


def test_figure4(benchmark, bench_scale, cpi_table):
    table = CpiTable(scale=bench_scale * 2, cache_path=cpi_table.cache_path)
    reports = benchmark.pedantic(
        lambda: figure4.compute(table), rounds=1, iterations=1)
    by_name = {r.name: r for r in reports}

    assert len(reports) == 10

    # dot_product's worker does not rely on predicates for control flow.
    assert by_name["dot_product"].predicate_write_rate == 0
    assert by_name["dot_product"].accuracy is None

    # filter and merge: high-entropy data-dependent control, worst-case
    # accuracy around 50%.
    for name in ("filter", "merge"):
        assert by_name[name].accuracy < 0.75, name

    # gcd, stream, mean: long predictable loops, near-perfect.
    for name in ("gcd", "stream", "mean"):
        assert by_name[name].accuracy > 0.85, name

    # bst and udiv: unpredictable branches nested in predictable loops.
    for name in ("bst", "udiv"):
        assert 0.6 < by_name[name].accuracy < 0.95, name

    # Every benchmark except dot_product writes predicates dynamically.
    rates = [r.predicate_write_rate for r in reports if r.name != "dot_product"]
    assert all(rate > 0.1 for rate in rates)

    print()
    print(figure4.render(table))
