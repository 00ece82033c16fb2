"""Figure 7: frontier benefit of +P and +Q in the balanced region."""

from repro.eval import figure7


def test_figure7(benchmark, design_points):
    data = benchmark.pedantic(
        lambda: figure7.compute(design_points), rounds=1, iterations=1)

    assert set(data["frontiers"]) == {"none", "+P", "+Q", "+P+Q"}

    # Both optimizations together improve the balanced frontier (paper:
    # 20-25%; our CPI campaign lands in the same tens-of-percent regime).
    combined = data["improvements"]["+P+Q"]
    assert combined is not None and combined > 0.08

    # +P alone carries most of the CPI benefit; +Q alone is smaller but
    # never harmful.
    assert data["improvements"]["+P"] is not None
    assert data["improvements"]["+Q"] is not None
    assert data["improvements"]["+Q"] >= -0.01
    assert combined >= data["improvements"]["+Q"]

    # Every feature frontier is at least as fast at its extreme as the
    # unoptimized one (the optimizations never lose throughput headroom
    # beyond the +P trigger-path cost, which CPI wins back).
    fastest_none = data["frontiers"]["none"][0].ns_per_instruction
    fastest_pq = data["frontiers"]["+P+Q"][0].ns_per_instruction
    assert fastest_pq <= fastest_none * 1.1

    print()
    print(figure7.render(design_points))
