"""CSV export of exhibit data."""

import csv

from repro.eval.export import export_all


def test_export_writes_every_exhibit(tmp_path, cpi_table, cpi_runs):
    written = export_all(
        str(tmp_path), scale=cpi_table.scale, cache_path=cpi_table.cache_path
    )
    names = {path.rsplit("/", 1)[-1] for path in written}
    assert names == {
        "table1.csv", "table2.csv", "table3.csv", "figure3_breakdown.csv",
        "figure4_prediction.csv", "figure5_cpi_stacks.csv",
        "figure6_points.csv", "figure8_frontier.csv",
    }
    for path in written:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) >= 2, path          # header + data
        assert all(len(row) == len(rows[0]) for row in rows), path

    with open(tmp_path / "figure6_points.csv", newline="") as handle:
        points = list(csv.reader(handle))
    assert len(points) > 3000

    with open(tmp_path / "table2.csv", newline="") as handle:
        fields = {row[0]: int(row[1]) for row in list(csv.reader(handle))[1:]}
    assert sum(fields.values()) == 106

    # Table 3 and Figure 4 come from the store's suite records: a
    # second export on the same store simulates nothing.
    cpi_runs.clear()
    export_all(str(tmp_path / "again"), scale=cpi_table.scale,
               cache_path=cpi_table.cache_path)
    assert cpi_runs == []
