"""The per-exhibit reproduction harness: shape claims of every figure."""

import pytest

from repro.dse.cpi import CpiTable
from repro.dse.pareto import pareto_frontier
from repro.dse.sweep import sweep
from repro.eval import (
    figure3,
    figure4,
    figure5,
    figure7,
    overheads,
    table1,
    table2,
    table3,
)
from repro.eval.report import full_report
from repro.pipeline.config import config_by_name
from repro.pipeline.core import PipelinedPE
from repro.workloads.suite import run_workload


class TestTables:
    def test_table1_matches_paper(self):
        rows = {name: value for name, __, value in table1.compute()}
        for name, value in table1.PAPER_VALUES.items():
            assert rows[name] == value, name

    def test_table1_renders(self):
        text = table1.render()
        assert "NRegs" in text and "42" in text

    def test_table2_matches_paper(self):
        assert table2.compute() == table2.PAPER_WIDTHS

    def test_table2_renders_totals(self):
        text = table2.render()
        assert "106" in text and "128" in text

    def test_table3_all_validate(self):
        reports = table3.compute(CpiTable(scale=8))
        assert len(reports) == 10
        assert all(r.validated for r in reports)
        assert all(r.worker_cpi >= 1.0 for r in reports)

    def test_table3_rows_equal_direct_functional_runs(self):
        for report in table3.compute(CpiTable(scale=8)):
            run = run_workload(report.name, scale=8)
            assert report.cycles == run.cycles, report.name
            assert report.worker_retired == run.worker_counters.retired
            assert report.worker_cpi == run.worker_counters.cpi


class TestFigure3:
    def test_totals(self):
        data = figure3.compute()
        assert data["total_area_um2"] == pytest.approx(64_435)
        assert data["total_power_mw"] == pytest.approx(1.95)

    def test_paper_shares_reproduced(self):
        data = figure3.compute()
        imem = data["components"]["instruction_memory"]
        assert imem["area_fraction"] == pytest.approx(0.25)
        assert imem["power_fraction"] == pytest.approx(0.41)
        split = data["split"]
        assert split["front_power"] > split["back_power"]   # power skews front
        assert split["back_area"] > split["front_area"]     # area skews back

    def test_render(self):
        assert "instruction_memory" in figure3.render()


class TestFigure4:
    @pytest.fixture(scope="class")
    def reports(self):
        return {r.name: r for r in figure4.compute(CpiTable(scale=48))}

    def test_rows_equal_direct_runs(self):
        config = config_by_name(figure4.DEFAULT_CONFIG)
        for report in figure4.compute(CpiTable(scale=8)):
            run = run_workload(
                report.name, scale=8,
                make_pe=lambda name: PipelinedPE(config, name=name))
            counters = run.worker_counters
            assert report.predicate_write_rate == \
                counters.predicate_write_rate, report.name
            assert report.accuracy == counters.prediction_accuracy

    def test_dot_product_writes_no_predicates(self, reports):
        assert reports["dot_product"].predicate_write_rate == 0
        assert reports["dot_product"].accuracy is None

    def test_high_entropy_benchmarks_near_50_percent(self, reports):
        for name in ("filter", "merge"):
            assert reports[name].accuracy < 0.75

    def test_loopy_benchmarks_near_perfect(self, reports):
        for name in ("gcd", "stream", "mean"):
            assert reports[name].accuracy > 0.85

    def test_nested_branch_benchmarks_in_between(self, reports):
        for name in ("bst", "udiv"):
            assert 0.6 < reports[name].accuracy < 0.95

    def test_every_benchmark_reported(self, reports):
        assert len(reports) == 10


class TestFigure5:
    @pytest.fixture(scope="class")
    def stacks(self, cpi_table):
        return figure5.compute(cpi_table)

    def test_all_partitions_present(self, stacks):
        assert len(stacks) == 8
        assert set(stacks["T|D|X1|X2"]) == {"base", "+P", "+P+Q"}
        assert set(stacks["TDX"]) == {"base"}

    def test_predicate_hazard_identical_for_same_depth(self, stacks):
        depth2 = [stacks[n]["base"]["predicate_hazard"]
                  for n in ("TD|X", "T|DX", "TDX1|X2")]
        assert max(depth2) - min(depth2) < 0.01

    def test_predicate_hazard_grows_with_depth(self, stacks):
        d2 = stacks["TD|X"]["base"]["predicate_hazard"]
        d3 = stacks["T|D|X"]["base"]["predicate_hazard"]
        d4 = stacks["T|D|X1|X2"]["base"]["predicate_hazard"]
        assert 0 < d2 < d3 < d4

    def test_prediction_nearly_eliminates_predicate_hazards(self, stacks):
        base = stacks["T|D|X1|X2"]["base"]["predicate_hazard"]
        predicted = stacks["T|D|X1|X2"]["+P"]["predicate_hazard"]
        assert predicted < base * 0.1

    def test_prediction_causes_forbidden_uptick(self, stacks):
        assert stacks["T|D|X1|X2"]["+P"]["forbidden"] > \
            stacks["T|D|X1|X2"]["base"]["forbidden"]

    def test_forbidden_grows_with_depth(self, stacks):
        assert stacks["T|D|X1|X2"]["+P"]["forbidden"] >= \
            stacks["T|DX1|X2"]["+P"]["forbidden"]

    def test_virtually_no_quashed_instructions(self, stacks):
        for partition, variants in stacks.items():
            for stack in variants.values():
                assert stack["quashed"] < 0.1

    def test_queue_accounting_reduces_none_triggered(self, stacks):
        with_p = stacks["T|D|X1|X2"]["+P"]["none_triggered"]
        with_pq = stacks["T|D|X1|X2"]["+P+Q"]["none_triggered"]
        assert with_pq < with_p

    def test_four_stage_cpi_reduction_near_35_percent(self, cpi_table):
        """The paper's headline: +P+Q cut 4-stage CPI by 35%."""
        improvement = figure5.four_stage_improvement(cpi_table)
        assert 0.25 <= improvement <= 0.45

    def test_render(self, cpi_table):
        text = figure5.render(cpi_table)
        assert "T|D|X1|X2 +P+Q" in text


def _figure7_by_four_sweeps(cpi_table, balanced_delays_ns=(2.0, 3.0, 4.0, 6.0, 8.0)):
    """Oracle: Figure 7 as computed before it took the report's points,
    with one sweep of its own per feature set."""
    frontiers = {}
    for feature in figure7.FEATURE_SETS:
        points = sweep(configs=figure7._configs(feature), cpi_table=cpi_table)
        frontiers[feature] = pareto_frontier(points)
    improvements = {}
    for feature in ("+P", "+Q", "+P+Q"):
        ratios = []
        for delay in balanced_delays_ns:
            base = figure7._frontier_energy_at(frontiers["none"], delay)
            opt = figure7._frontier_energy_at(frontiers[feature], delay)
            if base is not None and opt is not None:
                ratios.append(1.0 - opt / base)
        improvements[feature] = sum(ratios) / len(ratios) if ratios else None
    return {"frontiers": frontiers, "improvements": improvements}


class TestFigure7:
    @pytest.fixture(scope="class")
    def points(self, cpi_table):
        return sweep(cpi_table=cpi_table)

    def test_combined_features_improve_balanced_frontier(self, points):
        data = figure7.compute(points)
        improvement = data["improvements"]["+P+Q"]
        assert improvement is not None and improvement > 0.05

    def test_each_feature_frontier_exists(self, points):
        data = figure7.compute(points)
        assert set(data["frontiers"]) == {"none", "+P", "+Q", "+P+Q"}

    def test_equals_one_sweep_per_feature_set(self, cpi_table, points):
        assert figure7.compute(points) == _figure7_by_four_sweeps(cpi_table)


class TestOverheads:
    def test_scalars(self):
        data = overheads.compute()
        assert data["pipe_register_mw"] == pytest.approx(0.301, abs=0.002)
        assert data["trigger_fo4"] == pytest.approx(53.6)
        assert data["trigger_fo4_with_p"] == pytest.approx(64.3)
        assert data["pipe4_fmax_mhz"] == pytest.approx(1184, rel=0.001)

    def test_feature_rows_match_section_54(self):
        features = overheads.compute()["features"]
        assert features["+P+Q"]["area_um2"] == pytest.approx(64_895.4, rel=1e-3)
        assert features["padded"]["area_um2"] == pytest.approx(72_439.4, rel=1e-3)

    def test_render(self):
        text = overheads.render()
        assert "pipeline register" in text


class TestWarmRerun:
    def test_second_report_simulates_nothing(self, monkeypatch, tmp_path):
        """A report on a store the first report filled runs no workload
        and no fabric, and returns the identical text."""
        from repro.fabric.system import System
        from repro.workloads.base import Workload

        monkeypatch.setenv("REPRO_WORKERS", "1")
        calls = []
        for owner in (Workload, System):
            original = owner.run

            def counted(*args, _original=original, _owner=owner, **kwargs):
                calls.append(_owner.__name__)
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, "run", counted)
        cache = str(tmp_path / "cpi.sqlite")
        cold = full_report(scale=4, cache_path=cache)
        assert {"Workload", "System"} <= set(calls)
        calls.clear()
        warm = full_report(scale=4, cache_path=cache)
        assert calls == []
        assert warm == cold
