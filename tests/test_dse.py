"""Design-space exploration: grids, sweep feasibility, Pareto extraction."""

import json

import pytest

from repro.dse.cpi import CpiTable
from repro.dse.design_point import DesignPoint
from repro.dse.pareto import frontier_span, pareto_frontier
from repro.dse.prune import PruneOracle
from repro.dse.sweep import close_grid, frequency_grid, sweep, voltage_grid
from repro.pipeline.config import config_by_name
from repro.vlsi.synthesis import synthesize
from repro.vlsi.technology import VtFlavor


class TestGrids:
    def test_svt_voltages(self):
        assert voltage_grid(VtFlavor.SVT) == [0.6, 0.7, 0.8, 0.9, 1.0]

    def test_lvt_hvt_voltages(self):
        for vt in (VtFlavor.LVT, VtFlavor.HVT):
            assert voltage_grid(vt) == [0.4, 0.6, 0.8, 1.0]

    def test_main_frequency_grid(self):
        grid = frequency_grid(VtFlavor.SVT, 1.0)
        assert grid[0] == 100e6 and grid[-1] == 1.5e9
        assert len(grid) == 15

    def test_near_threshold_refinement(self):
        grid = frequency_grid(VtFlavor.SVT, 0.6)
        assert 150e6 in grid and 250e6 in grid   # 50 MHz steps

    def test_subthreshold_hvt_refinement(self):
        grid = frequency_grid(VtFlavor.HVT, 0.4)
        assert 10e6 in grid and 90e6 in grid     # 10 MHz steps
        assert 10e6 not in frequency_grid(VtFlavor.LVT, 0.4)


class TestDesignPoint:
    def _point(self, cpi=2.0):
        r = synthesize(config_by_name("T|D|X"), 1.0, VtFlavor.SVT, 500e6)
        return DesignPoint(synthesis=r, cpi=cpi)

    def test_delay_per_instruction(self):
        point = self._point(cpi=2.0)
        assert point.ns_per_instruction == pytest.approx(2.0 / 500e6 * 1e9)

    def test_energy_per_instruction(self):
        point = self._point(cpi=2.0)
        expected = point.synthesis.power_w * 2.0 / 500e6 * 1e12
        assert point.pj_per_instruction == pytest.approx(expected)

    def test_ed_product(self):
        point = self._point()
        assert point.energy_delay_product == pytest.approx(
            point.pj_per_instruction * point.ns_per_instruction)

    def test_row_has_figure8_columns(self):
        row = self._point().row()
        for column in ("design", "vt", "vdd", "mhz", "ns_per_instruction",
                       "pj_per_instruction", "mw", "mm2", "mw_per_mm2", "ed"):
            assert column in row


class TestPareto:
    def _points(self, cpi_table):
        configs = [config_by_name(n) for n in ("TDX", "T|DX +P+Q", "T|D|X1|X2")]
        return sweep(configs=configs, cpi_table=cpi_table)

    def test_frontier_points_are_nondominated(self, cpi_table):
        points = self._points(cpi_table)
        frontier = pareto_frontier(points)
        for a in frontier:
            for b in points:
                dominates = (
                    b.ns_per_instruction <= a.ns_per_instruction
                    and b.pj_per_instruction <= a.pj_per_instruction
                    and (b.ns_per_instruction < a.ns_per_instruction
                         or b.pj_per_instruction < a.pj_per_instruction)
                )
                assert not dominates, f"{b.row()} dominates {a.row()}"

    def test_frontier_sorted_fastest_first(self, cpi_table):
        frontier = pareto_frontier(self._points(cpi_table))
        delays = [p.ns_per_instruction for p in frontier]
        assert delays == sorted(delays)
        energies = [p.pj_per_instruction for p in frontier]
        assert energies == sorted(energies, reverse=True)

    def test_span_report(self, cpi_table):
        span = frontier_span(pareto_frontier(self._points(cpi_table)))
        assert span["energy_span"] > 1
        assert span["delay_span"] > 1
        assert span["min_ns"] < span["max_ns"]

    def test_empty_frontier(self):
        assert pareto_frontier([]) == []
        assert frontier_span([]) == {}


class TestSweep:
    def test_every_point_is_feasible(self, cpi_table):
        points = sweep(configs=[config_by_name("TD|X +Q")], cpi_table=cpi_table)
        for point in points:
            assert point.frequency_hz <= point.synthesis.fmax_hz * (1 + 1e-9)

    def test_fmax_points_included(self, cpi_table):
        config = config_by_name("TD|X +Q")
        points = sweep(configs=[config], cpi_table=cpi_table)
        fmax_values = {round(p.synthesis.fmax_hz) for p in points}
        frequencies = {round(p.frequency_hz) for p in points}
        assert fmax_values & frequencies

    def test_cpi_constant_across_voltage(self, cpi_table):
        points = sweep(configs=[config_by_name("TDX")], cpi_table=cpi_table)
        assert len({p.cpi for p in points}) == 1


def _point_key(point):
    return (point.config_name, point.vt.value, point.vdd,
            round(point.frequency_hz), point.cpi)


class TestPruning:
    """Soundness of sweep(prune=...) on a small exhaustive sweep: no
    Pareto-frontier member may ever be dropped, and pruning must carry
    its weight (the ISSUE floor is 20% of points removed)."""

    NAMES = ("TDX", "TD|X", "T|DX +P", "TD|X +Q",
             "T|D|X", "T|D|X1|X2", "T|D|X1|X2 +P+pad")

    def _configs(self):
        return [config_by_name(name) for name in self.NAMES]

    def test_pruned_sweep_preserves_frontier(self, cpi_table):
        configs = self._configs()
        full = sweep(configs=configs, cpi_table=cpi_table)
        oracle = PruneOracle.from_workloads(configs, scale=cpi_table.scale)
        pruned = sweep(configs=configs, cpi_table=cpi_table, prune=oracle)

        full_keys = set(map(_point_key, full))
        pruned_keys = set(map(_point_key, pruned))
        assert pruned_keys <= full_keys          # never invents points
        assert sorted(map(_point_key, pareto_frontier(pruned))) == \
            sorted(map(_point_key, pareto_frontier(full)))

        stats = oracle.stats
        assert stats.points_total == len(full)
        assert stats.points_evaluated == len(pruned)
        assert stats.point_rate >= 0.20, stats.as_dict()

    def test_config_level_pruning_skips_simulation(self, tmp_path):
        # A config whose entire best-case grid is dominated must never
        # reach the simulator.  A synthetic huge floor forces the case
        # (mechanism test only — an unsound oracle voids the frontier
        # guarantee, so nothing else is asserted about the output).
        fast, slow = config_by_name("TDX"), config_by_name("T|D|X1|X2")
        table = CpiTable(scale=8, cache_path=str(tmp_path / "cpi.sqlite"))
        oracle = PruneOracle({fast.name: 1.0, slow.name: 1000.0}, batch=1)
        points = sweep(configs=[fast, slow], cpi_table=table, prune=oracle)
        assert oracle.stats.configs_pruned == 1
        assert slow.name not in table._cpi       # no simulation spent
        assert {p.config_name for p in points} == {fast.name}

    def test_unknown_config_defaults_to_universal_floor(self):
        oracle = PruneOracle({})
        assert oracle.lower_bound(config_by_name("TDX")) == 1.0

    def test_oracle_floors_are_sound(self, cpi_table):
        # The static floor the pruning relies on: per config, the
        # workload-mean lower bound never exceeds the measured mean CPI.
        configs = self._configs()
        oracle = PruneOracle.from_workloads(configs, scale=cpi_table.scale)
        for config in configs:
            assert oracle.lower_bound(config) <= \
                cpi_table.cpi(config) + 1e-9, config.name

    def test_close_grid_matches_unpruned_sweep(self, cpi_table):
        config = config_by_name("TDX")
        grid = close_grid(config)
        points = sweep(configs=[config], cpi_table=cpi_table)
        assert len(grid) == len(points)
        assert [round(s.f_target_hz) for s in grid] == \
            [round(p.frequency_hz) for p in points]


class TestCpiTable:
    def test_caches_across_instances(self, cpi_runs, tmp_path):
        cache = str(tmp_path / "cpi.sqlite")
        config = config_by_name("TDX")
        first = CpiTable(scale=8, cache_path=cache).cpi(config)
        assert cpi_runs == [config.name]
        # A new table on the same store must not re-simulate (and must agree).
        again = CpiTable(scale=8, cache_path=cache)
        assert again.cpi(config) == first
        assert cpi_runs == [config.name]

    def test_cache_invalidated_by_scale_change(self, cpi_runs, tmp_path):
        cache = str(tmp_path / "cpi.sqlite")
        config = config_by_name("TDX")
        CpiTable(scale=8, cache_path=cache).cpi(config)
        CpiTable(scale=10, cache_path=cache).cpi(config)
        assert cpi_runs == [config.name, config.name]

    @pytest.mark.parametrize("content", [
        '{"fingerprint": "3f2a", "scale": 8, "cpi": {"TD',
        json.dumps({"fingerprint": "3f2a", "scale": 8, "seed": 0,
                    "cpi": {"TDX": 9.0}, "stacks": {"TDX": {}}}),
    ], ids=["torn", "legacy-json"])
    def test_unreadable_cache_is_moved_aside(self, content, tmp_path):
        cache = tmp_path / "cpi.json"
        cache.write_text(content)
        configs = [config_by_name("TDX"), config_by_name("T|DX +P")]
        table = CpiTable(scale=4, cache_path=str(cache))
        table.populate(configs)
        assert (tmp_path / "cpi.json.corrupt").read_text() == content
        fresh = CpiTable(scale=4)
        fresh.populate(configs)
        assert table._cpi == fresh._cpi
        assert table._stacks == fresh._stacks

    def test_stack_components_sum_to_cpi(self, cpi_table):
        config = config_by_name("T|D|X +P")
        stack = cpi_table.stack(config)
        assert sum(stack.values()) == pytest.approx(cpi_table.cpi(config), rel=1e-9)
