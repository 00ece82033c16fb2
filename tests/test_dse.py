"""Design-space exploration: grids, sweep feasibility, Pareto extraction."""

import dataclasses
import json

import pytest

from repro.dse.cpi import FUNCTIONAL, CpiTable
from repro.dse.design_point import DesignPoint
from repro.dse.pareto import frontier_span, pareto_frontier
from repro.dse.prune import PruneOracle
from repro.dse.sweep import close_grid, frequency_grid, sweep, voltage_grid
from repro.errors import CampaignError, SynthesisError
from repro.params import DEFAULT_PARAMS
from repro.pipeline.config import all_configs, config_by_name
from repro.serve.store import ResultStore, task_fingerprint
from repro.vlsi.synthesis import fmax, synthesize
from repro.vlsi.technology import TECH65, VtFlavor


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


def _close_grid_by_exception(config, include_fmax_points):
    """Oracle: the grid as closed before feasibility was decided per
    corner, by asking for every target and dropping each refusal."""
    results = []
    for vt in VtFlavor:
        for vdd in voltage_grid(vt):
            targets = list(frequency_grid(vt, vdd))
            if include_fmax_points:
                targets.append(fmax(config, vdd, vt, TECH65))
            for f_target in targets:
                try:
                    results.append(synthesize(config, vdd, vt, f_target, TECH65))
                except SynthesisError:
                    continue
    return results


class TestCloseGrid:
    @pytest.mark.parametrize("include_fmax_points", [True, False])
    def test_every_grid_equals_the_exception_oracle(self, include_fmax_points):
        configs = all_configs(include_padded=True)
        assert len(configs) == 48
        for config in configs:
            assert close_grid(config, include_fmax_points=include_fmax_points) \
                == _close_grid_by_exception(config, include_fmax_points), config.name


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
        assert slow.name not in table._records   # no simulation spent
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
        assert table._records == fresh._records

    def test_stack_components_sum_to_cpi(self, cpi_table):
        config = config_by_name("T|D|X +P")
        stack = cpi_table.stack(config)
        assert sum(stack.values()) == pytest.approx(cpi_table.cpi(config), rel=1e-9)

    def test_cpi_config_row_is_never_read(self, cpi_runs, tmp_path):
        """A store holding a per-config ``cpi-config`` row, the shape an
        older table wrote, for the same inputs is not decoded: the table
        simulates the config again."""
        cache = str(tmp_path / "cpi.sqlite")
        config = config_by_name("TDX")
        payload = {"config": config.name, "scale": 4, "seed": 0,
                   "params": dataclasses.asdict(DEFAULT_PARAMS)}
        with ResultStore(cache) as store:
            store.put(task_fingerprint("cpi-config", payload), "cpi-config",
                      payload, [config.name, 9.0, {"retired": 9.0}])
        table = CpiTable(scale=4, cache_path=cache)
        assert table.cpi(config) != 9.0
        assert cpi_runs == [config.name]

    def test_failed_golden_check_stores_no_record(self, cpi_runs, monkeypatch,
                                                  tmp_path):
        """A kernel whose golden check raises fails the model's task, and
        the store keeps no row for the model: Table 3 never prints a
        record whose checks did not all pass."""
        from repro.workloads.udiv import UdivWorkload

        def broken(self, system, scale, seed):
            raise AssertionError("golden mismatch")

        monkeypatch.setattr(UdivWorkload, "check", broken)
        cache = str(tmp_path / "cpi.sqlite")
        table = CpiTable(scale=4, cache_path=cache)
        with pytest.raises(CampaignError, match="golden mismatch"):
            table.populate([FUNCTIONAL])
        assert cpi_runs == [FUNCTIONAL.name]
        assert FUNCTIONAL.name not in table._records
        with ResultStore(cache) as store:
            assert len(store) == 0
