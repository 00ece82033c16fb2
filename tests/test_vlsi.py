"""The calibrated 65 nm VLSI model: every published anchor plus physics."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError, SynthesisError
from repro.pipeline.config import all_configs, config_by_name
from repro.vlsi.components import (
    COMPONENTS,
    INSTRUCTION_STORAGE,
    front_back_split,
)
from repro.vlsi.synthesis import (
    critical_path_fo4,
    effective_capacitance,
    fmax,
    sizing_factor,
    stage_fo4,
    synthesize,
)
from repro.vlsi.technology import TECH65, VtFlavor

SVT, LVT, HVT = VtFlavor.SVT, VtFlavor.LVT, VtFlavor.HVT

vdds = st.floats(min_value=0.4, max_value=1.0)


class TestTechnology:
    def test_fo4_anchors(self):
        assert TECH65.fo4_delay(1.0, SVT) == pytest.approx(15.76e-12, rel=1e-3)
        assert TECH65.fo4_delay(1.0, LVT) == pytest.approx(9.44e-12, rel=1e-3)

    def test_vt_ordering_at_any_voltage(self):
        for vdd in (0.5, 0.7, 1.0):
            assert (TECH65.fo4_delay(vdd, LVT)
                    < TECH65.fo4_delay(vdd, SVT)
                    < TECH65.fo4_delay(vdd, HVT))

    @given(v1=vdds, v2=vdds)
    def test_delay_monotonically_decreases_with_supply(self, v1, v2):
        lo, hi = sorted((v1, v2))
        if hi - lo < 1e-6:
            return
        for vt in VtFlavor:
            assert TECH65.fo4_delay(lo, vt) >= TECH65.fo4_delay(hi, vt)

    @given(v=vdds)
    def test_leakage_ordering(self, v):
        assert (TECH65.leakage_power(v, HVT)
                < TECH65.leakage_power(v, SVT)
                < TECH65.leakage_power(v, LVT))

    @given(v1=vdds, v2=vdds)
    def test_leakage_increases_with_supply(self, v1, v2):
        lo, hi = sorted((v1, v2))
        assert TECH65.leakage_power(lo, SVT) <= TECH65.leakage_power(hi, SVT)

    def test_subthreshold_hvt_is_very_slow(self):
        """0.4 V is below the high-VT threshold: ~100x slowdown."""
        ratio = TECH65.fo4_delay(0.4, HVT) / TECH65.fo4_delay(1.0, HVT)
        assert ratio > 40

    def test_out_of_range_supply_rejected(self):
        with pytest.raises(ConfigError):
            TECH65.fo4_delay(0.2, SVT)


class TestFigure3Budgets:
    def test_fractions_sum_to_one(self):
        assert sum(c.area_fraction for c in COMPONENTS) == pytest.approx(1.0)
        assert sum(c.power_fraction for c in COMPONENTS) == pytest.approx(1.0)

    def test_paper_component_shares(self):
        shares = {c.name: c for c in COMPONENTS}
        assert shares["instruction_memory"].area_fraction == 0.25
        assert shares["instruction_memory"].power_fraction == 0.41
        assert shares["scheduler"].area_fraction == 0.06
        assert shares["scheduler"].power_fraction == 0.05
        assert shares["queues"].area_fraction == 0.18
        assert shares["queues"].power_fraction == 0.22

    def test_alu_dominates_area_imem_power(self):
        by_area = max(COMPONENTS, key=lambda c: c.area_fraction)
        by_power = max(COMPONENTS, key=lambda c: c.power_fraction)
        assert by_area.name == "alu"
        assert by_power.name == "instruction_memory"

    def test_front_back_split(self):
        split = front_back_split()
        assert split["front_area"] == pytest.approx(0.325, abs=0.01)
        assert split["back_area"] == pytest.approx(0.46, abs=0.01)
        assert split["front_power"] == pytest.approx(0.48, abs=0.01)
        assert split["back_power"] == pytest.approx(0.23, abs=0.01)

    def test_storage_media_tradeoffs(self):
        mixed = INSTRUCTION_STORAGE["mixed_sram"]
        latch = INSTRUCTION_STORAGE["latch"]
        assert mixed[0] == pytest.approx(0.84)      # -16% area vs registers
        assert mixed[1] == pytest.approx(0.76)      # -24% power
        assert mixed[0] / latch[0] == pytest.approx(0.91)   # -9% vs latch
        assert mixed[1] / latch[1] == pytest.approx(0.81)   # -19% vs latch


class TestTiming:
    def test_trigger_stage_fo4(self):
        assert critical_path_fo4(config_by_name("T|D|X1|X2")) == 53.6
        assert critical_path_fo4(config_by_name("T|D|X1|X2 +P")) == pytest.approx(64.3)

    def test_four_stage_closes_at_1184mhz(self):
        f = fmax(config_by_name("T|D|X1|X2"), 1.0, SVT)
        assert f == pytest.approx(1184e6, rel=0.001)

    def test_tdx1x2_lvt_closes_at_1157mhz(self):
        f = fmax(config_by_name("TDX1|X2"), 1.0, LVT)
        assert f == pytest.approx(1157e6, rel=0.001)

    def test_stage_balance_in_50_60_fo4_range(self):
        """Balanced pipelines land where the paper observed them."""
        for name in ("T|D|X", "T|D|X1|X2", "T|DX1|X2"):
            assert 50 <= critical_path_fo4(config_by_name(name)) <= 60

    def test_deeper_pipelines_are_never_slower(self):
        assert (critical_path_fo4(config_by_name("TDX"))
                >= critical_path_fo4(config_by_name("TD|X"))
                >= critical_path_fo4(config_by_name("T|D|X")))

    def test_stage_budget_sum_is_partition_invariant(self):
        totals = {
            name: sum(stage_fo4(config_by_name(name)))
            for name in ("TDX", "TD|X", "T|DX", "T|D|X")
        }
        assert len(set(totals.values())) == 1


class TestSection54Anchors:
    @pytest.mark.parametrize("name,area,power_mw", [
        ("T|D|X1|X2", 63_991.4, 2.852),
        ("T|D|X1|X2 +P", 64_278.4, 3.048),
        ("T|D|X1|X2 +Q", 64_131.8, 2.852),
        ("T|D|X1|X2 +P+Q", 64_895.4, 3.077),
        ("T|D|X1|X2 +pad", 72_439.4, 3.194),
    ])
    def test_feature_overheads(self, name, area, power_mw):
        r = synthesize(config_by_name(name), 1.0, SVT, 500e6)
        assert r.area_um2 == pytest.approx(area, rel=0.001)
        assert r.power_w * 1e3 == pytest.approx(power_mw, rel=0.005)

    def test_single_cycle_anchor(self):
        r = synthesize(config_by_name("TDX"), 1.0, SVT, 500e6)
        assert r.area_um2 == pytest.approx(64_435, rel=0.002)
        assert r.power_w * 1e3 == pytest.approx(1.95, rel=0.005)

    def test_power_grows_linearly_per_pipeline_register(self):
        """+0.301 mW per pipeline register, iso-frequency iso-VDD."""
        powers = {
            depth: synthesize(config, 1.0, SVT, 500e6).power_w * 1e3
            for config, depth in (
                (config_by_name("TDX"), 1),
                (config_by_name("TD|X"), 2),
                (config_by_name("T|D|X"), 3),
                (config_by_name("T|D|X1|X2"), 4),
            )
        }
        for depth in (2, 3, 4):
            increment = powers[depth] - powers[depth - 1]
            assert increment == pytest.approx(0.301, abs=0.002)

    def test_padding_is_much_costlier_than_accounting(self):
        """The Section 5.3 argument: +Q's adders vs a 13% area reject buffer."""
        base = synthesize(config_by_name("T|D|X1|X2"), 1.0, SVT, 500e6)
        accounting = synthesize(config_by_name("T|D|X1|X2 +Q"), 1.0, SVT, 500e6)
        padded = synthesize(config_by_name("T|D|X1|X2 +pad"), 1.0, SVT, 500e6)
        overhead_q = accounting.area_um2 / base.area_um2 - 1
        overhead_pad = padded.area_um2 / base.area_um2 - 1
        assert overhead_q < 0.01
        assert overhead_pad > 0.10


class TestSynthesisBehavior:
    def test_infeasible_target_rejected(self):
        with pytest.raises(SynthesisError, match="cannot close"):
            synthesize(config_by_name("TDX"), 1.0, SVT, 1.5e9)

    def test_closes_up_to_exactly_fmax(self):
        config = config_by_name("T|D|X1|X2 +P")
        ceiling = fmax(config, 0.8, SVT)
        assert synthesize(config, 0.8, SVT, ceiling).fmax_hz == ceiling
        with pytest.raises(SynthesisError, match="cannot close"):
            synthesize(config, 0.8, SVT, math.nextafter(ceiling, math.inf))

    @pytest.mark.parametrize("f_target_hz", [0.0, -100e6])
    def test_non_positive_target_rejected(self, f_target_hz):
        with pytest.raises(SynthesisError, match="must be positive"):
            synthesize(config_by_name("TDX"), 1.0, SVT, f_target_hz)

    def test_speculation_costs_timing_closure(self):
        base = fmax(config_by_name("T|D|X1|X2"), 1.0, SVT)
        spec = fmax(config_by_name("T|D|X1|X2 +P"), 1.0, SVT)
        assert spec < base

    def test_queue_status_is_timing_neutral(self):
        base = fmax(config_by_name("T|D|X1|X2"), 1.0, SVT)
        accounting = fmax(config_by_name("T|D|X1|X2 +Q"), 1.0, SVT)
        assert accounting == base

    def test_relaxed_targets_use_smaller_cells(self):
        assert sizing_factor(50e6) < sizing_factor(400e6) < sizing_factor(500e6)
        assert sizing_factor(500e6) == pytest.approx(1.0)
        assert sizing_factor(1.2e9) > 1.0

    def test_pipeline_registers_add_capacitance(self):
        assert (effective_capacitance(config_by_name("T|D|X1|X2"))
                > effective_capacitance(config_by_name("TDX")))

    @pytest.mark.parametrize("config", all_configs()[:8], ids=lambda c: c.name)
    def test_power_increases_with_frequency(self, config):
        ceiling = fmax(config, 1.0, SVT)
        low = synthesize(config, 1.0, SVT, ceiling * 0.3)
        high = synthesize(config, 1.0, SVT, ceiling * 0.9)
        assert high.power_w > low.power_w

    def test_power_density_computed(self):
        r = synthesize(config_by_name("TDX"), 1.0, SVT, 500e6)
        assert r.power_density_mw_per_mm2 == pytest.approx(
            (r.power_w * 1e3) / (r.area_um2 * 1e-6), rel=1e-9)
