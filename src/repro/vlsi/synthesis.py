"""Synthesis model: (microarchitecture, VT, VDD, f_target) -> area/power/timing.

This stands in for the paper's Design Compiler runs.  Stage delays are
budgeted in FO4 (Section 5.4 reports the trigger stage at 53.6 FO4 —
64.3 with speculation — and observes balanced stages in the 50-60 FO4
range); the critical path of a partition is the largest per-stage sum.
f_max follows from the technology's FO4(VDD, VT).

Cell sizing tracks the target frequency: designs synthesized at relaxed
targets use small cells (~0.72x switched capacitance), the 500 MHz
anchor point sizes at 1.0x, and pushing toward timing closure inflates
the design quadratically ("the push for timing will inflate the
resulting design") up to a cap.

Power = C_eff * VDD^2 * f * sizing + leakage(VT, VDD), with C_eff built
from the single-cycle anchor (1.95 mW at 1.0 V / 500 MHz), 0.602 pF per
pipeline register (the paper's +0.301 mW at 500 MHz / 1.0 V), and the
published adders for +P / +Q / output-queue padding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.errors import SynthesisError
from repro.pipeline.config import PipelineConfig, QueuePolicy
from repro.vlsi import components as comp
from repro.vlsi.technology import TECH65, Technology, VtFlavor

# FO4 budgets per conceptual phase.  T is measured (Section 5.4); the
# rest are set so stage balance lands in the paper's 50-60 FO4 window
# and the deepest pipeline's critical path is the trigger stage.
PHASE_FO4 = {"T": 53.6, "D": 16.0, "X": 40.0, "X1": 22.0, "X2": 22.0}
PREDICTION_TRIGGER_EXTRA_FO4 = (
    comp.TRIGGER_FO4_WITH_PREDICTION - comp.TRIGGER_FO4
)  # 10.7 FO4 of speculative predicate unit in the trigger stage

# Effective switched capacitance (farads), calibrated per module docstring.
_LEAK_SVT_1V = 0.08e-3
C_CORE = (comp.TDX_POWER_W - _LEAK_SVT_1V) / (
    comp.ANCHOR_VDD ** 2 * comp.ANCHOR_FREQ_HZ
)  # ~3.74 pF for the single-cycle core
C_PIPE_REGISTER = comp.PIPE_REGISTER_POWER_W / (
    comp.ANCHOR_VDD ** 2 * comp.ANCHOR_FREQ_HZ
)  # ~0.602 pF per pipeline register
_C_FEATURE = {
    key: power / (comp.ANCHOR_VDD ** 2 * comp.ANCHOR_FREQ_HZ)
    for key, power in comp.FEATURE_POWER_W.items()
}
C_PADDING_AT_DEPTH4 = comp.PADDED_POWER_W_AT_DEPTH4 / (
    comp.ANCHOR_VDD ** 2 * comp.ANCHOR_FREQ_HZ
)

# Sizing-vs-target-frequency model (dimensionless multiplier on C_eff).
_SIZE_FLOOR = 0.72
_SIZE_ANCHOR_HZ = 500e6
_SIZE_GROWTH = 1.66
_SIZE_GROWTH_SPAN_HZ = 657e6
_SIZE_CAP = 2.2
_AREA_GROWTH_CAP = 1.45   # Pareto designs show little area variance (Fig. 8)

# Area sizing pressure: relaxed designs sit at the pipelined anchor; the
# under-pipelined single-cycle PE at a 500 MHz target sizes up ~0.7%.
_AREA_PRESSURE = 0.016


def sizing_factor(f_target: float) -> float:
    """Switched-capacitance multiplier for a synthesis target frequency."""
    if f_target <= _SIZE_ANCHOR_HZ:
        return _SIZE_FLOOR + (1.0 - _SIZE_FLOOR) * (f_target / _SIZE_ANCHOR_HZ)
    grown = 1.0 + _SIZE_GROWTH * ((f_target - _SIZE_ANCHOR_HZ) / _SIZE_GROWTH_SPAN_HZ) ** 2
    return min(grown, _SIZE_CAP)


def stage_fo4(config: PipelineConfig) -> list[float]:
    """Per-stage delay budgets in FO4 for one partition."""
    budgets = []
    for stage in config.stages:
        total = sum(PHASE_FO4[phase] for phase in stage)
        if "T" in stage and config.predicate_prediction:
            total += PREDICTION_TRIGGER_EXTRA_FO4
        budgets.append(total)
    return budgets


def critical_path_fo4(config: PipelineConfig) -> float:
    """The longest stage, in FO4 — what sets the clock."""
    return max(stage_fo4(config))


def fmax(
    config: PipelineConfig,
    vdd: float,
    vt: VtFlavor,
    tech: Technology = TECH65,
) -> float:
    """Maximum clock frequency in Hz at a supply/flavor point."""
    return corner_fmax(critical_path_fo4(config), corner(vdd, vt, tech))


def effective_capacitance(config: PipelineConfig) -> float:
    """Design C_eff in farads, before sizing."""
    c = C_CORE + (config.depth - 1) * C_PIPE_REGISTER
    c += _C_FEATURE[(config.predicate_prediction, config.effective_queue_status)]
    if config.queue_policy is QueuePolicy.PADDED:
        c += C_PADDING_AT_DEPTH4 * (config.depth / 4.0)
    return c


def base_area_um2(config: PipelineConfig) -> float:
    """Design area in um^2, before sizing pressure."""
    # Depth 1 gets the relaxed-sizing single-cycle core; deeper designs
    # share one figure — pipeline registers are in the noise.
    area = (comp.TDX_AREA_UM2 - 444.0 if config.depth == 1
            else comp.PIPE4_AREA_UM2)
    area += comp.FEATURE_AREA_UM2[
        (config.predicate_prediction, config.effective_queue_status)
    ]
    if config.queue_policy is QueuePolicy.PADDED:
        area += comp.PADDED_AREA_UM2_AT_DEPTH4 * (config.depth / 4.0)
    return area


@dataclass(frozen=True, slots=True)
class SynthesisResult:
    """One closed design point."""

    config_name: str
    vt: VtFlavor
    vdd: float
    f_target_hz: float
    fmax_hz: float
    area_um2: float
    power_w: float
    dynamic_power_w: float
    leakage_power_w: float
    critical_fo4: float

    @property
    def area_mm2(self) -> float:
        return self.area_um2 * 1e-6

    @property
    def power_density_mw_per_mm2(self) -> float:
        return (self.power_w * 1e3) / self.area_mm2


class ConfigConstants(NamedTuple):
    """What closing a point needs from its config, derived once per config."""

    name: str
    critical_fo4: float
    capacitance_f: float
    base_area_um2: float


def config_constants(config: PipelineConfig) -> ConfigConstants:
    """The per-config inputs of :func:`close_point`."""
    return ConfigConstants(
        name=config.name,
        critical_fo4=critical_path_fo4(config),
        capacitance_f=effective_capacitance(config),
        base_area_um2=base_area_um2(config),
    )


class Corner(NamedTuple):
    """What one (VT, VDD) corner fixes for every design closed at it."""

    vt: VtFlavor
    vdd: float
    fo4_s: float
    vdd_sq: float
    #: Leakage of a design of the four-stage reference area.
    unit_leakage_w: float


def corner(vdd: float, vt: VtFlavor, tech: Technology = TECH65) -> Corner:
    """The per-corner inputs of :func:`close_point`."""
    return Corner(
        vt=vt,
        vdd=vdd,
        fo4_s=tech.fo4_delay(vdd, vt),
        vdd_sq=vdd ** 2,
        unit_leakage_w=tech.leakage_power(vdd, vt),
    )


def corner_fmax(critical_fo4: float, at: Corner) -> float:
    """:func:`fmax` of a design whose critical path is ``critical_fo4``."""
    return 1.0 / (critical_fo4 * at.fo4_s)


def target_terms(f_target_hz: float) -> tuple[float, float]:
    """A target's sizing factor and area growth, whatever the design."""
    size = sizing_factor(f_target_hz)
    return size, min(_AREA_GROWTH_CAP, max(1.0, size / 1.4))


def close_point(
    constants: ConfigConstants,
    at: Corner,
    f_target_hz: float,
    size: float,
    growth: float,
    ceiling: float,
) -> SynthesisResult:
    """Close one feasible point: ``0 < f_target_hz <= ceiling``, where
    ``ceiling`` is the design's :func:`corner_fmax` at corner ``at`` and
    ``(size, growth)`` the target's :func:`target_terms`.

    Only what depends on both the design and the target lives here
    (dynamic power, area pressure, leakage); :func:`synthesize` and
    :func:`repro.dse.sweep.close_grid` derive the per-config,
    per-corner and per-target inputs, so both close a point by this
    one formula.
    """
    dynamic = constants.capacitance_f * size * at.vdd_sq * f_target_hz
    area_pressure = 1.0 + _AREA_PRESSURE * max(
        0.0, (f_target_hz / ceiling - 0.6) / 0.4
    ) ** 2
    area = constants.base_area_um2 * area_pressure * growth
    leakage = at.unit_leakage_w * (area / comp.PIPE4_AREA_UM2)
    # Positional, in field order: a sweep builds thousands, and matching
    # ten keywords is a measurable share of each construction.
    return SynthesisResult(constants.name, at.vt, at.vdd, f_target_hz,
                           ceiling, area, dynamic + leakage, dynamic,
                           leakage, constants.critical_fo4)


def synthesize(
    config: PipelineConfig,
    vdd: float,
    vt: VtFlavor,
    f_target_hz: float,
    tech: Technology = TECH65,
) -> SynthesisResult:
    """Close one design point, or raise :class:`SynthesisError`.

    Mirrors the paper's per-point flow: each (voltage, frequency) pair is
    its own synthesis run with cells sized for that exact target.
    """
    constants = config_constants(config)
    at = corner(vdd, vt, tech)
    ceiling = corner_fmax(constants.critical_fo4, at)
    if f_target_hz > ceiling:
        raise SynthesisError(
            f"{config.name} cannot close {f_target_hz / 1e6:.0f} MHz at "
            f"{vdd:.1f} V {vt.value.upper()} (f_max {ceiling / 1e6:.0f} MHz)"
        )
    if f_target_hz <= 0:
        raise SynthesisError("target frequency must be positive")
    return close_point(constants, at, f_target_hz,
                       *target_terms(f_target_hz), ceiling)
