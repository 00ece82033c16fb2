"""65 nm general-purpose CMOS technology model.

Gate delay follows the alpha-power law ``d = A * V / (V - Vth)^alpha``
with an exponential near-/sub-threshold blend once the overdrive drops
below :data:`_BLEND_OVERDRIVE` — the standard compact-model shape for
voltage-scaled standard cells.  Three threshold flavors (LVT/SVT/HVT)
trade leakage against speed, exactly the knob the paper sweeps.

Calibration anchors (all from the paper):

* FO4(1.0 V, SVT) = 15.76 ps — from the T|D|X1|X2 design closing at
  1184 MHz with a 53.6 FO4 trigger-stage critical path (Section 5.4).
* FO4(1.0 V, LVT) = 9.44 ps — from the Pareto-fastest TDX1|X2 +Q point
  running at 1157 MHz across a 91.6 FO4 single-stage path (Figure 8).
* FO4(0.4 V, HVT) ~ 1.5 ns — so the deepest pipeline at the slowest
  characterized target (10 MHz, subthreshold high-VT refinement of
  Section 3) lands near the paper's 309 ns/instruction delay extreme.
* Leakage at 1.0 V: LVT ~ 1.05 mW, SVT ~ 0.08 mW, HVT ~ 0.004 mW per
  PE — fitted to the 47.59 pJ/instruction energy maximum (a leaky
  low-VT design crawling at 100 MHz) and the 0.89 / 0.67 pJ low-power
  extremes (Figure 8).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.errors import ConfigError


class VtFlavor(enum.Enum):
    """Standard-cell threshold-voltage flavor."""

    LVT = "lvt"
    SVT = "svt"
    HVT = "hvt"


_ALPHA = 1.3                 # velocity-saturation exponent
_BLEND_OVERDRIVE = 0.20      # V; below this the exponential blend engages
_BLEND_SLOPE = 0.0718        # V per e-fold of near-threshold slowdown

_VTH = {
    VtFlavor.LVT: 0.22,
    VtFlavor.SVT: 0.32,
    VtFlavor.HVT: 0.45,
}

# Fitted so FO4(1.0, SVT) = 15.76 ps and FO4(1.0, LVT) = 9.44 ps.
_DELAY_A = {
    VtFlavor.LVT: 9.436e-12 * (1.0 - _VTH[VtFlavor.LVT]) ** _ALPHA,
    VtFlavor.SVT: 15.76e-12 * (1.0 - _VTH[VtFlavor.SVT]) ** _ALPHA,
    VtFlavor.HVT: 21.0e-12 * (1.0 - _VTH[VtFlavor.HVT]) ** _ALPHA,
}

# PE-level leakage at 1.0 V (W); scales with V and a DIBL-style exponent.
_LEAK_1V = {
    VtFlavor.LVT: 1.05e-3,
    VtFlavor.SVT: 0.08e-3,
    VtFlavor.HVT: 0.004e-3,
}
_LEAK_DIBL_DECADES_PER_VOLT = 1.5

_VDD_MIN = 0.35
_VDD_MAX = 1.1


@dataclass(frozen=True)
class Technology:
    """One characterized technology corner family."""

    name: str = "tsmc65gp-model"

    def fo4_delay(self, vdd: float, vt: VtFlavor) -> float:
        """FO4 inverter delay in seconds at the given supply and flavor."""
        if not _VDD_MIN <= vdd <= _VDD_MAX:
            raise ConfigError(
                f"VDD {vdd} V outside the characterized range "
                f"[{_VDD_MIN}, {_VDD_MAX}]"
            )
        vth = _VTH[vt]
        overdrive = vdd - vth
        a = _DELAY_A[vt]
        if overdrive >= _BLEND_OVERDRIVE:
            return a * vdd / overdrive ** _ALPHA
        # Near/sub-threshold: alpha-power pinned at the blend point times
        # an exponential in the missing overdrive.
        base = a * vdd / _BLEND_OVERDRIVE ** _ALPHA
        return base * math.exp((_BLEND_OVERDRIVE - overdrive) / _BLEND_SLOPE)

    def leakage_power(self, vdd: float, vt: VtFlavor, area_scale: float = 1.0) -> float:
        """PE leakage power in watts (scaled by relative cell area)."""
        dibl = 10.0 ** (_LEAK_DIBL_DECADES_PER_VOLT * (vdd - 1.0))
        return _LEAK_1V[vt] * vdd * dibl * area_scale


TECH65 = Technology()
"""The calibrated 65 nm model used throughout the evaluation."""
