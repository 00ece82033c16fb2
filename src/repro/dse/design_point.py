"""One evaluated design point of the energy-delay space."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.vlsi.synthesis import SynthesisResult
from repro.vlsi.technology import VtFlavor


@dataclass(frozen=True, slots=True)
class DesignPoint:
    """A closed (microarchitecture, VT, VDD, frequency) point plus CPI.

    The paper's headline metrics fall out directly: delay per instruction
    (CPI over clock frequency) and energy per instruction (power times
    delay per instruction).  Both are set once, at construction, since
    every frontier sort reads them; equality, hashing, ``repr`` and
    ``dataclasses.replace`` see only ``synthesis`` and ``cpi``.  Slotted,
    like :class:`SynthesisResult`, because a sweep holds thousands.
    """

    synthesis: SynthesisResult
    cpi: float
    ns_per_instruction: float = field(init=False, compare=False, repr=False)
    pj_per_instruction: float = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        f = self.synthesis.f_target_hz
        object.__setattr__(self, "ns_per_instruction", self.cpi / f * 1e9)
        object.__setattr__(self, "pj_per_instruction",
                           self.synthesis.power_w * self.cpi / f * 1e12)

    @property
    def config_name(self) -> str:
        return self.synthesis.config_name

    @property
    def vt(self) -> VtFlavor:
        return self.synthesis.vt

    @property
    def vdd(self) -> float:
        return self.synthesis.vdd

    @property
    def frequency_hz(self) -> float:
        return self.synthesis.f_target_hz

    @property
    def energy_delay_product(self) -> float:
        """ED in pJ * ns."""
        return self.pj_per_instruction * self.ns_per_instruction

    @property
    def power_mw(self) -> float:
        return self.synthesis.power_w * 1e3

    @property
    def area_mm2(self) -> float:
        return self.synthesis.area_mm2

    @property
    def power_density_mw_per_mm2(self) -> float:
        return self.synthesis.power_density_mw_per_mm2

    def row(self) -> dict:
        """Flat record for reports (the Figure 8 parametric columns)."""
        return {
            "design": self.config_name,
            "vt": self.vt.value,
            "vdd": self.vdd,
            "mhz": self.frequency_hz / 1e6,
            "ns_per_instruction": self.ns_per_instruction,
            "pj_per_instruction": self.pj_per_instruction,
            "mw": self.power_mw,
            "mm2": self.area_mm2,
            "mw_per_mm2": self.power_density_mw_per_mm2,
            "ed": self.energy_delay_product,
            "cpi": self.cpi,
        }
