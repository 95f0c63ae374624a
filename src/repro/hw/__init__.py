"""UniZK hardware model: configuration, DRAM timing, scratchpad,
VSA vector mode, PE-grid microcode, area/power.

The transpose buffer and twiddle generator are configuration fields
priced by :mod:`.area_power`; the NTT cost model
(:mod:`repro.mapping.ntt_mapping`) assumes their throughput."""

from . import microcode
from .area_power import ChipBudget, ComponentCost, chip_budget
from .config import DEFAULT_CONFIG, HwConfig
from .memory import DramModel, HbmTimings, measured_efficiencies
from .scratchpad import TilePlan, tile_plan
from .vsa import PeSpec, SystolicResult, Vsa, VsaSpec

__all__ = [
    "microcode",
    "HwConfig",
    "DEFAULT_CONFIG",
    "DramModel",
    "HbmTimings",
    "measured_efficiencies",
    "TilePlan",
    "tile_plan",
    "Vsa",
    "VsaSpec",
    "PeSpec",
    "SystolicResult",
    "ChipBudget",
    "ComponentCost",
    "chip_budget",
]
