"""UniZK hardware model: configuration, DRAM timing, scratchpad,
VSA emulation, transpose buffer, twiddle generator, area/power."""

from . import microcode
from .area_power import ChipBudget, ComponentCost, chip_budget
from .config import DEFAULT_CONFIG, HwConfig
from .memory import DramModel, HbmTimings, measured_efficiencies
from .scratchpad import TilePlan, tile_plan
from .transpose import TransposeBuffer
from .twiddle import TwiddleGenerator
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
    "TransposeBuffer",
    "TwiddleGenerator",
    "Vsa",
    "VsaSpec",
    "PeSpec",
    "SystolicResult",
    "ChipBudget",
    "ComponentCost",
    "chip_budget",
]
