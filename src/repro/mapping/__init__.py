"""Kernel mapping: closed-form cycle models that map a kernel's shape
to cycles and DRAM traffic, the knobs the autotuner searches, the
PE-grid microcode schedules the sanitizer vets, and one functional
emulator (a sum-check round in the VSA's vector mode)."""

from .base import (
    ALL_KINDS,
    KIND_HASH,
    KIND_NTT,
    KIND_POLY,
    KIND_TRANSFORM,
    KernelCost,
)
from .merkle_mapping import merkle_cost, plan_subtrees
from .params import (
    DEFAULT_MAPPING,
    MappingParams,
    MerkleMapping,
    NttMapping,
    PolyMapping,
    PoseidonMapping,
)
from .ntt_mapping import (
    NTT_MEM_EFFICIENCY,
    lde_cost,
    ntt_cost,
    ntt_dims,
)
from .poly_mapping import (
    elementwise_cost,
    gate_access_efficiency,
    gate_eval_cost,
    partial_products_cost,
)
from .poseidon_mapping import (
    PERM_MULTS,
    PERM_PE_CYCLES,
    ROUND_SCHEMES,
    RoundScheme,
    chip_perm_throughput,
    poseidon_cost,
)
from .sumcheck_mapping import emulate_sumcheck_round, sumcheck_cost

__all__ = [
    "KernelCost",
    "ALL_KINDS",
    "MappingParams",
    "NttMapping",
    "PoseidonMapping",
    "MerkleMapping",
    "PolyMapping",
    "DEFAULT_MAPPING",
    "ROUND_SCHEMES",
    "RoundScheme",
    "KIND_NTT",
    "KIND_HASH",
    "KIND_POLY",
    "KIND_TRANSFORM",
    "ntt_cost",
    "lde_cost",
    "ntt_dims",
    "NTT_MEM_EFFICIENCY",
    "poseidon_cost",
    "chip_perm_throughput",
    "PERM_PE_CYCLES",
    "PERM_MULTS",
    "merkle_cost",
    "plan_subtrees",
    "elementwise_cost",
    "gate_eval_cost",
    "gate_access_efficiency",
    "partial_products_cost",
    "sumcheck_cost",
    "emulate_sumcheck_round",
]
