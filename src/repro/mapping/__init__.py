"""Kernel mapping strategies: functional emulators + cycle models."""

from .base import (
    ALL_KINDS,
    KIND_HASH,
    KIND_NTT,
    KIND_POLY,
    KIND_TRANSFORM,
    KernelCost,
)
from .merkle_mapping import emulate_subtree_construction, merkle_cost, plan_subtrees
from .params import (
    DEFAULT_MAPPING,
    MappingParams,
    MerkleMapping,
    NttMapping,
    PolyMapping,
    PoseidonMapping,
)
from .ntt_mapping import (
    MdcPipeline,
    NTT_MEM_EFFICIENCY,
    emulate_pipeline_matches_reference,
    lde_cost,
    ntt_cost,
    ntt_dims,
)
from .poly_mapping import (
    elementwise_cost,
    emulate_partial_products_3step,
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
    emulate_full_round_matches,
    emulate_partial_rounds_match,
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
    "MdcPipeline",
    "ntt_cost",
    "lde_cost",
    "ntt_dims",
    "NTT_MEM_EFFICIENCY",
    "emulate_pipeline_matches_reference",
    "poseidon_cost",
    "chip_perm_throughput",
    "PERM_PE_CYCLES",
    "PERM_MULTS",
    "emulate_full_round_matches",
    "emulate_partial_rounds_match",
    "merkle_cost",
    "plan_subtrees",
    "emulate_subtree_construction",
    "elementwise_cost",
    "gate_eval_cost",
    "gate_access_efficiency",
    "partial_products_cost",
    "emulate_partial_products_3step",
    "sumcheck_cost",
    "emulate_sumcheck_round",
]
