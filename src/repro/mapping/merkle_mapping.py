"""Merkle tree mapping (paper Section 5.3).

UniZK loads one scratchpad-sized subtree at a time and processes it
fully on-chip, level by level; same-level hashes pipeline through the
VSAs.  The level-order memory layout keeps both leaf reads and digest
writes sequential.

The subtree scheduler is emulated functionally (the subtree-built root
must equal the monolithic tree's root) and the cost model counts the
exact permutation total via :func:`repro.merkle.merkle_permutation_count`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hashing import sponge
from ..hw.config import HwConfig
from ..merkle import MerkleTree, merkle_permutation_count
from .base import KernelCost
from .poseidon_mapping import poseidon_cost

#: Bytes per digest in DRAM.
_DIGEST_BYTES = 32


@dataclass(frozen=True)
class SubtreePlan:
    """How the Merkle construction is chunked onto the scratchpad."""

    subtree_leaves: int
    num_subtrees: int
    top_levels: int


def plan_subtrees(
    num_leaves: int, leaf_width: int, hw: HwConfig, subtree_div_log2: int = 0
) -> SubtreePlan:
    """Choose the largest subtree whose leaves fit half the scratchpad.

    ``subtree_div_log2`` shrinks that subtree by a power of two (the
    autotuner's tiling knob; 0 reproduces the static default).
    """
    usable = hw.scratchpad_bytes // 2  # double buffered
    leaf_bytes = max(1, leaf_width) * 8
    max_leaves = max(2, usable // (leaf_bytes + 2 * _DIGEST_BYTES))
    subtree = 1
    while subtree * 2 <= min(max_leaves, num_leaves):
        subtree *= 2
    subtree = max(2, subtree >> max(0, subtree_div_log2))
    num_subtrees = max(1, num_leaves // subtree)
    top_levels = max(0, num_subtrees.bit_length() - 1)
    return SubtreePlan(
        subtree_leaves=subtree, num_subtrees=num_subtrees, top_levels=top_levels
    )


def emulate_subtree_construction(
    leaves: np.ndarray, subtree_leaves: int
) -> np.ndarray:
    """Build the root by fully processing one subtree at a time.

    Returns the root digest; must equal the monolithic tree's,
    ``MerkleTree(leaves).cap[0]``.
    """
    num = leaves.shape[0]
    if num % subtree_leaves:
        raise ValueError("leaf count must divide into whole subtrees")
    level = np.stack([
        MerkleTree(leaves[start : start + subtree_leaves]).cap[0]
        for start in range(0, num, subtree_leaves)
    ])
    while level.shape[0] > 1:
        parents = np.empty((level.shape[0] // 2, sponge.DIGEST_LEN), dtype=np.uint64)
        level = sponge.compress_level_into(level, parents)
    return level[0]


def merkle_cost(
    num_leaves: int,
    leaf_width: int,
    hw: HwConfig,
    cap_height: int = 0,
    name: str = "merkle",
    subtree_div_log2: int = 0,
    scheme: str = "sparse-12x3",
) -> KernelCost:
    """Cost of building a Merkle tree over (num_leaves, leaf_width) data.

    Traffic: read every leaf element once (subtree at a time), write
    every digest (level-order layout, ~2 digests per leaf).  Compute:
    the exact permutation count through the Poseidon throughput model.
    ``subtree_div_log2`` / ``scheme`` are the autotuner's knobs; the
    defaults reproduce the static mapping bit for bit.
    """
    perms = merkle_permutation_count(num_leaves, leaf_width, cap_height)
    read_bytes = num_leaves * leaf_width * 8
    write_bytes = 2 * num_leaves * _DIGEST_BYTES
    # Shrinking the subtree multiplies the drain/reload boundaries: the
    # extra subtree roots must round-trip DRAM before the top levels.
    base_plan = plan_subtrees(num_leaves, leaf_width, hw)
    plan = plan_subtrees(num_leaves, leaf_width, hw, subtree_div_log2)
    extra_root_bytes = 2 * _DIGEST_BYTES * max(
        0, plan.num_subtrees - base_plan.num_subtrees
    )
    cost = poseidon_cost(
        perms,
        hw,
        input_bytes=read_bytes,
        output_bytes=write_bytes + extra_root_bytes,
        name=name,
        scheme=scheme,
    )
    return KernelCost(
        name=name,
        kind=cost.kind,
        compute_cycles=cost.compute_cycles,
        mem_bytes=cost.mem_bytes,
        mem_efficiency=cost.mem_efficiency,
        mult_ops=cost.mult_ops,
        detail={
            "perms": perms,
            "leaves": num_leaves,
            "leaf_width": leaf_width,
            "subtree_leaves": plan.subtree_leaves,
            "scheme": scheme,
        },
    )
