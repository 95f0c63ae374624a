"""Batched Merkle openings with shared-path deduplication.

FRI opens every committed tree at ~28-84 query indices; individual
authentication paths repeat the nodes near the root.  A *multiproof*
sends each needed node once: walking levels bottom-up, a node is
included only if it cannot be derived from the opened leaves and
previously included nodes.  HyperPlonk-lite ships one multiproof per
tree (proof format v2); the FRI proofs keep one path per query, and the
tests and benchmarks compare the two sizes.  Both shapes are checked by
the same kernel, :func:`repro.merkle.verify_paths`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..hashing import sponge
from .paths import PathOpening, verify_paths
from .tree import MerkleTree


@dataclass
class MerkleMultiProof:
    """One combined proof for several leaf indices.

    ``nodes`` lists the sibling digests in verification order: the
    verifier walks levels bottom-up, consuming one digest whenever a
    needed child is neither an opened leaf nor a previously derived
    node.
    """

    indices: Tuple[int, ...]
    nodes: np.ndarray  # (k, 4) digests in consumption order

    def size_bytes(self) -> int:
        """Serialized digest payload."""
        return int(self.nodes.size) * 8


def prove_multi(tree: MerkleTree, indices: Sequence[int]) -> MerkleMultiProof:
    """Build a deduplicated proof for ``indices``."""
    num = tree.num_leaves()
    idx = sorted(set(int(i) for i in indices))
    for i in idx:
        if not 0 <= i < num:
            raise IndexError(f"leaf index {i} out of range")
    nodes: List[np.ndarray] = []
    frontier = idx
    for level in tree.levels[:-1]:
        next_frontier: List[int] = []
        known = set(frontier)
        for i in frontier:
            parent = i >> 1
            if next_frontier and next_frontier[-1] == parent:
                continue  # sibling pair already handled together
            sibling = i ^ 1
            if sibling not in known:
                nodes.append(level[sibling])
            next_frontier.append(parent)
        frontier = next_frontier
    stacked = (
        np.stack(nodes)
        if nodes
        else np.zeros((0, sponge.DIGEST_LEN), dtype=np.uint64)
    )
    return MerkleMultiProof(indices=tuple(idx), nodes=stacked)


def verify_multi(
    leaves: Dict[int, np.ndarray],
    proof: MerkleMultiProof,
    cap: np.ndarray,
    tree_depth: int,
    cap_height: int = 0,
) -> bool:
    """Verify a multiproof against a cap.

    ``leaves`` maps each opened index to its raw leaf row and must cover
    exactly ``proof.indices``.  The one-opening call of
    :func:`repro.merkle.verify_paths`, which recomputes the leaf
    digests, combines them with ``proof.nodes`` in consumption order
    (every node must be consumed) and compares the derived cap entries;
    malformed input is ``False``, never an exception.
    """
    try:
        indices = tuple(proof.indices)
        if sorted(leaves) != list(indices):
            return False
        rows = [leaves[i] for i in indices]
    except TypeError:
        return False
    opening = PathOpening(rows, indices, proof.nodes, cap, tree_depth - cap_height)
    return bool(verify_paths([opening])[0])


def individual_paths_bytes(tree: MerkleTree, indices: Sequence[int]) -> int:
    """Digest payload of separate per-index proofs (for comparison)."""
    return sum(len(tree.prove(i).siblings) * 32 for i in set(indices))
