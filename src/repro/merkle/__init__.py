"""Merkle commitments with Plonky2-style caps and batched multiproofs."""

from . import multiproof
from .multiproof import (
    MerkleMultiProof,
    TreeOpening,
    check_opening,
    open_tree,
    prove_multi,
    verify_multi,
    verify_proof,
)
from .paths import PathOpening, verify_paths
from .tree import MerkleTree, level_sizes, merkle_permutation_count

__all__ = [
    "MerkleTree",
    "level_sizes",
    "merkle_permutation_count",
    "multiproof",
    "MerkleMultiProof",
    "TreeOpening",
    "open_tree",
    "check_opening",
    "prove_multi",
    "verify_multi",
    "verify_proof",
    "PathOpening",
    "verify_paths",
]
