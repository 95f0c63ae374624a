"""Merkle commitments with Plonky2-style caps and batched multiproofs."""

from . import multiproof
from .multiproof import MerkleMultiProof, prove_multi, verify_multi
from .paths import PathOpening, verify_paths
from .tree import (
    MerkleProof,
    MerkleTree,
    level_sizes,
    merkle_permutation_count,
    verify_proof,
)

__all__ = [
    "MerkleTree",
    "MerkleProof",
    "verify_proof",
    "level_sizes",
    "merkle_permutation_count",
    "multiproof",
    "MerkleMultiProof",
    "prove_multi",
    "verify_multi",
    "PathOpening",
    "verify_paths",
]
