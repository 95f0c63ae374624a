"""Poseidon hashing: permutation (naive + HADES-optimised), sponge,
and the duplex Fiat-Shamir challenger."""

from .challenger import Challenger
from .constants import (
    FULL_ROUNDS,
    PARTIAL_ROUNDS,
    SBOX_EXPONENT,
    WIDTH,
    mds_matrix,
    round_constants,
)
from .optimized import optimized_params, permute
from .poseidon import permute_naive
from .sponge import (
    CAPACITY,
    DIGEST_LEN,
    RATE,
    hash_batch,
    permutation_count,
)

__all__ = [
    "Challenger",
    "WIDTH",
    "FULL_ROUNDS",
    "PARTIAL_ROUNDS",
    "SBOX_EXPONENT",
    "RATE",
    "CAPACITY",
    "DIGEST_LEN",
    "mds_matrix",
    "round_constants",
    "permute",
    "permute_naive",
    "optimized_params",
    "hash_batch",
    "permutation_count",
]
