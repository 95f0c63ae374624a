"""FRI polynomial commitment scheme (commit, batch-open, verify)."""

from .config import (
    PLONKY2_CONFIG,
    STARKY_CONFIG,
    TEST_CONFIG,
    FriConfig,
    fri_layout,
)
from .proof import FriProof
from .prover import (
    FriOpenings,
    PolynomialBatch,
    fold_values,
    fri_prove,
    grind,
    open_batches,
)
from .verifier import FriError, fri_verify

__all__ = [
    "FriConfig",
    "PLONKY2_CONFIG",
    "STARKY_CONFIG",
    "TEST_CONFIG",
    "fri_layout",
    "FriProof",
    "PolynomialBatch",
    "FriOpenings",
    "open_batches",
    "fold_values",
    "fri_prove",
    "grind",
    "fri_verify",
    "FriError",
]
