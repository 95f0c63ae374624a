"""Plonk protocol: circuits, permutation argument, prover, verifier."""

from . import gadgets, gadgets_ext, recursion
from .circuit import Circuit, CircuitBuilder, Variable
from .permutation import (
    CHUNK_SIZE,
    check_copy_constraints,
    compute_z,
    id_values,
    partial_products,
    quotient_chunk_products,
    sigma_values,
)
from .proof import CircuitData, VerifierData
from .protocol import PlonkError
from .prover import prove, setup
from .verifier import verify

__all__ = [
    "gadgets",
    "gadgets_ext",
    "recursion",
    "CircuitBuilder",
    "Circuit",
    "Variable",
    "CircuitData",
    "VerifierData",
    "setup",
    "prove",
    "verify",
    "PlonkError",
    "compute_z",
    "partial_products",
    "quotient_chunk_products",
    "id_values",
    "sigma_values",
    "check_copy_constraints",
    "CHUNK_SIZE",
]
