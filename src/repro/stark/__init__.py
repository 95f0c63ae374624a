"""Starky-style STARK: AIR definitions, prover, verifier."""

from . import poseidon_air
from .air import Air, BaseVecAlgebra, BoundaryConstraint, ExtAlgebra
from .poseidon_air import PoseidonAir
from .proof import StarkProof
from .prover import prove, quotient_chunk_count
from .verifier import StarkError, verify

__all__ = [
    "Air",
    "BoundaryConstraint",
    "BaseVecAlgebra",
    "ExtAlgebra",
    "StarkProof",
    "PoseidonAir",
    "poseidon_air",
    "prove",
    "verify",
    "StarkError",
    "quotient_chunk_count",
]
