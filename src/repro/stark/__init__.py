"""Starky-style STARK: AIR definitions, prover, verifier."""

from . import poseidon_air
from .air import Air, BoundaryConstraint
from .poseidon_air import PoseidonAir
from .protocol import StarkError
from .prover import prove
from .verifier import verify

__all__ = [
    "Air",
    "BoundaryConstraint",
    "PoseidonAir",
    "poseidon_air",
    "prove",
    "verify",
    "StarkError",
]
