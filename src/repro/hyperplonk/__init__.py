"""Sumcheck-native HyperPlonk-lite backend (no NTT on the hot path).

Proves the same circuits as :mod:`repro.plonk` but replaces the
LDE/quotient/FRI machinery with a committed zerocheck: multilinear
Merkle commitments (:class:`repro.pcs.MultilinearPCS`), the sum-check
protocol (:mod:`repro.sumcheck`), and FRI-style fold-consistency
queries over the committed sumcheck levels.
"""

from .proof import (
    HyperPlonkConfig,
    HyperPlonkData,
    HyperPlonkProof,
    HyperPlonkVerifierData,
)
from .prover import prove, setup
from .verifier import HyperPlonkError, verify

__all__ = [
    "HyperPlonkConfig",
    "HyperPlonkData",
    "HyperPlonkVerifierData",
    "HyperPlonkProof",
    "HyperPlonkError",
    "setup",
    "prove",
    "verify",
]
