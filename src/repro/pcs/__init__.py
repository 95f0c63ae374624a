"""Polynomial commitment schemes (the commitment plane).

:class:`FriPCS` -- the univariate scheme both the STARK and Plonk
backends run on (low-degree extension + Merkle caps + batch FRI opening
proof) -- and :class:`MultilinearPCS` -- Merkle-committed hypercube
tables with *no NTT anywhere*, which the sumcheck-native HyperPlonk-lite
backend commits through.  The two open differently (a batch evaluation
proof at out-of-domain points vs. index openings plus fold-consistency
spot checks), so each protocol calls its scheme's own methods; what they
share is the opening shape, one :class:`~repro.merkle.TreeOpening` per
opened tree, checked by :func:`repro.merkle.verify_paths`.
"""

from .fri import FriPCS
from .multilinear import MultilinearPCS, eq_at, eq_table

__all__ = [
    "FriPCS",
    "MultilinearPCS",
    "eq_at",
    "eq_table",
]
