"""Polynomial-commitment-scheme (PCS) interface.

A small interface so protocol backends choose their commitment plane:

* :class:`repro.pcs.fri.FriPCS` -- the univariate scheme both the STARK
  and Plonk backends run on (low-degree extension + Merkle caps + batch
  FRI opening proof);
* :class:`repro.pcs.multilinear.MultilinearPCS` -- a Merkle-committed
  multilinear scheme with *no NTT anywhere*: tables over the boolean
  hypercube commit row-wise, and openings are plain authentication
  paths.  The sumcheck-native HyperPlonk-lite backend commits its wire
  /permutation tables and its per-round folded sumcheck levels through
  it.

The two schemes open differently (a batch evaluation proof at
out-of-domain points vs. index openings plus fold-consistency spot
checks), so the shared surface is deliberately small: *commit* rows to
a cap, *open* a position, *verify* an opening.  Everything
opening-protocol-specific stays on the concrete class.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


class PCS(ABC):
    """Minimal common surface of a polynomial commitment scheme."""

    #: Registry-facing scheme name ("fri", "multilinear").
    name: str = "?"

    @abstractmethod
    def commit(self, rows: np.ndarray, label: str = "pcs") -> object:
        """Commit a batch of rows; returns a commitment with a ``cap``."""

    @abstractmethod
    def open(self, commitment: object, index: int):
        """Open one committed position; returns ``(values, proof)``."""

    @staticmethod
    @abstractmethod
    def verify_opening(
        values: np.ndarray, index: int, proof: object, cap: np.ndarray
    ) -> bool:
        """Check one opening against a commitment cap."""
