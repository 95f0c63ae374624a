"""Plonk setup artifacts: the prover's and the verifier's."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..fri import FriConfig, PolynomialBatch
from .circuit import Circuit


@dataclass
class CircuitData:
    """Setup output: the circuit plus its preprocessed commitment.

    The preprocessed batch commits the 5 selector and 3 sigma
    polynomials; its cap acts as the circuit digest both parties bind to.
    ``sigmas`` / ``ids`` cache the permuted and identity position
    labels (``k_j * omega^i``, shape (3, n)) computed during setup, so
    the prover does not re-derive them per proof.  Every array is
    read-only; ``config`` is ``None`` on an unbound
    :func:`~repro.plonk.prover.preprocess` result.
    """

    circuit: Circuit
    preprocessed: PolynomialBatch
    config: Optional[FriConfig]
    sigmas: np.ndarray
    ids: np.ndarray

    @property
    def verifier_data(self) -> "VerifierData":
        """The subset of setup data the verifier needs."""
        return VerifierData(
            preprocessed_cap=self.preprocessed.cap.copy(),
            n=self.circuit.n,
            public_input_rows=list(self.circuit.public_input_rows),
            config=self.config,
        )


@dataclass
class VerifierData:
    """Everything the verifier must know about a circuit."""

    preprocessed_cap: np.ndarray
    n: int
    public_input_rows: List[int]
    config: FriConfig
