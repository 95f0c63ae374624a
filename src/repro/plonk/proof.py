"""Plonk proof container (with its body codec) and setup artifacts."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..fri import FriConfig, FriProof, PolynomialBatch
from ..fri.proof import DIGEST_BYTES, ELEM_BYTES
from ..serialize import (
    ByteReader,
    ByteWriter,
    read_cap,
    read_ext_array,
    read_fri_proof,
    write_fri_proof,
)
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
            num_public_inputs=len(self.circuit.public_input_rows),
            public_input_rows=list(self.circuit.public_input_rows),
            config=self.config,
        )


@dataclass
class VerifierData:
    """Everything the verifier must know about a circuit."""

    preprocessed_cap: np.ndarray
    n: int
    num_public_inputs: int
    public_input_rows: List[int]
    config: FriConfig


@dataclass
class PlonkProof:
    """A complete Plonk proof with FRI openings.

    ``opened_values`` is the opening set's
    :meth:`~repro.fri.FriOpenings.flat_values`: one ``(c0, c1)`` row per
    column of :data:`~repro.plonk.prover.OPENING_COLUMNS`, at ``zeta``
    then at ``zeta * omega``.  The points and columns are not sent; the
    verifier derives both.
    """

    wires_cap: np.ndarray
    z_cap: np.ndarray
    quotient_cap: np.ndarray
    public_inputs: List[int]
    opened_values: np.ndarray  # (k, 2)
    fri_proof: FriProof

    def size_bytes(self) -> int:
        """Serialized proof size (caps + openings + FRI proof)."""
        total = 0
        for cap in (self.wires_cap, self.z_cap, self.quotient_cap):
            total += cap.shape[0] * DIGEST_BYTES
        total += len(self.public_inputs) * ELEM_BYTES
        total += int(self.opened_values.size) * ELEM_BYTES
        total += self.fri_proof.size_bytes()
        return total

    def to_bytes(self) -> bytes:
        """Raw canonical proof body (digests are defined over this)."""
        w = ByteWriter()
        w.elems(self.wires_cap)
        w.elems(self.z_cap)
        w.elems(self.quotient_cap)
        w.u64s(self.public_inputs)
        w.elems(self.opened_values)
        write_fri_proof(w, self.fri_proof)
        return w.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "PlonkProof":
        """Decode a raw proof body (typed ``ValueError`` on bad input)."""
        r = ByteReader(data)
        wires_cap = read_cap(r, "wires cap")
        z_cap = read_cap(r, "Z cap")
        quotient_cap = read_cap(r, "quotient cap")
        publics = [r.u64() for _ in range(r.count(8, "public input count"))]
        opened_values = read_ext_array(r, "opened values")
        fri_proof = read_fri_proof(r)
        if not r.done():
            raise ValueError("trailing bytes after Plonk proof")
        return cls(
            wires_cap=wires_cap,
            z_cap=z_cap,
            quotient_cap=quotient_cap,
            public_inputs=publics,
            opened_values=opened_values,
            fri_proof=fri_proof,
        )
