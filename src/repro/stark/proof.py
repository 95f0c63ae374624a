"""STARK proof container and its body codec."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..fri import FriProof
from ..fri.proof import DIGEST_BYTES, ELEM_BYTES
from ..serialize import (
    ByteReader,
    ByteWriter,
    read_cap,
    read_ext_array,
    read_fri_proof,
    write_fri_proof,
)


@dataclass
class StarkProof:
    """A complete Starky-style proof with FRI openings.

    ``opened_values`` is the opening set's
    :meth:`~repro.fri.FriOpenings.flat_values`: one ``(c0, c1)`` row per
    column of :func:`~repro.stark.prover.opening_columns`, at ``zeta``
    then at ``zeta * omega``.  The points and columns are not sent; the
    verifier derives both.
    """

    trace_cap: np.ndarray
    quotient_cap: np.ndarray
    public_inputs: List[int]
    degree_bits: int
    opened_values: np.ndarray  # (k, 2)
    fri_proof: FriProof

    def size_bytes(self) -> int:
        """Serialized proof size."""
        total = self.trace_cap.shape[0] * DIGEST_BYTES
        total += self.quotient_cap.shape[0] * DIGEST_BYTES
        total += len(self.public_inputs) * ELEM_BYTES
        total += int(self.opened_values.size) * ELEM_BYTES
        total += self.fri_proof.size_bytes()
        return total

    def to_bytes(self) -> bytes:
        """Raw canonical proof body (digests are defined over this)."""
        w = ByteWriter()
        w.elems(self.trace_cap)
        w.elems(self.quotient_cap)
        w.u32(self.degree_bits)
        w.u64s(self.public_inputs)
        w.elems(self.opened_values)
        write_fri_proof(w, self.fri_proof)
        return w.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "StarkProof":
        """Decode a raw proof body (typed ``ValueError`` on bad input)."""
        r = ByteReader(data)
        trace_cap = read_cap(r, "trace cap")
        quotient_cap = read_cap(r, "quotient cap")
        degree_bits = r.u32()
        publics = [r.u64() for _ in range(r.count(8, "public input count"))]
        opened_values = read_ext_array(r, "opened values")
        fri_proof = read_fri_proof(r)
        if not r.done():
            raise ValueError("trailing bytes after STARK proof")
        return cls(
            trace_cap=trace_cap,
            quotient_cap=quotient_cap,
            public_inputs=publics,
            degree_bits=degree_bits,
            opened_values=opened_values,
            fri_proof=fri_proof,
        )
