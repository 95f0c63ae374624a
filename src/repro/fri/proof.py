"""FRI proof containers and size accounting.

The size accounting matters for reproduction: Table 5 of the paper
reports proof sizes (hundreds of kB for Starky base proofs, ~155 kB for
recursive Plonky2 proofs), and our sizes are computed from the same
structural inventory (Merkle caps, query paths, final polynomial,
grinding witness).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

#: Bytes per field element.
ELEM_BYTES = 8
#: Bytes per Poseidon digest (4 elements).
DIGEST_BYTES = 4 * ELEM_BYTES


@dataclass
class FriInitialOpening:
    """Openings of every original commitment at one query index."""

    #: one (leaf_row, proof) pair per committed batch
    leaves: List[np.ndarray]
    proofs: List["object"]  # MerkleProof; typed loosely to avoid cycle


@dataclass
class FriLayerOpening:
    """Opening of one commit-phase layer at one query index.

    A layer of arity ``2**a`` over ``N`` values commits leaf ``i`` as
    the coset ``v[i + j * N / 2**a]`` for ``j < 2**a``: ``2**(a + 1)``
    elements, the two limbs of each extension value in ``j`` order.
    """

    coset_leaf: np.ndarray
    proof: "object"


@dataclass
class FriQueryRound:
    """All openings belonging to one query index."""

    index: int
    initial: FriInitialOpening
    layers: List[FriLayerOpening]


@dataclass
class FriProof:
    """A complete FRI batch-opening proof."""

    commit_caps: List[np.ndarray]  # caps of the commit-phase layer trees
    final_poly: np.ndarray  # (final_len, 2) extension coefficients
    pow_witness: int
    query_rounds: List[FriQueryRound] = field(default_factory=list)

    def size_bytes(self) -> int:
        """Serialized size: every element/digest the verifier receives."""
        total = 0
        for cap in self.commit_caps:
            total += cap.shape[0] * DIGEST_BYTES
        total += self.final_poly.size * ELEM_BYTES
        total += ELEM_BYTES  # pow witness
        for qr in self.query_rounds:
            for leaf, proof in zip(qr.initial.leaves, qr.initial.proofs):
                total += leaf.size * ELEM_BYTES
                total += len(proof.siblings) * DIGEST_BYTES
            for layer in qr.layers:
                total += layer.coset_leaf.size * ELEM_BYTES
                total += len(layer.proof.siblings) * DIGEST_BYTES
        return total
