"""FRI proof container and size accounting.

The size accounting matters for reproduction: Table 5 of the paper
reports proof sizes (hundreds of kB for Starky base proofs, ~155 kB for
recursive Plonky2 proofs), and our sizes are computed from the same
structural inventory (Merkle caps, query openings, final polynomial,
grinding witness), shape words included: ``size_bytes()`` is the
serialized length.  The paper's Plonky2 sends one authentication path
per query per tree; this proof opens each tree once, at all of its
queries, as a shared-path multiproof (:class:`~repro.merkle.TreeOpening`).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import List

import numpy as np

from ..merkle import TreeOpening
from ..merkle.multiproof import ELEM_BYTES, WORD_BYTES, array_bytes

#: Bytes per Poseidon digest (4 elements).
DIGEST_BYTES = 4 * ELEM_BYTES


@dataclass
class FriProof:
    """A complete FRI batch-opening proof.

    ``batch_openings[b]`` opens batch ``b``'s tree and
    ``layer_openings[k]`` the tree under ``commit_caps[k]``, each at
    the distinct leaves the transcript's query indices reach in it
    (position ``p`` opens leaf ``p % num_leaves``).  A layer of arity
    ``2**a`` over ``N`` values commits leaf ``i`` as the coset
    ``v[i + j * N / 2**a]`` for ``j < 2**a``: ``2**(a + 1)`` elements,
    the two limbs of each extension value in ``j`` order.

    That is all a FRI proof carries: the layer caps, the final
    polynomial, the grinding witness, and per tree its opened rows (in
    ascending leaf order) and shared path nodes.  The query indices,
    and with them which leaf each row is, are not sent: the verifier
    draws them from the transcript.  Nor is any value the verifier
    folds: a layer opening's ``rows`` are the ``(m, 2)`` extension
    values of its opened cosets less the slot each query folds from
    the layer below (:func:`~repro.fri.prover.folded_slots`), leaf
    after leaf and slot after slot.
    """

    commit_caps: List[np.ndarray]  # caps of the commit-phase layer trees
    final_poly: np.ndarray  # (final_len, 2) extension coefficients
    pow_witness: int
    batch_openings: List[TreeOpening]
    layer_openings: List[TreeOpening]

    def tree_openings(self) -> List[TreeOpening]:
        """Every tree opening, batches first then fold layers."""
        return [*self.batch_openings, *self.layer_openings]

    @property
    def query_rounds(self) -> list:
        """Read-only per-index view of the batch openings: entry ``k``
        has ``.initial.leaves``, the ``k``-th opened row of each batch.

        Only ``bench/layers.py`` reads it (the widest committed leaf of
        a workload); the verifier and the codec use the tree openings.
        """
        rows = [op.rows for op in self.batch_openings]
        return [
            SimpleNamespace(initial=SimpleNamespace(leaves=[r[k] for r in rows]))
            for k in range(len(rows[0]) if rows else 0)
        ]

    def size_bytes(self) -> int:
        """Serialized size: the bytes ``serialize.write_fri_proof`` writes."""
        total = WORD_BYTES + sum(array_bytes(cap) for cap in self.commit_caps)
        total += array_bytes(self.final_poly) + ELEM_BYTES  # and the pow witness
        total += 2 * WORD_BYTES + sum(op.size_bytes() for op in self.batch_openings)
        return total + sum(op.size_bytes(2) for op in self.layer_openings)
