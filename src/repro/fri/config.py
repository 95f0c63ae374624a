"""FRI configuration (paper Figure 1 right, Section 2.2).

The two protocols differ only in parameters: Plonky2 uses a blowup
factor of at least 8 (``rate_bits = 3``) with few queries; Starky uses
blowup 2 (``rate_bits = 1``) with more queries.  Both target ~100 bits
of conjectured security via ``queries * rate_bits + proof_of_work_bits``.

Folding is committed every :data:`FRI_ARITY_BITS` arity-2 folds, as
Plonky2/Starky's ``ConstantArityBits`` reduction strategy does: one
Merkle tree per fold by 8, whose leaves are the 8-element cosets the
next layer's value is interpolated from.

The first layer may instead be *virtual* (:func:`initial_arity_bits`):
the batch commitments themselves hash the coset of rows a first fold
reads, so the verifier recomputes that layer from the opened rows and
no layer-0 tree is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from .proof import DIGEST_BYTES, ELEM_BYTES

#: log2 of the folding arity of one committed FRI layer (fold by 8).
FRI_ARITY_BITS = 3


@dataclass(frozen=True)
class FriConfig:
    """Parameters of the FRI low-degree test."""

    #: log2 of the blowup factor ``k`` (Plonky2: 3, Starky: 1).
    rate_bits: int = 3
    #: Merkle cap height used for every commitment.
    cap_height: int = 2
    #: Number of query rounds.
    num_queries: int = 28
    #: Grinding bits for the proof-of-work step.
    proof_of_work_bits: int = 8
    #: Stop folding once the degree bound is at most this many coefficients.
    final_poly_len: int = 8

    def __post_init__(self) -> None:
        if self.rate_bits < 1:
            raise ValueError("rate_bits must be >= 1")
        if self.cap_height < 0:
            raise ValueError("cap_height must be >= 0")
        if self.num_queries < 1:
            raise ValueError("num_queries must be >= 1")
        if self.final_poly_len < 1 or self.final_poly_len & (self.final_poly_len - 1):
            raise ValueError("final_poly_len must be a power of two")
        if self.proof_of_work_bits < 0 or self.proof_of_work_bits > 32:
            raise ValueError("proof_of_work_bits out of range")

    def check_cap_fits(self, degree_bits: int) -> None:
        """Reject a cap taller than a ``2**degree_bits``-row instance's LDE tree."""
        if self.cap_height > degree_bits + self.rate_bits:
            raise ValueError(
                f"cap_height {self.cap_height} exceeds the "
                f"{degree_bits + self.rate_bits}-level commitment tree"
            )

    def num_fold_rounds(self, degree_bits: int) -> int:
        """Fold rounds to reduce degree ``2**degree_bits`` to the final size."""
        final_bits = (self.final_poly_len - 1).bit_length()
        return max(0, degree_bits - final_bits)

    def fold_schedule(self, degree_bits: int) -> Tuple[int, ...]:
        """Arity bits of each committed layer, in commit order.

        :data:`FRI_ARITY_BITS` per layer, the last layer taking whatever
        of :meth:`num_fold_rounds` is left (1, 2 or 3 bits); empty when
        the degree bound is already at most ``final_poly_len``.
        """
        rounds = self.num_fold_rounds(degree_bits)
        return tuple(
            min(FRI_ARITY_BITS, rounds - done) for done in range(0, rounds, FRI_ARITY_BITS)
        )

    def conjectured_security_bits(self) -> int:
        """Conjectured soundness: one ``rate_bits`` per query plus grinding.

        The folding arity does not enter.  Under the conjecture every
        query is a ``1 / blowup`` test of the whole fold chain, however
        many arity-2 folds share one committed layer.  Arity only moves
        the commit-phase error: a layer of arity ``2**a`` over a domain
        ``D`` folds with one ``beta``, each folded value is a
        degree-``(2**a - 1)`` polynomial in ``beta``, and a union bound
        over ``D`` gives the provable per-layer term
        ``(2**a - 1) * |D| / |F_ext|``.
        For ``a = 3``, ``|D| <= 2**24`` and ``|F_ext| ~ 2**128`` that is
        below ``2**-101`` a layer, far under the query term.
        A virtual first layer (:func:`initial_arity_bits`) leaves both
        terms as they are: the same ``a`` folds run with one ``beta``
        over the same domain, and their inputs are bound by the batch
        caps directly instead of by a layer-0 cap plus a one-slot check.
        """
        return self.num_queries * self.rate_bits + self.proof_of_work_bits


def initial_arity_bits(
    config: FriConfig, degree_bits: int, leaf_widths: Sequence[int]
) -> int:
    """Arity bits the batch commitments' leaves carry: 0 or the first
    :meth:`FriConfig.fold_schedule` entry ``a``.

    With ``a``, every batch commits leaf ``i`` as the LDE rows
    ``i + j * N / 2**a`` for ``j < 2**a`` -- the coset the first fold
    reads -- so FRI folds it ``a`` times without committing layer 0.
    ``leaf_widths`` are the batches' public column counts (optional salt
    columns excluded): the verifier derives the layout from them, never
    from the proof.

    ``a`` is chosen only when it makes the FRI proof smaller under a
    per-query path count -- per query and batch ``(2**a - 1) * w`` more
    elements and ``a`` fewer path digests, against the layer-0 coset
    leaf, path and cap it removes (a tie keeps row leaves) -- and only
    when the ``N / 2**a``-leaf tree still holds ``cap_height``, so every
    config the row layout accepts still proves.

    The proof no longer sends one path per query: each tree is opened
    once as a shared-path multiproof, whose node count depends on where
    the queries land.  The per-path price is kept because it is a closed
    form the verifier can evaluate from public numbers alone, and it
    still picks the layout that is smaller under
    :meth:`~repro.fri.proof.FriProof.size_bytes` at every shape the
    tests pin (``test_cosets_are_chosen_exactly_when_the_proof_shrinks``).
    """
    schedule = config.fold_schedule(degree_bits)
    if not schedule:
        return 0
    a = schedule[0]
    depth = degree_bits + config.rate_bits - a  # the coset trees' depth
    if config.cap_height > depth:
        return 0
    grown = sum(((1 << a) - 1) * w * ELEM_BYTES - a * DIGEST_BYTES for w in leaf_widths)
    layer0 = (2 << a) * ELEM_BYTES + (depth - config.cap_height) * DIGEST_BYTES
    removed = config.num_queries * layer0 + (1 << config.cap_height) * DIGEST_BYTES
    return a if config.num_queries * grown < removed else 0


#: Plonky2's typical configuration (~100-bit conjectured security).
PLONKY2_CONFIG = FriConfig(rate_bits=3, cap_height=2, num_queries=28, proof_of_work_bits=16)

#: Starky's typical configuration (blowup 2, more queries).
STARKY_CONFIG = FriConfig(rate_bits=1, cap_height=2, num_queries=84, proof_of_work_bits=16)

#: Small parameters for fast functional tests (NOT sound).
TEST_CONFIG = FriConfig(rate_bits=3, cap_height=1, num_queries=8, proof_of_work_bits=4, final_poly_len=4)
