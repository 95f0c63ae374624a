"""FRI configuration (paper Figure 1 right, Section 2.2).

The two protocols differ only in parameters: Plonky2 uses a blowup
factor of at least 8 (``rate_bits = 3``) with few queries; Starky uses
blowup 2 (``rate_bits = 1``) with more queries.  Conjectured security
is ``queries * rate_bits + proof_of_work_bits``
(:meth:`FriConfig.conjectured_security_bits`): 100 bits for
:data:`PLONKY2_CONFIG` and :data:`STARKY_CONFIG`, but the registry
defaults (``repro.protocols``) ship only 13 bits (STARK) and 28 bits
(Plonk), and a default STARK proof has been forged in 1.8 s (ROADMAP
items 19 and 21).

Folding is committed every :data:`FRI_ARITY_BITS` arity-2 folds, as
Plonky2/Starky's ``ConstantArityBits`` reduction strategy does: one
Merkle tree per fold by 8, whose leaves are the 8-element cosets the
next layer's value is interpolated from.

The first layer may instead be *virtual* (:func:`fri_layout`): the
batch commitments themselves hash the coset of rows a first fold by
``2**a`` reads, so the verifier recomputes that layer from the opened
rows and no layer-0 tree is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Sequence, Tuple

from ..merkle import merkle_permutation_count
from .proof import DIGEST_BYTES, ELEM_BYTES, WORD_BYTES

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

    def check_quotient_fits(self, chunks: int) -> None:
        """Reject a blowup smaller than a quotient's ``chunks`` chunks."""
        if chunks > 1 << self.rate_bits:
            raise ValueError(
                "constraint degree too high for the blowup factor "
                f"(need {chunks} chunks, blowup {1 << self.rate_bits})"
            )

    def num_fold_rounds(self, degree_bits: int) -> int:
        """Fold rounds to reduce degree ``2**degree_bits`` to the final size."""
        final_bits = (self.final_poly_len - 1).bit_length()
        return max(0, degree_bits - final_bits)

    def fold_schedule(self, degree_bits: int, coset_bits: int = 0) -> Tuple[int, ...]:
        """Arity bits of each FRI layer, in fold order.

        ``coset_bits`` ``a > 0`` puts a first entry ``a``: the virtual
        layer the batches' ``2**a``-row coset leaves hold.  Every layer
        after it is committed, :data:`FRI_ARITY_BITS` each, the last
        taking whatever of :meth:`num_fold_rounds` is left (1, 2 or 3
        bits); empty when the degree bound is already at most
        ``final_poly_len``.  :func:`fri_layout` picks ``a``.
        """
        rounds = self.num_fold_rounds(degree_bits)
        if not 0 <= coset_bits <= min(FRI_ARITY_BITS, rounds):
            raise ValueError(f"coset_bits {coset_bits} outside [0, {min(FRI_ARITY_BITS, rounds)}]")
        rest = rounds - coset_bits
        head = (coset_bits,) if coset_bits else ()
        return head + tuple(
            min(FRI_ARITY_BITS, rest - done) for done in range(0, rest, FRI_ARITY_BITS)
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
        A virtual first layer (:func:`fri_layout`) leaves both terms as
        they are: its ``a <= 3`` folds run with one ``beta`` over the
        same domain, and their inputs are bound by the batch caps
        directly instead of by a layer-0 cap plus a one-slot check.
        """
        return self.num_queries * self.rate_bits + self.proof_of_work_bits


def fri_layout(
    config: FriConfig, degree_bits: int, leaf_widths: Sequence[int]
) -> Tuple[int, Tuple[int, ...]]:
    """The batches' leaf layout and the FRI fold schedule: ``(a, schedule)``.

    With ``a > 0`` every batch commits leaf ``i`` as the LDE rows
    ``i + j * N / 2**a`` for ``j < 2**a`` -- the coset a first fold by
    ``2**a`` reads -- so FRI folds it without committing a layer for
    it, and ``schedule`` is :meth:`FriConfig.fold_schedule` of ``a``:
    ``(a, 3, 3, ..., remainder)``.  With ``a = 0`` the batches commit
    one row a leaf and every layer of ``(3, 3, ..., remainder)`` is
    committed.  ``leaf_widths`` are the batches' public column counts
    (optional salt columns excluded): the verifier derives the layout
    from them and the config, never from the proof.

    ``a`` ranges over ``0 .. min(FRI_ARITY_BITS, num_fold_rounds)``,
    less any ``a`` whose ``N / 2**a``-leaf tree cannot hold
    ``cap_height``.  Of those, the ones whose expected proof
    (:func:`expected_proof_bytes`, query positions uniform, every tree
    opened as one shared-path multiproof) is within
    :data:`LAYOUT_BYTES_TOLERANCE` of the smallest compete, and the one
    whose trees cost the fewest prover permutations
    (:func:`prover_permutations`) wins; a tie goes to the fewer
    expected bytes, then to the smaller ``a``.  The price is exact
    rational arithmetic over public numbers, so every platform derives
    the same layout.
    """
    return _fri_layout(config, degree_bits, tuple(leaf_widths))


#: How far above the smallest expected proof :func:`fri_layout` may go
#: for fewer prover permutations: 1 %, the ``proof_bytes`` bound a
#: change may move a benchmarked proof by (ROADMAP item 19(ii)).
LAYOUT_BYTES_TOLERANCE = Fraction(1, 100)


@lru_cache(maxsize=256)
def _fri_layout(
    config: FriConfig, degree_bits: int, leaf_widths: Tuple[int, ...]
) -> Tuple[int, Tuple[int, ...]]:
    top = min(FRI_ARITY_BITS, config.num_fold_rounds(degree_bits))
    priced = {
        a: expected_proof_bytes(config, degree_bits, leaf_widths, a)
        for a in range(top + 1)
        if not a or config.cap_height <= degree_bits + config.rate_bits - a
    }
    ceiling = min(priced.values()) * (1 + LAYOUT_BYTES_TOLERANCE)
    a = min(
        (a for a, size in priced.items() if size <= ceiling),
        key=lambda a: (prover_permutations(config, degree_bits, leaf_widths, a), priced[a], a),
    )
    return a, config.fold_schedule(degree_bits, a)


def _trees(
    config: FriConfig, degree_bits: int, leaf_widths: Sequence[int], coset_bits: int
) -> List[Tuple[int, int, int]]:
    """``(leaves, leaf width, cap height)`` of every tree the layout
    commits: the batches, then each committed FRI layer (extension
    values, so two elements a slot)."""
    size = 1 << (degree_bits + config.rate_bits)
    trees = [(size >> coset_bits, w << coset_bits, config.cap_height) for w in leaf_widths]
    for k, bits in enumerate(config.fold_schedule(degree_bits, coset_bits)):
        size >>= bits
        if k or not coset_bits:
            trees.append((size, 2 << bits, min(config.cap_height, size.bit_length() - 1)))
    return trees


@lru_cache(maxsize=4096)
def _untouched(num: int, den: int, queries: int) -> Fraction:
    """``(1 - num/den)**queries``: the chance ``queries`` uniform draws
    from ``den`` values all miss ``num`` given ones."""
    return Fraction(den - num, den) ** queries


def expected_opening_bytes(
    leaves: int, width: int, cap_height: int, queries: int, folded: bool = False
) -> Fraction:
    """Expected bytes of one tree's shared-path opening at ``queries``
    uniform leaf indices, as the wire carries it: each distinct opened
    leaf sends its ``width`` elements (the verifier derives the
    indices); a level of ``m`` nodes below the cap sends one sibling
    digest per pair with exactly one child on a path, ``m * ((1 -
    1/m)**q - (1 - 2/m)**q)`` in expectation; and the shape words, the
    rows' count and width and the nodes' count.

    A committed FRI layer (``folded``) sends no width -- its reader
    knows it -- and none of the values its queries fold from the layer
    below: one extension value per distinct query position, ``s * (1 -
    (1 - 1/s)**q)`` of the layer's ``s = leaves * width / 2`` values."""
    total = leaves * (1 - _untouched(1, leaves, queries)) * width * ELEM_BYTES
    total += (2 if folded else 3) * WORD_BYTES
    if folded:
        size = leaves * width // 2
        total -= size * (1 - _untouched(1, size, queries)) * 2 * ELEM_BYTES
    m = leaves
    while m > 1 << cap_height:
        total += m * (_untouched(1, m, queries) - _untouched(2, m, queries)) * DIGEST_BYTES
        m >>= 1
    return total


def expected_proof_bytes(
    config: FriConfig, degree_bits: int, leaf_widths: Sequence[int], coset_bits: int
) -> Fraction:
    """Expected size of the parts of a FRI proof the layout moves: every
    tree's opening (:func:`expected_opening_bytes`, each committed
    layer's ``folded``) plus each committed layer's cap and its count
    word.  The final polynomial and grinding witness do not depend on
    the layout, so they are left out."""
    trees = _trees(config, degree_bits, leaf_widths, coset_bits)
    batches = len(leaf_widths)
    caps = sum(WORD_BYTES + (1 << cap) * DIGEST_BYTES for _, _, cap in trees[batches:])
    return caps + sum(
        expected_opening_bytes(leaves, width, cap, config.num_queries, folded=t >= batches)
        for t, (leaves, width, cap) in enumerate(trees)
    )


def prover_permutations(
    config: FriConfig, degree_bits: int, leaf_widths: Sequence[int], coset_bits: int
) -> int:
    """Sponge permutations that building the layout's trees costs."""
    return sum(
        merkle_permutation_count(leaves, width, cap)
        for leaves, width, cap in _trees(config, degree_bits, leaf_widths, coset_bits)
    )


#: Plonky2's typical configuration (~100-bit conjectured security).
PLONKY2_CONFIG = FriConfig(rate_bits=3, cap_height=2, num_queries=28, proof_of_work_bits=16)

#: Starky's typical configuration (blowup 2, more queries).
STARKY_CONFIG = FriConfig(rate_bits=1, cap_height=2, num_queries=84, proof_of_work_bits=16)

#: Small parameters for fast functional tests (NOT sound).
TEST_CONFIG = FriConfig(rate_bits=3, cap_height=1, num_queries=8, proof_of_work_bits=4, final_poly_len=4)
