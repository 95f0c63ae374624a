"""HyperPlonk-lite proof containers and setup artifacts.

The sumcheck-native backend's counterpart of :mod:`repro.plonk.proof`
and :class:`repro.pcs.protocol.Proof`: the setup output pairs the
circuit with its Merkle-committed preprocessed table, and the proof
carries caps, the sumcheck transcript, the per-round folded-level caps,
and the query-time spot-check openings.
There is no FRI proof and no quotient commitment -- the evaluation
argument is the committed sumcheck itself.

Query openings are *batched per tree*: instead of one authentication
path per opened leaf per query, each committed tree ships a single
:class:`~repro.merkle.TreeOpening` -- the opened leaf rows in ascending
index order and the multiproof's sibling nodes, shared across every
query that touches the tree.  The indices are not sent (format v3):
the verifier derives the index set from the transcript and binds row
``k`` to its ``k``-th smallest index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from ..field import goldilocks as gl
from ..merkle import MerkleTree, TreeOpening
from ..merkle.multiproof import ELEM_BYTES, WORD_BYTES, array_bytes
from ..plonk.circuit import Circuit
from ..plonk.protocol import constraints
from ..serialize import ByteReader, ByteWriter, read_cap
from ..sumcheck import SumcheckProof

#: Leaf widths of the preprocessed, wires and Z trees: 5 selectors and
#: 3 sigma labels, 3 wires, one grand-product column.
BASE_WIDTHS = (8, 3, 1)


@dataclass(frozen=True)
class HyperPlonkConfig:
    """Knobs of the sumcheck-native prover.

    Deliberately tiny compared to :class:`~repro.fri.FriConfig`: with no
    low-degree extension there is no rate, no final polynomial, and no
    proof-of-work grinding -- just the Merkle cap height and how many
    fold-consistency spot checks the verifier demands.
    """

    cap_height: int = 1
    num_queries: int = 16

    def __post_init__(self) -> None:
        if self.cap_height < 0:
            raise ValueError("cap_height must be >= 0")
        if self.num_queries < 1:
            raise ValueError("num_queries must be >= 1")


@dataclass
class HyperPlonkData:
    """Setup output: the circuit plus its preprocessed commitment.

    ``preprocessed`` Merkle-commits one row per gate holding the 5
    selector values followed by the 3 sigma labels (no LDE -- the leaves
    are the subgroup rows themselves).  ``sigmas``/``ids`` cache the
    (3, n) permutation label matrices so proving never re-derives them.
    Every array is read-only; ``config`` is ``None`` on an unbound
    :func:`~repro.hyperplonk.prover.preprocess` result.
    """

    circuit: Circuit
    preprocessed: MerkleTree
    sigmas: np.ndarray
    ids: np.ndarray
    config: Optional[HyperPlonkConfig]

    @property
    def verifier_data(self) -> "HyperPlonkVerifierData":
        """The subset of setup data the verifier needs."""
        return HyperPlonkVerifierData(
            preprocessed_cap=self.preprocessed.cap.copy(),
            n=self.circuit.n,
            public_input_rows=list(self.circuit.public_input_rows),
            config=self.config,
        )


@dataclass
class HyperPlonkVerifierData:
    """Everything the verifier must know about a circuit."""

    preprocessed_cap: np.ndarray
    n: int
    public_input_rows: List[int]
    config: HyperPlonkConfig


def zerocheck_values(alg, alpha: int, *domain):
    """``C = gate + alpha * copy + alpha^2 * start``, Plonk's
    :func:`~repro.plonk.protocol.constraints` over ``domain`` blended by
    the base-field ``alpha``: the table the zerocheck proves zero, and
    the value the verifier recomputes at each queried row."""
    gate, copy, start = constraints(alg, *domain)
    return alg.add(alg.add(gate, alg.mul_const(copy, alpha)), alg.mul_const(start, gl.mul(alpha, alpha)))


def query_index_sets(
    indices: Sequence[int], n: int, num_levels: int
) -> Tuple[Set[int], Set[int], List[Set[int]]]:
    """The deduplicated index sets every query touches, per tree.

    Both the prover (to gather the batched openings) and the verifier
    (to re-derive the expected sets from the transcript) walk the same
    fold chains: query ``j`` (sampled over ``[0, n/2)``) opens the base
    pair ``(j, j + n/2)`` of the preprocessed / wires trees, the Z tree
    additionally at both next-row positions, and level ``k``'s pair
    ``(p, p + half_k)`` where ``p = j mod half_k``.

    Returns ``(base_set, z_set, level_sets)`` -- the preprocessed and
    wires trees share ``base_set``.
    """
    base: Set[int] = set()
    z: Set[int] = set()
    levels: List[Set[int]] = [set() for _ in range(num_levels)]
    for j in indices:
        j = int(j)
        lo, hi = j, j + n // 2
        base.update((lo, hi))
        z.update((lo, (lo + 1) % n, hi, (hi + 1) % n))
        pos = j
        for k in range(num_levels):
            half = (n // 4) >> k
            p = pos % half
            levels[k].update((p, p + half))
            pos = p
    return base, z, levels


@dataclass
class HyperPlonkProof:
    """A complete sumcheck-native proof (format v5: no publics, no leaf
    indices, no shape word the reader knows)."""

    wires_cap: np.ndarray
    z_cap: np.ndarray
    sumcheck: SumcheckProof
    level_caps: List[np.ndarray]
    #: Batched openings: preprocessed / wires / Z base trees, then one
    #: entry per committed fold level (same order as ``level_caps``).
    pre_opening: TreeOpening
    wires_opening: TreeOpening
    z_opening: TreeOpening
    level_openings: List[TreeOpening]

    def tree_openings(self) -> List[TreeOpening]:
        """Every tree opening, base trees first then fold levels."""
        return [
            self.pre_opening,
            self.wires_opening,
            self.z_opening,
            *self.level_openings,
        ]

    def size_bytes(self) -> int:
        """Serialized proof size, ``len(self.to_bytes())``: caps,
        sumcheck rounds, openings."""
        caps = (self.wires_cap, self.z_cap, *self.level_caps)
        total = sum(array_bytes(cap) for cap in caps) + 3 * WORD_BYTES
        total += (2 + 2 * len(self.sumcheck.round_values)) * ELEM_BYTES
        bases = zip((self.pre_opening, self.wires_opening, self.z_opening), BASE_WIDTHS)
        total += sum(op.size_bytes(width) for op, width in bases)
        return total + sum(op.size_bytes(1) for op in self.level_openings)

    def to_bytes(self) -> bytes:
        """Raw canonical proof body (format v5)."""
        w = ByteWriter()
        w.elems(self.wires_cap, 4)
        w.elems(self.z_cap, 4)
        sc = self.sumcheck
        w.u64(sc.claimed_sum)
        w.u32(len(sc.round_values))
        for y0, y1 in sc.round_values:
            w.u64(y0)
            w.u64(y1)
        w.u64(sc.final_value)
        w.u32(len(self.level_caps))
        for cap in self.level_caps:
            w.elems(cap, 4)
        for op, width in zip((self.pre_opening, self.wires_opening, self.z_opening), BASE_WIDTHS):
            op.write(w, width)
        w.u32(len(self.level_openings))
        for op in self.level_openings:
            op.write(w, 1)
        return w.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "HyperPlonkProof":
        """Decode a raw proof body (typed ``ValueError`` on bad input)."""
        r = ByteReader(data)
        wires_cap = read_cap(r, "wires cap")
        z_cap = read_cap(r, "Z cap")
        claimed_sum = r.u64()
        rounds = [
            (r.u64(), r.u64()) for _ in range(r.count(16, "sumcheck round count"))
        ]
        final_value = r.u64()
        sumcheck = SumcheckProof(
            claimed_sum=claimed_sum, round_values=rounds, final_value=final_value
        )
        level_caps = [
            read_cap(r, "fold-level cap")
            for _ in range(r.count(8, "fold-level cap count"))
        ]
        read = TreeOpening.read
        names = ("preprocessed opening", "wires opening", "Z opening")
        pre_opening, wires_opening, z_opening = (
            read(r, width, what) for width, what in zip(BASE_WIDTHS, names)
        )
        level_openings = [
            read(r, 1, "fold-level opening")
            for _ in range(r.count(8, "fold-level opening count"))
        ]
        if not r.done():
            raise ValueError("trailing bytes after HyperPlonk proof")
        return cls(
            wires_cap=wires_cap,
            z_cap=z_cap,
            sumcheck=sumcheck,
            level_caps=level_caps,
            pre_opening=pre_opening,
            wires_opening=wires_opening,
            z_opening=z_opening,
            level_openings=level_openings,
        )
