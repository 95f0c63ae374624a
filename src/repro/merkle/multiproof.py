"""Batched Merkle openings with shared-path deduplication.

A proof opens every committed tree at ~28-84 query indices; individual
authentication paths repeat the nodes near the root.  A *multiproof*
sends each needed node once: walking levels bottom-up, a node is
included only if it cannot be derived from the opened leaves and
previously included nodes.  Every protocol ships one
:class:`TreeOpening` per opened tree -- the distinct opened rows in
ascending index order plus their multiproof -- and every verifier
re-derives the index set from its transcript and checks it with
:func:`check_opening` before :func:`repro.merkle.verify_paths` hashes
anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..hashing import sponge
from .paths import PathOpening, verify_paths

if TYPE_CHECKING:
    from .tree import MerkleTree

#: Serialized size of one field element.
ELEM_BYTES = 8


@dataclass
class MerkleMultiProof:
    """One combined proof for several leaf indices.

    ``nodes`` lists the sibling digests in verification order: the
    verifier walks levels bottom-up, consuming one digest whenever a
    needed child is neither an opened leaf nor a previously derived
    node.
    """

    indices: Tuple[int, ...]
    nodes: np.ndarray  # (k, 4) digests in consumption order

    def size_bytes(self) -> int:
        """Serialized digest payload."""
        return int(self.nodes.size) * ELEM_BYTES


def prove_multi(tree: "MerkleTree", indices: Sequence[int]) -> MerkleMultiProof:
    """Build a deduplicated proof for ``indices``."""
    num = tree.num_leaves()
    idx = sorted(set(int(i) for i in indices))
    for i in idx:
        if not 0 <= i < num:
            raise IndexError(f"leaf index {i} out of range")
    nodes: List[np.ndarray] = []
    frontier = idx
    for level in tree.levels[:-1]:
        next_frontier: List[int] = []
        known = set(frontier)
        for i in frontier:
            parent = i >> 1
            if next_frontier and next_frontier[-1] == parent:
                continue  # sibling pair already handled together
            sibling = i ^ 1
            if sibling not in known:
                nodes.append(level[sibling])
            next_frontier.append(parent)
        frontier = next_frontier
    stacked = (
        np.stack(nodes)
        if nodes
        else np.zeros((0, sponge.DIGEST_LEN), dtype=np.uint64)
    )
    return MerkleMultiProof(indices=tuple(idx), nodes=stacked)


def verify_multi(
    leaves: Dict[int, np.ndarray],
    proof: MerkleMultiProof,
    cap: np.ndarray,
    tree_depth: int,
    cap_height: int = 0,
) -> bool:
    """Verify a multiproof against a cap.

    ``leaves`` maps each opened index to its raw leaf row and must cover
    exactly ``proof.indices``.  The one-opening call of
    :func:`repro.merkle.verify_paths`, which recomputes the leaf
    digests, combines them with ``proof.nodes`` in consumption order
    (every node must be consumed) and compares the derived cap entries;
    malformed input is ``False``, never an exception.
    """
    try:
        indices = tuple(proof.indices)
        if sorted(leaves) != list(indices):
            return False
        rows = [leaves[i] for i in indices]
    except TypeError:
        return False
    opening = PathOpening(rows, indices, proof.nodes, cap, tree_depth - cap_height)
    return bool(verify_paths([opening])[0])


def verify_proof(leaf_data: np.ndarray, index: int, proof: MerkleMultiProof, cap) -> bool:
    """Check the one-index opening :meth:`MerkleTree.prove` returns.

    A one-index multiproof is the leaf's path, one node a level, so the
    climb takes one level per node.  ``bench/layers.py`` times this and
    ``MerkleTree.prove`` as its single-path probes; no protocol sends a
    one-index opening of its own.  Malformed input is ``False``.
    """
    nodes = getattr(proof, "nodes", None)
    levels = len(nodes) if isinstance(nodes, np.ndarray) and nodes.ndim else 0
    return bool(verify_paths([PathOpening([leaf_data], (index,), nodes, cap, levels)])[0])


@dataclass
class TreeOpening:
    """All of one tree's query openings, batched into a multiproof.

    ``rows`` holds the opened leaf rows in ascending index order --
    row ``k`` is the leaf at ``proof.indices[k]``.  The multiproof's
    sibling nodes are shared by every index of the set, so the nodes
    near the cap are sent once per tree rather than once per query.
    """

    rows: np.ndarray  # (k, leaf_width), ascending proof.indices order
    proof: MerkleMultiProof

    def size_bytes(self) -> int:
        """Payload bytes: indices, opened rows, and shared path nodes."""
        return (
            4 * len(self.proof.indices)
            + int(self.rows.size) * ELEM_BYTES
            + self.proof.size_bytes()
        )

    def write(self, w) -> None:
        """Append the opening to a :class:`~repro.serialize.ByteWriter`:
        indices, rows, shared path nodes."""
        w.u32(len(self.proof.indices))
        for idx in self.proof.indices:
            w.u32(idx)
        w.elems(self.rows)
        w.elems(self.proof.nodes)

    @classmethod
    def read(cls, r, width: int | None, what: str) -> "TreeOpening":
        """Read one opening of ``width``-column leaves from a
        :class:`~repro.serialize.ByteReader` (``None``: any width the
        verifier pins later); ``what`` labels the typed ``ValueError``."""
        indices = tuple(
            r.u32() for _ in range(r.count(4, f"{what} index count"))
        )
        for a, b in zip(indices, indices[1:]):
            if b <= a:
                raise ValueError(f"malformed {what} (indices must be strictly ascending)")
        rows = r.elems()
        if rows.ndim != 2 or rows.shape[0] != len(indices) or width not in (None, rows.shape[1]):
            shape = f"({len(indices)}, {'w' if width is None else width})"
            raise ValueError(f"malformed {what} (expected a {shape} row array)")
        nodes = r.elems()
        if nodes.ndim != 2 or nodes.shape[1] != 4:
            raise ValueError(f"malformed {what} (path nodes must be (k, 4))")
        return cls(rows=rows, proof=MerkleMultiProof(indices=indices, nodes=nodes))


def open_tree(tree: "MerkleTree", indices: Iterable[int]) -> TreeOpening:
    """Batch-open one tree at the distinct ``indices`` (pure reads)."""
    idx = sorted({int(i) for i in indices})
    rows = np.stack([tree.leaves[i] for i in idx])
    return TreeOpening(rows=rows, proof=prove_multi(tree, idx))


def check_opening(
    opening: TreeOpening,
    expected: Iterable[int],
    widths: int | Tuple[int, ...] | None,
    cap: np.ndarray,
    num_leaves: int,
    cap_height: int,
    what: str,
) -> PathOpening:
    """Validate one tree's opening against its derived index set (no
    hashing); raises ``ValueError``, which each protocol re-raises as
    its own verifier error.

    The index set is *derived*, never trusted: the opening must cover
    exactly the sorted distinct positions ``expected`` the transcript's
    queries touch, with one row per position of an admissible width
    (an int, a tuple of ints, or ``None`` for any).  The cap must be the
    ``2**min(cap_height, depth)`` rows such a tree commits to.  Returns
    the :class:`~repro.merkle.PathOpening` that must still authenticate
    against the cap.
    """
    expected_idx = tuple(sorted({int(i) for i in expected}))
    try:
        indices = tuple(int(i) for i in opening.proof.indices)
        rows = np.asarray(opening.rows, dtype=np.uint64)
        nodes = np.asarray(opening.proof.nodes, dtype=np.uint64)
        cap_rows = np.shape(cap)[0]
    except (AttributeError, TypeError, ValueError, OverflowError, IndexError) as exc:
        raise ValueError(f"malformed {what}") from exc
    if indices != expected_idx:
        raise ValueError(f"{what} does not open the queried indices")
    admissible = (widths,) if isinstance(widths, int) else widths
    if rows.ndim != 2 or rows.shape[0] != len(expected_idx) or (
        admissible is not None and rows.shape[1] not in admissible
    ):
        raise ValueError(f"{what} has wrong shape")
    if nodes.ndim != 2 or nodes.shape[1] != sponge.DIGEST_LEN:
        raise ValueError(f"malformed {what}")
    depth = num_leaves.bit_length() - 1
    if cap_rows != 1 << min(cap_height, depth):
        raise ValueError(f"{what} cap has the wrong height")
    levels = depth - min(cap_height, depth)
    return PathOpening(rows, expected_idx, nodes, cap, levels)
