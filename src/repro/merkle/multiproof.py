"""Batched Merkle openings with shared-path deduplication.

A proof opens every committed tree at ~28-84 query indices; individual
authentication paths repeat the nodes near the root.  A *multiproof*
sends each needed node once: walking levels bottom-up, a node is
included only if it cannot be derived from the opened leaves and
previously included nodes.  Every protocol ships one
:class:`TreeOpening` per opened tree -- the distinct opened rows in
ascending index order plus the multiproof's nodes, never the indices.
Every verifier derives the index set from its transcript, and
:func:`check_opening` binds the rows to it before
:func:`repro.merkle.verify_paths` hashes anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..hashing import sponge
from .paths import PathOpening, verify_paths

if TYPE_CHECKING:
    from .tree import MerkleTree

#: Serialized size of one field element, and of one shape word (an
#: array's row count or width).
ELEM_BYTES = 8
WORD_BYTES = 4


def array_bytes(arr: np.ndarray, sized: bool = False) -> int:
    """Serialized size of a field-element matrix: its row count, its
    width when ``sized`` (when its reader does not know it), its words."""
    return (1 + sized) * WORD_BYTES + int(arr.size) * ELEM_BYTES


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

    ``rows`` holds the opened leaf rows in ascending index order and
    ``nodes`` the multiproof's sibling digests in consumption order,
    shared by every index of the set, so the nodes near the cap are
    sent once per tree rather than once per query.  The indices are not
    sent: :func:`check_opening` binds row ``k`` to the ``k``-th smallest
    index the verifier derives.  A committed FRI layer sends its rows
    less the values its verifier folds itself, as ``(m, 2)`` extension
    values (:class:`~repro.fri.FriProof`).
    """

    rows: np.ndarray  # (k, leaf_width), ascending index order
    nodes: np.ndarray  # (m, 4) digests in consumption order

    def size_bytes(self, width: int | None = None) -> int:
        """Bytes :meth:`write` sends with ``width``."""
        return array_bytes(self.rows, sized=width is None) + array_bytes(self.nodes)

    def write(self, w, width: int | None = None) -> None:
        """Append the opening to a :class:`~repro.serialize.ByteWriter`:
        rows (with their width unless the reader knows it, ``width``),
        then shared path nodes."""
        w.elems(self.rows, width)
        w.elems(self.nodes, 4)

    @classmethod
    def read(cls, r, width: int | None, what: str) -> "TreeOpening":
        """Read one opening of ``width``-column rows from a
        :class:`~repro.serialize.ByteReader` (``None``: the width is on
        the wire, and the verifier pins it later); ``what`` labels the
        typed ``ValueError``."""
        return cls(rows=r.elems(width, what), nodes=r.elems(4, f"{what} path nodes"))


def open_tree(tree: "MerkleTree", indices: Iterable[int]) -> TreeOpening:
    """Batch-open one tree at the distinct ``indices`` (pure reads)."""
    idx = sorted({int(i) for i in indices})
    rows = np.stack([tree.leaves[i] for i in idx])
    return TreeOpening(rows=rows, nodes=prove_multi(tree, idx).nodes)


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

    The index set is *derived*, never sent: the opening must hold one
    row per sorted distinct position ``expected`` the transcript's
    queries touch -- row ``k`` is bound to the ``k``-th of them -- each
    of an admissible width (an int, a tuple of ints, or ``None`` for
    any).  The cap must be the ``2**min(cap_height, depth)`` rows such
    a tree commits to.  Returns the :class:`~repro.merkle.PathOpening`
    that must still authenticate against the cap.
    """
    expected_idx = tuple(sorted({int(i) for i in expected}))
    try:
        rows = np.asarray(opening.rows, dtype=np.uint64)
        nodes = np.asarray(opening.nodes, dtype=np.uint64)
        cap_rows = np.shape(cap)[0]
    except (AttributeError, TypeError, ValueError, OverflowError, IndexError) as exc:
        raise ValueError(f"malformed {what}") from exc
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
