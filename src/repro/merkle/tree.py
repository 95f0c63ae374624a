"""Merkle tree with Plonky2-style caps (paper Section 5.3).

Leaves are rows of field elements (one row per LDE-domain point,
concatenating the values of all committed polynomials at that point).
Leaf digests come from the Poseidon sponge; internal nodes use
two-to-one compression.  Instead of a single root, the tree can be
truncated at a *cap* of ``2**cap_height`` digests, trading commitment
size for shorter authentication paths -- exactly as Plonky2 does.

The tree stores its levels contiguously in level order, matching the
memory layout UniZK relies on for long sequential DRAM accesses while
climbing levels (Section 5.3).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..field import gl64
from ..hashing import sponge
from .multiproof import MerkleMultiProof, prove_multi


def level_sizes(num_leaves: int, cap_height: int) -> List[int]:
    """Digest counts per level, leaves first, down to the cap.

    The contiguous level-order arena layout (Section 5.3) is
    ``sum(level_sizes(...))`` rows; shard-graph builders use this to
    size their arenas identically to :class:`MerkleTree` itself.
    """
    sizes = []
    width = num_leaves
    while width >= (1 << cap_height):
        sizes.append(width)
        width //= 2
    return sizes


def level_views(arena: np.ndarray, sizes) -> List[np.ndarray]:
    """Split a level-order arena into per-level views, leaves first."""
    views: List[np.ndarray] = []
    offset = 0
    for size in sizes:
        views.append(arena[offset : offset + int(size)])
        offset += int(size)
    return views


def gather_cosets(rows: np.ndarray, out: np.ndarray, start: int = 0) -> None:
    """Fill ``out`` with the coset leaves ``start, start + 1, ...`` of ``rows``.

    At arity ``k = out.shape[1] / rows.shape[1]``, leaf ``i`` of the
    ``N``-row matrix ``rows`` concatenates rows ``i + j * N / k`` for
    ``j < k``: the ``k`` points of the coset one FRI fold by ``k`` reads.
    Arity 1 is a plain row copy.
    """
    count, width = out.shape[0], rows.shape[1]
    arity = out.shape[1] // width
    cosets = rows.reshape(arity, -1, width)[:, start : start + count]
    out.reshape(count, arity, width)[:] = cosets.swapaxes(0, 1)


def build_subtree(
    levels: List[np.ndarray],
    start: int,
    count: int,
    ws: gl64.Workspace,
    leaf_rows: np.ndarray | None = None,
    base: int = 0,
) -> None:
    """Fill the aligned slice of ``levels`` that one subtree owns.

    Rows ``[start, start + count)`` of ``levels[base]`` are the
    subtree's bottom row: hashed here from ``leaf_rows`` (``base`` 0),
    or already filled by the subtrees below (``leaf_rows`` ``None``).
    Every level above is compressed for as far as the subtree reaches
    (``count >> k >= 1``).  ``start`` and ``count`` are power-of-two
    aligned, so sibling pairs never straddle two subtrees and each
    level range has exactly one writer.  The whole tree is the call
    ``(0, num_leaves)``; shard graphs restrict it to leaf ranges and
    finish with one call over the row of subtree roots.
    """
    if leaf_rows is not None:
        sponge.hash_leaves_into(leaf_rows, levels[base][start : start + count], ws)
    for k in range(1, len(levels) - base):
        if (count >> k) < 1:
            break
        prev = levels[base + k - 1][start >> (k - 1) : (start + count) >> (k - 1)]
        out = levels[base + k][start >> k : (start + count) >> k]
        sponge.compress_level_into(prev, out, ws)


class MerkleTree:
    """Merkle tree over a (num_leaves, leaf_width) matrix of elements."""

    def __init__(
        self,
        leaves: np.ndarray,
        cap_height: int = 0,
        ws: gl64.Workspace | None = None,
    ) -> None:
        leaves = np.atleast_2d(gl64.asarray(leaves, trusted=True))
        num_leaves = leaves.shape[0]
        if num_leaves == 0 or num_leaves & (num_leaves - 1):
            raise ValueError("leaf count must be a non-zero power of two")
        depth = num_leaves.bit_length() - 1
        if not 0 <= cap_height <= depth:
            raise ValueError(f"cap_height must be in [0, {depth}]")
        self.leaves = leaves
        self.cap_height = cap_height
        # All levels live in one contiguous level-order arena (the
        # paper's Section 5.3 layout); ``levels`` are views into it.
        sizes = level_sizes(num_leaves, cap_height)
        self.arena = np.empty((sum(sizes), sponge.DIGEST_LEN), dtype=np.uint64)
        #: levels[0] = leaf digests; levels[-1] = the cap.
        self.levels: List[np.ndarray] = level_views(self.arena, sizes)
        build_subtree(
            self.levels, 0, num_leaves, ws or gl64.default_workspace(), leaves
        )

    @classmethod
    def from_levels(
        cls,
        leaves: np.ndarray,
        cap_height: int,
        arena: np.ndarray,
        sizes: List[int],
    ) -> "MerkleTree":
        """Wrap an already-hashed level-order arena as a tree.

        Shard graphs fill the arena through :func:`build_subtree`
        kernels and adopt it here without re-hashing; ``sizes`` must be
        ``level_sizes(len(leaves), cap_height)`` and the arena
        ``sum(sizes)`` digest rows.
        """
        if list(sizes) != level_sizes(leaves.shape[0], cap_height):
            raise ValueError("sizes do not match the leaf count and cap height")
        if arena.shape != (sum(sizes), sponge.DIGEST_LEN):
            raise ValueError("arena shape does not match the level sizes")
        tree = cls.__new__(cls)
        tree.leaves = leaves
        tree.cap_height = cap_height
        tree.arena = arena
        tree.levels = level_views(arena, sizes)
        return tree

    def capped(self, cap_height: int) -> "MerkleTree":
        """This tree cut at a cap of ``2**cap_height`` digests, no hashing.

        Level ``k`` of the level-order arena does not depend on where
        the tree stops, so the cut is a prefix of the arena; a tree
        built to its root (cap height 0) serves every cap height.
        """
        depth = self.num_leaves().bit_length() - 1
        if not self.cap_height <= cap_height <= depth:
            raise ValueError(f"cap_height must be in [{self.cap_height}, {depth}]")
        sizes = level_sizes(self.num_leaves(), cap_height)
        return MerkleTree.from_levels(self.leaves, cap_height, self.arena[: sum(sizes)], sizes)

    @property
    def cap(self) -> np.ndarray:
        """The commitment: ``2**cap_height`` digests, shape (c, 4)."""
        return self.levels[-1]

    def num_leaves(self) -> int:
        """Number of leaves."""
        return self.leaves.shape[0]

    def prove(self, index: int) -> MerkleMultiProof:
        """The one-index opening of leaf ``index``: its path's siblings,
        leaf to cap (``prove_multi(self, [index])``).  No protocol opens
        one index; ``bench/layers.py`` times it as its single-path probe."""
        return prove_multi(self, [index])


def merkle_permutation_count(num_leaves: int, leaf_width: int, cap_height: int = 0) -> int:
    """Poseidon permutations needed to build a tree (for cost models)."""
    per_leaf = sponge.permutation_count(leaf_width) if leaf_width > sponge.DIGEST_LEN else 0
    internal = max(0, num_leaves - (1 << cap_height))
    return num_leaves * per_leaf + internal
