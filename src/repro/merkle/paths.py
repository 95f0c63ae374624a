"""Batched authentication-path verification: schedule, then climb.

A verifier checks many openings against many caps -- one per committed
tree of a proof, each at many query indices.  Walking each path alone hashes one state per
Poseidon call, which is the slowest way to run the permutation; the
prover builds trees a level at a time (paper Section 5.3) and the
verifier can check them the same way.  :func:`verify_paths` takes
*every* opening of a proof at once and runs in two phases:

1. **Schedule** (integers only, no hashing).  Each opening is
   validated and given consecutive digest slots in one pool: its leaf
   digests, then its supplied nodes.  An opening is a sorted frontier
   of known nodes that, level by level, pairs neighbours with each
   other or with the next supplied digest; :func:`_schedule` lowers it
   to per-level lists of ``(left, right) -> parent`` slots.  A
   one-index opening is the degenerate frontier: every level consumes
   one supplied node, the path's sibling.
2. **Climb**.  All leaves are hashed in one
   :func:`~repro.hashing.sponge.hash_leaves_into` sweep, grouped by
   row width (absorb step ``k`` of every width runs in one call), and all
   supplied nodes land in the pool in one scatter; then every opening
   still below its cap advances one level per
   :func:`~repro.hashing.sponge.compress_level_into` call.  Openings of
   unequal depth simply stop contributing pairs once they reach their
   cap, and one comparison checks every derived cap digest against its
   cap row.  Assembling the pool and comparing the caps take a fixed
   number of NumPy calls, however many openings there are.

The number of permutations is exactly that of walking each opening's
frontier alone -- the same nodes are compressed, only many per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ..field import gl64
from ..hashing import sponge


@dataclass(frozen=True)
class PathOpening:
    """Opened leaves of one tree plus the digests that authenticate them.

    ``rows[k]`` is the raw leaf row at position ``indices[k]``;
    ``indices`` must be strictly increasing.  ``nodes`` are the supplied
    digests in consumption order: climbing bottom-up through the sorted
    frontier, one is consumed whenever a node's sibling is not itself on
    the frontier (:func:`~repro.merkle.prove_multi` emits them in this
    order; for a single index they are the path's siblings).  ``levels``
    is the number of compressions between the leaves and ``cap``.
    """

    rows: Any  # (k, width) leaf rows
    indices: Sequence[int]
    nodes: Any  # (m, DIGEST_LEN) supplied digests
    cap: Any  # (c, DIGEST_LEN)
    levels: int


def _coerce(op: PathOpening) -> Optional[tuple]:
    """``(rows, nodes, indices, levels)`` of an opening whose arrays and
    indices are well formed, else ``None``; the cap is checked apart
    (caps are shared, so each is coerced once a call)."""
    try:
        rows = np.asarray(op.rows, dtype=np.uint64)
        nodes = np.asarray(op.nodes, dtype=np.uint64)
        indices = [int(i) for i in op.indices]
        levels = int(op.levels)
    except (TypeError, ValueError, OverflowError, IndexError):
        return None
    if rows.ndim != 2 or rows.shape[0] != len(indices) or levels < 0:
        return None
    if nodes.ndim != 2 or nodes.shape[1] != sponge.DIGEST_LEN:
        return None
    if any(b <= a for a, b in zip(indices, indices[1:])):
        return None
    return rows, nodes, indices, levels


def _coerce_cap(cap) -> Optional[np.ndarray]:
    """A cap as ``(c, DIGEST_LEN)`` words, else ``None``."""
    try:
        cap = np.atleast_2d(np.asarray(cap, dtype=np.uint64))
    except (TypeError, ValueError, OverflowError):
        return None
    return cap if cap.ndim == 2 and cap.shape[1] == sponge.DIGEST_LEN else None


def _schedule(
    indices: List[int], num_nodes: int, levels: int
) -> Optional[Tuple[List[Tuple[List[int], List[int]]], List[Tuple[int, int]]]]:
    """Lower an opening to digest-slot moves; ``None`` if its
    node count does not match the frontier's needs.

    Slots are local: leaf digest ``k`` is slot ``k``, supplied node
    ``j`` is slot ``len(indices) + j``.  A parent overwrites the slot of
    its derived child (the first of a derived pair), so the slots of an
    opening are all the storage its climb needs.  Returns, per level,
    the interleaved ``(left, right)`` child slots and the parent slots,
    then the ``(slot, cap row)`` pairs to compare once the climb is done.
    """
    num_rows, cursor = len(indices), 0
    frontier = list(zip(indices, range(num_rows)))  # (node index, slot)
    steps: List[Tuple[List[int], List[int]]] = []
    for _ in range(levels):
        gather: List[int] = []
        nxt: List[Tuple[int, int]] = []
        j = 0
        while j < len(frontier):
            i, slot = frontier[j]
            if not i & 1 and j + 1 < len(frontier) and frontier[j + 1][0] == i + 1:
                gather += (slot, frontier[j + 1][1])
                j += 2
            else:
                if cursor == num_nodes:
                    return None
                supplied = num_rows + cursor
                cursor += 1
                gather += (supplied, slot) if i & 1 else (slot, supplied)
                j += 1
            nxt.append((i >> 1, slot))
        steps.append((gather, [slot for _, slot in nxt]))
        frontier = nxt
    if cursor != num_nodes:
        return None
    return steps, [(slot, i) for i, slot in frontier]


def verify_paths(openings: Sequence[PathOpening]) -> np.ndarray:
    """Check every opening against its cap; one boolean verdict each.

    A malformed opening (wrong shapes, bad indices, wrong node count)
    gets ``False`` before anything is hashed; it never raises and never
    affects another opening's verdict.  Leaf rows and supplied digests
    are read modulo ``p``; a derived digest must equal its cap row
    exactly.
    """
    verdicts = np.zeros(len(openings), dtype=bool)
    caps: dict = {}  # id(cap) -> (coerced cap or None, first pool row)
    cap_arrays: List[np.ndarray] = []
    cap_rows = 0
    live: List[int] = []
    by_width: dict = {}  # width -> (leaf rows, leaf slots)
    node_arrays: List[np.ndarray] = []
    node_slots: List[int] = []
    gathers: List[List[int]] = []  # per level, over all openings:
    outs: List[List[int]] = []  # child pool slots, parent pool slots
    finals: Tuple[List[int], List[int], List[int]] = ([], [], [])  # slot, cap row, owner
    total = 0
    for number, op in enumerate(openings):
        coerced = _coerce(op)
        if coerced is None:
            continue
        rows, nodes, indices, levels = coerced
        if id(op.cap) not in caps:
            cap = _coerce_cap(op.cap)
            caps[id(op.cap)] = (cap, cap_rows)
            if cap is not None:
                cap_arrays.append(cap)
                cap_rows += cap.shape[0]
        cap, first_row = caps[id(op.cap)]
        if cap is None:
            continue
        if indices and not (0 <= indices[0] and indices[-1] < cap.shape[0] << levels):
            continue
        num_rows, num_nodes = len(indices), nodes.shape[0]
        plan = _schedule(indices, num_nodes, levels)
        if plan is None:
            continue
        steps, ends = plan
        for level, (children, parents) in enumerate(steps):
            if level == len(gathers):
                gathers.append([])
                outs.append([])
            gathers[level] += [total + slot for slot in children]
            outs[level] += [total + slot for slot in parents]
        live.append(number)
        for slot, row in ends:
            finals[0].append(total + slot)
            finals[1].append(first_row + row)
            finals[2].append(number)
        if num_rows:
            group = by_width.setdefault(rows.shape[1], ([], []))
            group[0].append(rows)
            group[1].extend(range(total, total + num_rows))
        if num_nodes:
            node_arrays.append(nodes)
            node_slots.extend(range(total + num_rows, total + num_rows + num_nodes))
        total += num_rows + num_nodes

    pool = np.empty((total, sponge.DIGEST_LEN), dtype=np.uint64)
    if node_arrays:
        pool[node_slots] = gl64.asarray(np.concatenate(node_arrays))
    groups = [gl64.asarray(np.concatenate(rows)) for rows, _ in by_width.values()]
    slots = [slot for _, owned in by_width.values() for slot in owned]
    digests = np.empty((len(slots), sponge.DIGEST_LEN), dtype=np.uint64)
    pool[slots] = sponge.hash_leaves_into(groups, digests)

    # Openings of unequal depth share the early levels; a shallower one
    # just stops contributing pairs once it reaches its cap.
    for gather, out in zip(gathers, outs):
        if out:
            digests = np.empty((len(out), sponge.DIGEST_LEN), dtype=np.uint64)
            pool[out] = sponge.compress_level_into(pool[gather], digests)

    verdicts[live] = True
    if finals[0]:
        cap_pool = np.concatenate(cap_arrays)
        digest_at, cap_at, owners = (np.array(f, dtype=np.int64) for f in finals)
        match = (pool[digest_at] == cap_pool[cap_at]).all(axis=1)
        verdicts[owners[~match]] = False
    return verdicts
