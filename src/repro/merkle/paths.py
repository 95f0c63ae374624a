"""Batched authentication-path verification: schedule, then climb.

A verifier checks many openings against many caps -- every query of
every tree of a proof.  Walking each path alone hashes one state per
Poseidon call, which is the slowest way to run the permutation; the
prover builds trees a level at a time (paper Section 5.3) and the
verifier can check them the same way.  :func:`verify_paths` takes
*every* opening of a proof at once and runs in two phases:

1. **Schedule** (integers only, no hashing).  Each opening is
   validated and lowered to per-level lists of ``(left, right) ->
   parent`` digest slots.  A single authentication path and a
   deduplicated multiproof are the same thing here: a sorted frontier
   of known nodes that, level by level, pairs neighbours with each
   other or with the next supplied digest.  A single path is the
   one-index frontier, whose supplied digests are exactly its siblings.
2. **Climb**.  All leaves are hashed once, grouped by row width,
   through :func:`~repro.hashing.sponge.hash_leaves_into`; then every
   opening still below its cap advances one level per
   :func:`~repro.hashing.sponge.compress_level_into` call.  Openings of
   unequal depth simply stop contributing pairs once they reach their
   cap, and each is compared with its own cap rows at the end.

The number of permutations is exactly that of walking every path
alone -- the same nodes are compressed, only many per call.
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
    is the number of compressions between the leaves and ``cap``;
    ``None`` means one per supplied node, i.e. a single path.
    """

    rows: Any  # (k, width) leaf rows
    indices: Sequence[int]
    nodes: Any  # (m, DIGEST_LEN) supplied digests
    cap: Any  # (c, DIGEST_LEN)
    levels: Optional[int] = None


@dataclass(frozen=True)
class _Plan:
    """A well-formed opening lowered to digest-slot moves.

    Slots are local: leaf digest ``k`` is slot ``k``, supplied node
    ``j`` is slot ``len(rows) + j``.  A parent overwrites the slot of
    its derived child (the first of a derived pair), so the slots of an
    opening are all the storage its climb needs.
    """

    rows: np.ndarray
    nodes: np.ndarray
    cap: np.ndarray
    #: per level: interleaved (left, right) child slots, parent slots
    steps: List[Tuple[List[int], List[int]]]
    #: (slot, cap row) pairs to compare once the climb is done
    finals: List[Tuple[int, int]]


def _schedule(op: PathOpening) -> Optional[_Plan]:
    """Validate one opening and lower it; ``None`` if it is malformed.

    Everything that can be rejected without hashing is rejected here:
    array shapes, unsorted or duplicate or out-of-range indices (a
    negative index would alias a real leaf's low bits and wrap the cap
    lookup), too few supplied nodes, and nodes left over.
    """
    try:
        rows = gl64.asarray(op.rows)
        nodes = gl64.asarray(op.nodes)
        cap = np.atleast_2d(np.asarray(op.cap, dtype=np.uint64))
        indices = [int(i) for i in op.indices]
        levels = nodes.shape[0] if op.levels is None else int(op.levels)
    except (TypeError, ValueError, OverflowError, IndexError):
        return None
    if rows.ndim != 2 or rows.shape[0] != len(indices):
        return None
    if nodes.ndim != 2 or nodes.shape[1] != sponge.DIGEST_LEN:
        return None
    if cap.ndim != 2 or cap.shape[1] != sponge.DIGEST_LEN or levels < 0:
        return None
    if any(b <= a for a, b in zip(indices, indices[1:])):
        return None
    if indices and not (0 <= indices[0] and indices[-1] < cap.shape[0] << levels):
        return None

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
                if cursor == nodes.shape[0]:
                    return None
                supplied = num_rows + cursor
                cursor += 1
                gather += (supplied, slot) if i & 1 else (slot, supplied)
                j += 1
            nxt.append((i >> 1, slot))
        steps.append((gather, [slot for _, slot in nxt]))
        frontier = nxt
    if cursor != nodes.shape[0]:
        return None
    return _Plan(rows, nodes, cap, steps, [(slot, i) for i, slot in frontier])


def verify_paths(openings: Sequence[PathOpening]) -> np.ndarray:
    """Check every opening against its cap; one boolean verdict each.

    A malformed opening (wrong shapes, bad indices, wrong node count)
    gets ``False`` before anything is hashed; it never raises and never
    affects another opening's verdict.  Leaf rows and supplied digests
    are read modulo ``p``; a derived digest must equal its cap row
    exactly.
    """
    verdicts = np.zeros(len(openings), dtype=bool)
    live = []  # (opening number, plan, first pool slot)
    gathers: List[List[int]] = []  # per level, over all openings:
    outs: List[List[int]] = []  # child pool slots, parent pool slots
    total = 0
    for number, op in enumerate(openings):
        plan = _schedule(op)
        if plan is None:
            continue
        live.append((number, plan, total))
        for level, (children, parents) in enumerate(plan.steps):
            if level == len(gathers):
                gathers.append([])
                outs.append([])
            gathers[level] += [total + slot for slot in children]
            outs[level] += [total + slot for slot in parents]
        total += plan.rows.shape[0] + plan.nodes.shape[0]

    pool = np.empty((total, sponge.DIGEST_LEN), dtype=np.uint64)
    by_width: dict = {}
    for _, plan, base in live:
        num_rows = plan.rows.shape[0]
        pool[base + num_rows : base + num_rows + plan.nodes.shape[0]] = plan.nodes
        if num_rows:
            group = by_width.setdefault(plan.rows.shape[1], ([], []))
            group[0].append(plan.rows)
            group[1].append(np.arange(base, base + num_rows))
    for rows, slots in by_width.values():
        rows = np.concatenate(rows)
        digests = np.empty((rows.shape[0], sponge.DIGEST_LEN), dtype=np.uint64)
        pool[np.concatenate(slots)] = sponge.hash_leaves_into(rows, digests)

    for gather, out in zip(gathers, outs):
        if out:
            digests = np.empty((len(out), sponge.DIGEST_LEN), dtype=np.uint64)
            pool[out] = sponge.compress_level_into(pool[gather], digests)

    for number, plan, base in live:
        slots = [base + slot for slot, _ in plan.finals]
        cap_rows = [row for _, row in plan.finals]
        verdicts[number] = np.array_equal(pool[slots], plan.cap[cap_rows])
    return verdicts
