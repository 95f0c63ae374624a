"""Shard-graph builders: every prover stage, expressed once.

A batch commit, quotient commit, multilinear commit, FRI combine, FRI
layer commit or committed-sumcheck round is one function here that
builds a :class:`Stage` -- the shard graph, the pool that runs it and
the assembler of its result.  Provers call
``builder(...).run()``; the race analyzer inspects ``.graph`` without
executing a kernel.  There is no other implementation of these stages.

A stage picks one of two transports (:class:`_Plane`):

* **shared memory** -- on a pool with worker processes, for a stage at
  or above the pool's ``min_*`` threshold that has an arena slot: the
  work splits into ``pool.workers`` parts and kernel args are
  :class:`~repro.parallel.shm.ShmRef` handles;
* **local** -- everything else (a one-worker pool, no pool scoped, a
  stage below threshold, a slot-less setup-lifetime commit): one part,
  run inline in the calling process, kernel args the arrays themselves.

Buffers follow one rule on both: a buffer with a slot lives in the
transport's one arena -- ``pool.arena``
(:class:`~repro.parallel.shm.SharedArena`) under shared memory, the
thread's ``RUN.workspace`` locally -- one buffer a slot, under one
contract (:class:`~repro.context.Workspace`: a slot holds one live shape
at a time); a slot-less buffer belongs to a setup-lifetime commit and
comes from a private :class:`~repro.field.gl64.Workspace`.  A plane
reads either arena through the same two calls: ``temp`` for a buffer,
``ref_of`` for its kernel-args form.

The transcript-order invariant lives one level up: these builders never
touch a challenger.  A prover runs them *between* Fiat-Shamir
interactions, so caps are observed in one order no matter how shards
were split or scheduled.

Slots name roles, not protocols: they derive from the commit label
(unique within a proof, ``commit:<label>`` for every proof-lifetime
commit), so successive proofs reuse their buffers -- and a thread runs
one proof at a time, so a slot never has two live owners.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..context import RUN
from ..field import gl64
from ..hashing import sponge
from ..merkle.tree import MerkleTree, gather_cosets, level_sizes
from .pool import ShardPool, default_pool
from .scheduler import ShardGraph


@dataclass
class Stage:
    """One built prover stage: run it, or inspect its graph."""

    pool: ShardPool
    graph: ShardGraph
    #: ``{shard_id: result}`` -> the stage's value.
    finish: Callable[[Dict[str, Any]], Any]

    def run(self):
        """Execute the graph on its pool and assemble the result."""
        return self.finish(self.pool.run(self.graph))


class _Plane:
    """One stage's transport: who runs it and where its buffers live."""

    def __init__(
        self, pool: ShardPool, slot: Optional[str], units: int, threshold: int
    ) -> None:
        if pool.parallel and slot is not None and units >= threshold:
            self.pool, self.parts, self._bufs = pool, pool.workers, pool.arena
            return
        # Work that stays in this process runs on the inline executor;
        # a parallel pool's shard stats describe its workers only.
        self.pool = default_pool() if pool.parallel else pool
        self.parts = 1
        # A slot names its buffers' one live owner in the thread's arena;
        # a slot-less (setup-lifetime) commit owns buffers of its own.
        self._bufs = RUN.workspace if slot is not None else gl64.Workspace()

    def buf(self, shape, slot: str) -> np.ndarray:
        """A shard-visible ``uint64`` buffer: ``slot`` names its one
        live owner, and the same ``(shape, slot)`` is the same storage
        on the next proof."""
        return self._bufs.temp(tuple(int(d) for d in shape), slot)

    def ref(self, arr: np.ndarray):
        """The kernel-args form of a shard-visible array."""
        ref = self._bufs.ref_of(arr)
        assert ref is not None, "buffer must come from the plane's arena"
        return ref

    def stage(self, arr: np.ndarray, slot: str) -> np.ndarray:
        """A shard-visible array holding ``arr``: itself when the plane's
        arena can ship it (``ref_of``), else a copy in the ``slot`` buffer."""
        if self._bufs.ref_of(arr) is not None:
            return arr
        buf = self.buf(arr.shape, slot)
        buf[:] = arr
        return buf


def _split(total: int, parts: int) -> List[Tuple[int, int]]:
    """Split ``range(total)`` into at most ``parts`` contiguous ranges."""
    parts = max(1, min(int(parts), int(total)))
    per = -(-total // parts)  # ceil
    out = []
    lo = 0
    while lo < total:
        hi = min(total, lo + per)
        out.append((lo, hi))
        lo = hi
    return out


def _add_merkle_shards(
    plane: _Plane,
    graph: ShardGraph,
    prefix: str,
    leaves: np.ndarray,
    cap_height: int,
    slot: str,
    deps: Sequence[str] = (),
    rows: Optional[np.ndarray] = None,
) -> Callable[[], MerkleTree]:
    """Add the shards that commit ``leaves`` (one row per leaf).

    One ``merkle_subtree`` shard per aligned leaf range -- the part
    count rounded up to a power of two, so sibling pairs never straddle
    shards -- plus, when that leaves levels above the subtree roots, the
    climb from the root row to the cap.  With ``rows``, each range
    shard first gathers its coset leaves from those natural-order rows.
    Returns the tree assembler.
    """
    num_leaves, leaf_width = leaves.shape
    sizes = level_sizes(num_leaves, cap_height)
    arena = plane.buf((sum(sizes), sponge.DIGEST_LEN), slot)
    args = {"arena": plane.ref(arena), "sizes": sizes}
    leaf_args = {**args, "leaves": plane.ref(leaves)}
    if rows is not None:
        leaf_args["rows"] = plane.ref(rows)
    sub = min(1 << (plane.parts - 1).bit_length(), num_leaves)
    leaves_per = num_leaves // sub
    sub_depth = leaves_per.bit_length() - 1
    sub_ids = [
        graph.add(
            f"{prefix}:sub{j}",
            "merkle_subtree",
            {**leaf_args, "start": j * leaves_per, "count": leaves_per},
            deps=deps,
            units=leaves_per * leaf_width,
        )
        for j in range(sub)
    ]
    if len(sizes) > sub_depth + 1:
        graph.add(
            f"{prefix}:top",
            "merkle_subtree",
            {**args, "base": sub_depth, "start": 0, "count": sub},
            deps=sub_ids,
            units=2 * sponge.DIGEST_LEN * sum(sizes[sub_depth + 1 :]),
        )
    return lambda: MerkleTree.from_levels(leaves, cap_height, arena, sizes)


def _commit_graph(
    plane: _Plane,
    graph: ShardGraph,
    slot: str,
    lde_args: Dict[str, Any],
    num_polys: int,
    n: int,
    rate_bits: int,
    cap_height: int,
    deps: Sequence[str] = (),
    coset_bits: int = 0,
) -> Stage:
    """The LDE-rows -> Merkle part of a batch commit.

    ``lde_args`` says where the coefficient rows come from (the
    ``lde_rows`` kernel's ``mode`` plus its source); the batch's
    ``coeffs``, ``values`` and tree buffers are allocated here.  With
    ``coset_bits = a`` the tree's leaf ``i`` is the coset of ``2**a``
    LDE rows ``i + j * N / 2**a`` (a contiguous copy beside ``values``,
    which stays in natural order for the constraint blend and the FRI
    combine); with 0 it is row ``i``.
    """
    from ..fri.prover import PolynomialBatch

    n_lde = n << rate_bits
    coeffs = plane.buf((num_polys, n), f"{slot}:coeffs")
    values = plane.buf((n_lde, num_polys), f"{slot}:values")
    lde_args = {
        **lde_args,
        "coeffs_out": plane.ref(coeffs),
        "values_out": plane.ref(values),
        "rate_bits": rate_bits,
    }
    lde_ids = [
        graph.add(
            f"{slot}:lde{i}",
            "lde_rows",
            {**lde_args, "lo": lo, "hi": hi},
            deps=deps,
            units=(hi - lo) * n_lde,
        )
        for i, (lo, hi) in enumerate(_split(num_polys, plane.parts))
    ]
    leaves, rows = values, None
    if coset_bits:
        leaves = plane.buf((n_lde >> coset_bits, num_polys << coset_bits), f"{slot}:leaves")
        rows = values
    tree = _add_merkle_shards(
        plane, graph, slot, leaves, cap_height, f"{slot}:tree", lde_ids, rows
    )

    def finish(_results) -> "PolynomialBatch":
        return PolynomialBatch(
            coeffs=coeffs, values=values, tree=tree(), rate_bits=rate_bits
        )

    return Stage(plane.pool, graph, finish)


def _rows(rows) -> np.ndarray:
    return np.atleast_2d(np.asarray(rows, dtype=np.uint64))


def from_values_graph(
    pool: ShardPool,
    rows: np.ndarray,
    rate_bits: int,
    cap_height: int,
    slot: Optional[str],
    coset_bits: int = 0,
) -> Stage:
    """Commit subgroup evaluations: iNTT folded into the LDE shards."""
    rows = _rows(rows)
    num_polys, n = rows.shape
    plane = _Plane(pool, slot, n << rate_bits, pool.min_rows)
    slot = f"commit:{slot or 'batch'}"
    src = plane.stage(rows, f"{slot}:src")
    return _commit_graph(
        plane,
        ShardGraph(slot),
        slot,
        {"mode": "intt", "src": plane.ref(src)},
        num_polys,
        n,
        rate_bits,
        cap_height,
        coset_bits=coset_bits,
    )


def quotient_commit_graph(
    pool: ShardPool,
    ext_values: np.ndarray,
    n: int,
    chunks: int,
    rate_bits: int,
    cap_height: int,
    slot: str,
    coset_bits: int = 0,
) -> Stage:
    """Interpolate and commit a quotient evaluated on a coset of the
    LDE domain (:meth:`repro.pcs.FriPCS.commit_quotient`).

    One fused graph: a coset iNTT per extension limb feeds the chunk
    LDE shards with no barrier, so on several workers the second limb's
    interpolation overlaps the first limb's extensions.
    """
    ext_values = np.asarray(ext_values, dtype=np.uint64)
    big_n = ext_values.shape[0]
    plane = _Plane(pool, slot, n << rate_bits, pool.min_rows)
    slot = f"commit:{slot}"
    src = plane.stage(ext_values, f"{slot}:ext")
    limbs = plane.buf((2, big_n), f"{slot}:limbs")
    graph = ShardGraph(slot)
    intt_ids = [
        graph.add(
            f"{slot}:intt{limb}",
            "intt_limb",
            {"src": plane.ref(src), "out": plane.ref(limbs), "limb": limb},
            units=big_n,
        )
        for limb in range(2)
    ]
    return _commit_graph(
        plane,
        graph,
        slot,
        {"mode": "chunks", "src": plane.ref(limbs), "n": n, "chunks": chunks},
        2 * chunks,
        n,
        rate_bits,
        cap_height,
        deps=intt_ids,
        coset_bits=coset_bits,
    )


def multilinear_commit_graph(
    pool: ShardPool, rows: np.ndarray, cap_height: int, slot: Optional[str]
) -> Stage:
    """Commit a hypercube table row-wise: the :class:`MerkleTree` stage.

    The evaluation rows *are* the leaves (no LDE stage, the whole point
    of the sumcheck-native path), so the graph is pure Merkle work.
    """
    rows = _rows(rows)
    plane = _Plane(pool, slot, rows.shape[0], pool.min_tree_leaves)
    slot = f"commit:{slot or 'table'}"
    leaves = plane.stage(rows, f"{slot}:leaves")
    graph = ShardGraph(slot)
    tree = _add_merkle_shards(plane, graph, slot, leaves, cap_height, f"{slot}:tree")
    return Stage(plane.pool, graph, lambda _results: tree())


def sumcheck_fold_graph(
    pool: ShardPool, table: np.ndarray, r: int, level: int, cap_height: int
) -> Stage:
    """One committed-sumcheck round: fold, then commit the folded level.

    ``table`` is the current ``(2m, 1)`` round table (a column, so each
    round's output doubles as the committed level's leaf matrix).  The
    fold ``out[j] = table[j] (1-r) + table[j+m] r`` fans across
    ``sumcheck_fold`` row-range shards which -- when the folded level
    has more than one row -- feed straight into the level's Merkle
    shards (no barrier between fold and hash).  The stage's value is
    ``(out, tree)``, ``tree`` being ``None`` for the final one-row level.

    Fiat-Shamir discipline: ``r`` was squeezed by the coordinator
    *before* this graph is built, and the coordinator observes the
    finished cap after the run -- shards never see a challenger.
    """
    half = table.shape[0] // 2
    plane = _Plane(pool, "sumcheck", half, max(2, pool.min_rows))
    src = plane.stage(table, f"sumcheck:src{level}")
    out = plane.buf((half, 1), f"sumcheck:lvl{level}")
    graph = ShardGraph(f"sumcheck:round{level}")
    fold_ids = [
        graph.add(
            f"sc:fold{i}",
            "sumcheck_fold",
            {"src": plane.ref(src), "out": plane.ref(out), "lo": lo, "hi": hi, "r": int(r)},
            units=hi - lo,
        )
        for i, (lo, hi) in enumerate(_split(half, plane.parts))
    ]
    if half <= 1:
        return Stage(plane.pool, graph, lambda _results: (out, None))
    tree = _add_merkle_shards(
        plane,
        graph,
        f"sc:tree{level}",
        out,
        min(cap_height, half.bit_length() - 1),
        f"sumcheck:tree{level}",
        fold_ids,
    )
    return Stage(plane.pool, graph, lambda _results: (out, tree()))


def combine_graph(
    pool: ShardPool,
    batches: Sequence,
    openings,
    alpha: np.ndarray,
) -> Stage:
    """The combined FRI quotient values, split by LDE row range.

    Reads every batch's natural-order ``values``, whatever its leaves.
    """
    n_lde = batches[0].values.shape[0]
    plane = _Plane(pool, "fri", n_lde, pool.min_rows)
    out = plane.buf((n_lde, 2), "fri:vals0")
    args = {
        "out": plane.ref(out),
        "values": [
            plane.ref(plane.stage(b.values, f"fri:batch{i}:values"))
            for i, b in enumerate(batches)
        ],
        "openings": openings,
        "alpha": np.asarray(alpha, dtype=np.uint64).reshape(2),
    }
    graph = ShardGraph("fri:combine")
    for i, (lo, hi) in enumerate(_split(n_lde, plane.parts)):
        graph.add(f"fri:combine{i}", "fri_combine", {**args, "lo": lo, "hi": hi}, units=hi - lo)
    return Stage(plane.pool, graph, lambda _results: out)


def layer_tree_graph(
    pool: ShardPool,
    values: np.ndarray,
    arity_bits: int,
    cap_height: int,
    layer: int,
) -> Stage:
    """Commit one FRI layer of arity ``2**a``: leaf ``i`` packs the
    coset ``v[i + j * N / 2**a]`` for ``j < 2**a``.

    The coset leaves land in the ``fri:leaves{layer}`` slot and the
    digests in ``fri:tree{layer}``.
    """
    arity = 1 << arity_bits
    num_leaves, width = values.shape[0] >> arity_bits, values.shape[1]
    plane = _Plane(pool, "fri", num_leaves, pool.min_tree_leaves)
    leaves = plane.buf((num_leaves, arity * width), f"fri:leaves{layer}")
    gather_cosets(values, leaves)
    graph = ShardGraph(f"fri:tree{layer}")
    tree = _add_merkle_shards(
        plane,
        graph,
        f"fri:tree{layer}",
        leaves,
        min(cap_height, num_leaves.bit_length() - 1),
        f"fri:tree{layer}",
    )
    return Stage(plane.pool, graph, lambda _results: tree())
