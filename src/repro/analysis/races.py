"""Layer 4: shard-graph race detection (``race.*`` rules).

A :class:`~repro.parallel.scheduler.ShardGraph` executes with a
non-deterministic interleaving: any two shards not ordered by a
dependency path can run simultaneously in different processes over the
same shared-memory buffers.  The bit-identity tests catch a missing
dependency edge only when the scheduler happens to interleave the racy
pair -- this pass catches it *statically*, before the graph runs.

Every kernel declares its read/write footprint
(:mod:`repro.parallel.footprints`); :func:`graph_findings` checks one
graph:

* ``race.write-write`` / ``race.read-write`` -- every overlapping
  access pair on a shared buffer must be ordered by a dependency path
  (transitively; insertion order is *not* an ordering -- only ``deps``
  edges are);
* ``race.no-footprint`` -- a shard kind with no declared footprint
  cannot be verified race-free;
* ``race.challenger-in-shard`` -- shard args must never carry a
  :class:`~repro.hashing.Challenger`: Fiat-Shamir interaction is
  coordinator-only (the transcript-order invariant of
  :mod:`repro.parallel.ops`).

:class:`~repro.parallel.pool.ShardPool` runs this check on every graph
submission, and :func:`run_race_checks` verifies
representative instances of every *shipped* graph shape, as built for
the inline executor and for a fanned-out pool, for ``repro analyze`` --
so a refactor that breaks a builder's dependency topology fails the CI
gate even if no multi-worker test happens to race.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..context import Workspace, scoped
from ..hashing import Challenger
from ..parallel.footprints import Access, footprint
from ..parallel.pool import ShardPool
from ..parallel.scheduler import ShardGraph
from .findings import Finding


def _ancestors(graph: ShardGraph) -> Dict[str, FrozenSet[str]]:
    """Transitive dependency closure: shard id -> everything before it.

    Insertion order is topological (``ShardGraph.add`` requires deps to
    pre-exist), so one forward sweep suffices.
    """
    out: Dict[str, FrozenSet[str]] = {}
    for sid in graph.order:
        acc: set = set()
        for dep in graph.shards[sid].deps:
            acc.add(dep)
            acc |= out[dep]
        out[sid] = frozenset(acc)
    return out


def _contains_challenger(obj, depth: int = 0) -> bool:
    """Recursively scan a kernel args value for a transcript object."""
    if depth > 6:
        return False
    if isinstance(obj, Challenger):
        return True
    if isinstance(obj, dict):
        return any(_contains_challenger(v, depth + 1) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return any(_contains_challenger(v, depth + 1) for v in obj)
    return False


def _conflict(
    a: Sequence[Access], b: Sequence[Access]
) -> Optional[Tuple[str, Access, Access]]:
    """The most severe access conflict between two footprints, if any.

    Returns ``(rule, access_a, access_b)`` preferring write-write over
    read-write; ``None`` when every shared-buffer overlap is read-read.
    """
    worst: Optional[Tuple[str, Access, Access]] = None
    for ax in a:
        for bx in b:
            if ax.buffer != bx.buffer:
                continue
            if ax.mode == "r" and bx.mode == "r":
                continue
            if not ax.overlaps(bx):
                continue
            if ax.mode == "w" and bx.mode == "w":
                return ("race.write-write", ax, bx)
            if worst is None:
                worst = ("race.read-write", ax, bx)
    return worst


def graph_findings(graph: ShardGraph, name: Optional[str] = None) -> List[Finding]:
    """Race-check one shard graph; returns structured findings.

    ``name`` overrides ``graph.name`` in the finding locations (the
    runner labels representative graphs this way).
    """
    gname = name if name is not None else (graph.name or "<unnamed>")
    findings: List[Finding] = []
    footprints: Dict[str, Optional[List[Access]]] = {}
    for sid in graph.order:
        shard = graph.shards[sid]
        fp = footprint(shard.kind, shard.args)
        footprints[sid] = fp
        if fp is None:
            findings.append(
                Finding(
                    rule="race.no-footprint",
                    message=(
                        f"shard {sid!r} has kind {shard.kind!r} with no "
                        "declared footprint; its accesses cannot be "
                        "verified race-free (declare one in "
                        "repro.parallel.footprints)"
                    ),
                    graph=gname,
                    detail=f"kind:{shard.kind}",
                )
            )
        if _contains_challenger(shard.args):
            findings.append(
                Finding(
                    rule="race.challenger-in-shard",
                    message=(
                        f"shard {sid!r} args carry a Challenger; "
                        "Fiat-Shamir interaction must stay in the "
                        "coordinator (transcript order is pinned between "
                        "graph runs, not inside them)"
                    ),
                    graph=gname,
                    detail=f"shard:{sid}",
                )
            )

    ancestors = _ancestors(graph)
    order = graph.order
    for i, a_id in enumerate(order):
        fa = footprints[a_id]
        if not fa:
            continue
        for b_id in order[i + 1 :]:
            fb = footprints[b_id]
            if not fb:
                continue
            if a_id in ancestors[b_id] or b_id in ancestors[a_id]:
                continue  # a dependency path orders the pair
            hit = _conflict(fa, fb)
            if hit is None:
                continue
            rule, ax, bx = hit
            kind = "write-write" if rule == "race.write-write" else "read-write"
            findings.append(
                Finding(
                    rule=rule,
                    message=(
                        f"shards {a_id!r} and {b_id!r} have a {kind} "
                        f"overlap ({ax.describe()} vs {bx.describe()}) "
                        "with no dependency path ordering them"
                    ),
                    graph=gname,
                    detail=f"{a_id}~{b_id}",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# Shipped-graph representative pass (the `repro analyze` layer)
# ---------------------------------------------------------------------------


#: Worker counts whose shipped graph shapes are checked: the inline
#: executor's one-part graphs and a fanned-out split (which rounds Merkle
#: subtrees to 4 and adds the cap climb).
_CHECKED_WORKERS = (1, 4)


def _representative_graphs(pool):
    """Build one small instance of every shipped graph shape on ``pool``.

    The pool is never started (graph *construction* allocates buffers
    but runs nothing), so the checked topologies -- shard splits, merkle
    alignment, dependency edges -- are exactly what
    :mod:`repro.parallel.ops` ships at ``pool.workers``.  Yields
    ``(label, graph)`` pairs.
    """
    from ..fri.config import FRI_ARITY_BITS
    from ..fri.prover import FriOpenings, PolynomialBatch
    from ..parallel import ops

    rows = np.arange(4 * 16, dtype=np.uint64).reshape(4, 16)
    yield "commit:from_values", ops.from_values_graph(pool, rows, 1, 1, "chk:values").graph
    yield "commit:coset_leaves", ops.from_values_graph(
        pool, rows, 1, 1, "chk:cosets", FRI_ARITY_BITS
    ).graph

    ext = np.arange(32 * 2, dtype=np.uint64).reshape(32, 2)
    yield "commit:quotient", ops.quotient_commit_graph(
        pool, ext, 16, 2, 1, 1, "chk:quotient"
    ).graph

    layer_vals = np.arange(64 * 2, dtype=np.uint64).reshape(64, 2)
    yield "fri:layer_tree", ops.layer_tree_graph(
        pool, layer_vals, FRI_ARITY_BITS, 1, 1
    ).graph

    # Combine needs a committed batch; a tiny in-process commit is
    # enough (the graph only references its buffers).
    batch = PolynomialBatch.from_values(rows, 1, 1)
    openings = FriOpenings(
        points=[np.array([3, 5], dtype=np.uint64)],
        columns=[[(0, 0), (0, 1)]],
        values=[np.array([[1, 2], [3, 4]], dtype=np.uint64)],
    )
    alpha = np.array([7, 9], dtype=np.uint64)
    yield "fri:combine", ops.combine_graph(pool, [batch], openings, alpha).graph

    # HyperPlonk-lite shapes: a multilinear-PCS commit and one fused
    # sumcheck fold + fold-level commit round.
    ml_rows = np.arange(16 * 3, dtype=np.uint64).reshape(16, 3)
    yield "mlpcs:commit", ops.multilinear_commit_graph(pool, ml_rows, 1, "chk:ml").graph

    table = np.arange(16, dtype=np.uint64).reshape(16, 1)
    yield "sumcheck:round", ops.sumcheck_fold_graph(pool, table, 7, 0, 1).graph


def run_race_checks() -> Tuple[List[Finding], List[str]]:
    """Race-check representative instances of every shipped graph shape,
    as built for each of :data:`_CHECKED_WORKERS`.

    Returns ``(findings, graphs_checked)`` for the analysis runner.
    """
    findings: List[Finding] = []
    checked: List[str] = []
    for workers in _CHECKED_WORKERS:
        gates = {"min_rows": 1, "min_tree_leaves": 1}
        # Slotted local buffers land in a throwaway arena, not the
        # caller's RUN.workspace.
        with ShardPool(workers=workers, **gates) as pool, scoped("workspace", Workspace()):
            for label, graph in _representative_graphs(pool):
                label = f"{label}@{workers}"
                findings.extend(graph_findings(graph, name=label))
                checked.append(label)
    return findings, checked
