"""Merkle-committed multilinear polynomial commitment scheme.

Commits a table of evaluations over the boolean hypercube -- one leaf
per hypercube point, each leaf a row of column values -- as a capped
Merkle tree.  No low-degree extension, no NTT: commitment cost is pure
Poseidon hashing, which is the whole point of the sumcheck-native
proving path (Need-for-zkSpeed / zkPHIRE argue this is where
accelerator-era proving is heading).

Openings are index openings: each opened tree ships one
:class:`~repro.merkle.TreeOpening` (rows plus a shared-path multiproof).
The HyperPlonk-lite backend builds its *evaluation* argument on top:
each sumcheck round's folded table is Merkle-committed the same way
(fused with the fold, :func:`repro.parallel.ops.sumcheck_fold_graph`)
and query-time spot checks enforce fold consistency between adjacent
levels, tying the sumcheck's final value to the base-table commitments
-- a Basefold-flavoured construction.

Also home to the ``eq`` equality polynomial helpers shared by the
multilinear prover and verifier.  Index bit 0 is the *most significant*
bit, matching :func:`repro.sumcheck.fold_table`'s high/low-half split.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import parallel, tracing
from ..field import gl64, goldilocks as gl
from ..merkle import MerkleTree
from ..parallel import ops as par_ops


def eq_table(point: Sequence[int]) -> np.ndarray:
    """Evaluations of ``eq(point, x)`` over the whole hypercube.

    ``eq(t, x) = prod_j (t_j x_j + (1 - t_j)(1 - x_j))`` -- the
    multilinear indicator used by zerocheck.  Variable 0 is the most
    significant index bit.
    """
    out = gl64.ones(1)
    for t in point:
        t_u = np.uint64(gl.canonical(t))
        lo = gl64.mul(out, np.uint64(gl.sub(1, t)))
        hi = gl64.mul(out, t_u)
        out = np.concatenate([lo[:, None], hi[:, None]], axis=1).reshape(-1)
    return out


def eq_at(point: Sequence[int], index: int) -> int:
    """``eq(point, bits(index))`` at one hypercube position."""
    v = len(point)
    acc = 1
    for j, t in enumerate(point):
        bit = (index >> (v - 1 - j)) & 1
        acc = gl.mul(acc, t if bit else gl.sub(1, t))
    return acc


class MultilinearPCS:
    """Capped Merkle commitments over hypercube evaluation tables."""

    def __init__(self, cap_height: int = 1) -> None:
        self.cap_height = cap_height

    def commit(
        self, rows: np.ndarray, label: str = "pcs", *, slot: str | None = None
    ) -> MerkleTree:
        """Commit a table: rows are leaves, one per hypercube point.

        1-d tables commit as single-element leaves.  The cap height is
        clamped to the tree depth so tiny folded levels stay valid.

        ``label`` tags the tracing span, so commit:wires / commit:z /
        commit:fold stages are distinguishable in ``--trace-out``
        traces.  The commit is a ``merkle_subtree`` shard graph on
        :func:`repro.parallel.current_pool`.  With ``slot`` set, the
        tree's buffers live in the transport's one arena under
        ``commit:<slot>`` -- shared-memory segments a pool with worker
        processes fans large tables out over, else ``RUN.workspace`` --
        and are reused by the next proof's commit in that role; callers
        only pass a slot for proof-lifetime trees, so a setup-lifetime
        commitment stays slot-less and owns its buffers.
        """
        rows = np.asarray(rows, dtype=np.uint64)
        if rows.ndim == 1:
            rows = rows[:, None]
        n = rows.shape[0]
        if n == 0 or n & (n - 1):
            raise ValueError("table length must be a non-zero power of two")
        cap_height = min(self.cap_height, n.bit_length() - 1)
        with tracing.span("pcs:commit", category="commit", label=label, rows=n):
            return par_ops.multilinear_commit_graph(
                parallel.current_pool(), rows, cap_height, slot
            ).run()
