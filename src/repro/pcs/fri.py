"""Univariate FRI polynomial commitment scheme.

The data plane of a FRI-based proof (paper Figure 1), shared by the
STARK and Plonk provers.  The transcript order is the protocol's one
declaration (:class:`repro.pcs.protocol.FriProtocol`): the prover passes
each returned batch's cap to its declared round, which observes it before
drawing the next challenges (the ``fs.*`` conformance rules of
:mod:`repro.analysis.transcript` check that order end to end).  This
class touches the challenger only in :meth:`open_and_prove`, and owns:

* :meth:`commit_values` builds a
  :class:`~repro.fri.prover.PolynomialBatch` (iNTT -> LDE -> Merkle);
* :meth:`quotient_shape` sizes a quotient by its constraint degree: the
  chunks it commits and the coset a prover evaluates it on;
* :meth:`commit_quotient` interpolates an extension-field coset
  evaluation back to coefficients and commits the degree-``n`` chunks;
* :meth:`open_and_prove` evaluates the requested openings and runs the
  batch FRI opening proof over every batch committed so far.

Batches are opened by ``(batch_index, poly_index)`` pairs; the batch
index is the order of ``add_batch`` / ``commit_*`` calls, so protocols
control their layout by call order (Plonk registers its preprocessed
setup batch first, then wires, Z, quotient).  Every labelled commit
and the FRI call keep their buffers under ``commit:<label>`` /
``fri:*`` slots in the transport's one arena: the thread's
:class:`~repro.field.gl64.Workspace` (``RUN.workspace``) in process,
the pool's shared arena when a stage fans out.

Every commit and FRI stage is a shard graph from
:mod:`repro.parallel.ops` run on :func:`repro.parallel.current_pool`;
operation counters, digests and proof bytes are pinned in
``tests/goldens.py`` and checked by ``tests/test_protocols.py``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .. import parallel, tracing
from ..field import extension as fext
from ..fri import (
    FriConfig,
    FriOpenings,
    FriProof,
    PolynomialBatch,
    fri_prove,
    open_batches,
)
from ..hashing import Challenger
from ..parallel import ops as par_ops


class FriPCS:
    """Batch commitments on the LDE domain with a FRI opening proof."""

    def __init__(self, config: FriConfig) -> None:
        self.config = config
        #: Batches in commitment order == FRI opening batch indices.
        self.batches: List[PolynomialBatch] = []

    # -- commitments -----------------------------------------------------

    def add_batch(self, batch: PolynomialBatch) -> PolynomialBatch:
        """Register a pre-built batch (e.g. a setup-time commitment)."""
        self.batches.append(batch)
        return batch

    def commit_values(
        self, rows: np.ndarray, label: str, coset_bits: int = 0
    ) -> PolynomialBatch:
        """Commit polynomials given by subgroup evaluations (rows).

        ``coset_bits`` is the opening's leaf layout
        (:func:`~repro.fri.config.fri_layout`), shared by every
        batch it opens.
        """
        with tracing.span(f"commit:{label}", category="commit"):
            batch = PolynomialBatch.from_values(
                rows,
                self.config.rate_bits,
                self.config.cap_height,
                slot=label,
                coset_bits=coset_bits,
            )
        return self.add_batch(batch)

    @staticmethod
    def quotient_shape(degree: int) -> Tuple[int, int]:
        """``(chunks, bits)`` of the quotient of a degree-``degree``
        constraint blend over ``n`` rows: it has degree below
        ``(degree - 1) * n``, so ``chunks`` degree-``n`` chunks a limb
        hold it, and the ``2**bits * n``-point coset -- the smallest
        with at least ``chunks * n`` points -- is all a prover
        evaluates the blend on."""
        chunks = max(1, degree - 1)
        return chunks, (chunks - 1).bit_length()

    def commit_quotient(
        self,
        ext_values: np.ndarray,
        n: int,
        chunks: int,
        label: str = "quotient",
        coset_bits: int = 0,
    ) -> PolynomialBatch:
        """Interpolate and commit a quotient evaluated on a coset.

        ``ext_values`` is the (``2**bits * n``, 2) extension-field
        evaluation of the (already divisor-divided) constraint blend on
        the LDE coset's every ``2**(rate_bits - bits)``-th point, with
        ``(chunks, bits)`` from :meth:`quotient_shape`; each limb is
        coset-iNTT'd and split into ``chunks`` degree-``n`` coefficient
        chunks, giving a ``2 * chunks``-polynomial batch -- the quotient
        layout both STARK and Plonk use.

        The limb iNTTs, chunk LDEs and the Merkle build are one shard
        graph (no barrier between the interpolation and the extensions).
        ``coset_bits`` is the leaf layout, as for :meth:`commit_values`.
        """
        with tracing.span(f"commit:{label}", category="commit"):
            batch = par_ops.quotient_commit_graph(
                parallel.current_pool(),
                ext_values,
                n,
                chunks,
                self.config.rate_bits,
                self.config.cap_height,
                label,
                coset_bits,
            ).run()
        return self.add_batch(batch)

    @staticmethod
    def quotient_at(chunk_evals: np.ndarray, zeta_n: np.ndarray) -> np.ndarray:
        """``t(zeta)`` from a :meth:`commit_quotient` batch opened at
        ``zeta`` and ``zeta_n = zeta^n``, the inverse of its split:
        ``t = sum_k zeta_n^k * (limb0_k + X * limb1_k)``, where
        ``chunk_evals[limb * chunks + k]`` is ``limb{limb}_k``."""
        chunks, x = len(chunk_evals) // 2, fext.make(0, 1)
        t = fext.zero()
        for k in range(chunks - 1, -1, -1):
            chunk = fext.add(chunk_evals[k], fext.mul(chunk_evals[chunks + k], x))
            t = fext.add(fext.mul(t, zeta_n), chunk)
        return t

    # -- openings + FRI --------------------------------------------------

    def open_and_prove(
        self,
        points: Sequence[np.ndarray],
        columns: Sequence[Sequence[Tuple[int, int]]],
        challenger: Challenger,
    ) -> Tuple[FriOpenings, FriProof]:
        """Open the committed batches and produce the FRI proof.

        ``columns[k]`` lists the ``(batch_index, poly_index)`` pairs
        opened at ``points[k]``; batch indices are commitment order.
        """
        with tracing.span("open", category="open"):
            openings = open_batches(self.batches, points, columns)
        with tracing.span("fri", category="fri"):
            proof = fri_prove(self.batches, openings, challenger, self.config)
        return openings, proof
