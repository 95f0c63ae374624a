"""Univariate FRI polynomial commitment scheme.

The data plane of a FRI-based proof (paper Figure 1), shared by the
STARK and Plonk provers.  The prover owns the transcript -- it observes
each returned batch's cap on its :class:`~repro.hashing.Challenger`
before drawing the next challenge (the ``fs.*`` conformance rules of
:mod:`repro.analysis.transcript` check that order end to end) -- and
this class owns:

* :meth:`commit_values` builds a
  :class:`~repro.fri.prover.PolynomialBatch` (iNTT -> LDE -> Merkle);
* :meth:`commit_quotient` interpolates an extension-field coset
  evaluation back to coefficients and commits the degree-``n`` chunks;
* :meth:`open_and_prove` evaluates the requested openings and runs the
  batch FRI opening proof over every batch committed so far.

Batches are opened by ``(batch_index, poly_index)`` pairs; the batch
index is the order of ``add_batch`` / ``commit_*`` calls, so protocols
control their layout by call order (Plonk registers its preprocessed
setup batch first, then wires, Z, quotient).  One
:class:`~repro.field.gl64.Workspace` arena (from the per-shape
:class:`~repro.fri.DomainPlan`) is threaded into every commitment and
the FRI call.

Every commit and FRI stage is a shard graph from
:mod:`repro.parallel.ops` run on :func:`repro.parallel.current_pool`;
operation counters and proof bytes are pinned by the perf-counter CI
gate.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .. import parallel, tracing
from ..field import gl64
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

    def __init__(self, config: FriConfig, ws: gl64.Workspace | None = None) -> None:
        self.config = config
        self.ws = ws
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
        (:func:`~repro.fri.config.initial_arity_bits`), shared by every
        batch it opens.
        """
        with tracing.span(f"commit:{label}", category="commit"):
            batch = PolynomialBatch.from_values(
                rows,
                self.config.rate_bits,
                self.config.cap_height,
                ws=self.ws,
                slot=label,
                coset_bits=coset_bits,
            )
        return self.add_batch(batch)

    def commit_quotient(
        self,
        ext_values: np.ndarray,
        n: int,
        chunks: int,
        label: str = "quotient",
        coset_bits: int = 0,
    ) -> PolynomialBatch:
        """Interpolate and commit a quotient evaluated on the LDE coset.

        ``ext_values`` is the (N_lde, 2) extension-field evaluation of
        the (already divisor-divided) constraint blend; each limb is
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
                self.ws,
                ext_values,
                n,
                chunks,
                self.config.rate_bits,
                self.config.cap_height,
                label,
                coset_bits,
            ).run()
        return self.add_batch(batch)

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
            proof = fri_prove(
                self.batches, openings, challenger, self.config, ws=self.ws
            )
        return openings, proof
