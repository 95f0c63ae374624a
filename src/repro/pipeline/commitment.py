"""The shared commitment core of the unified proof pipeline.

:class:`CommitmentPipeline` owns the *transcript half* of a FRI-based
proof (paper Figure 1): what gets observed, in what order, and when
Fiat-Shamir randomness is drawn.  The *data-plane half* -- building
:class:`~repro.fri.prover.PolynomialBatch` commitments (iNTT -> LDE ->
Merkle), interpolating quotients, and running the batch FRI opening
proof -- lives in :class:`repro.pcs.FriPCS`, one of the interchangeable
commitment backends behind :mod:`repro.pcs`:

1. **commit** -- :meth:`commit_values` / :meth:`commit_coeffs` build a
   batch through the PCS and observe its cap on the transcript;
2. **challenge** -- :meth:`challenge` / :meth:`ext_challenge` draw
   Fiat-Shamir randomness from the shared duplex challenger;
3. **quotient** -- :meth:`commit_quotient` interpolates a combined
   extension-field evaluation back to coefficients (coset iNTT per
   limb), slices it into degree-``n`` chunks, and commits them;
4. **open** -- :meth:`open_and_prove` evaluates the requested openings
   and runs the batch FRI opening proof over every batch committed so
   far.

The pipeline threads one :class:`~repro.field.gl64.Workspace` arena
(from a per-shape prover plan) through the PCS into every commitment
and the FRI call -- the zero-copy data plane -- and the PCS wraps each
stage in a :func:`repro.tracing.span`, so any proof that runs through
it is observable per stage without protocol-specific instrumentation.
The split is pure code motion: kernels, call order, spans, operation
counters and proof bytes are bit-identical to the pre-split pipeline
(enforced by the perf-counter CI gate).

Batches are opened by ``(batch_index, poly_index)`` pairs; the batch
index is simply the order of :meth:`add_batch`/``commit_*`` calls, so
protocols control their layout by call order (Plonk registers its
preprocessed setup batch first, then wires, Z, quotient).

The observe-before-challenge discipline this class encodes is exactly
what the transcript-conformance analyzer
(:mod:`repro.analysis.transcript`, ``fs.*`` rules) verifies end to end:
it replays every registered protocol's prove and verify paths through a
recording challenger and checks each commitment cap is observed before
any challenge that must depend on it, so a pipeline refactor that
reorders these calls fails ``repro analyze --strict`` even if the
proof still verifies against its own prover.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from ..field import gl64
from ..fri import FriConfig, FriOpenings, FriProof, PolynomialBatch
from ..hashing import Challenger
from ..pcs.fri import FriPCS


class CommitmentPipeline:
    """One proof's commit -> challenge -> quotient -> open -> FRI flow."""

    def __init__(
        self,
        config: FriConfig,
        challenger: Challenger | None = None,
        ws: gl64.Workspace | None = None,
    ) -> None:
        self.config = config
        self.challenger = challenger if challenger is not None else Challenger()
        self.ws = ws
        #: The commitment backend (univariate FRI).
        self.pcs = FriPCS(config, ws=ws)

    @property
    def batches(self) -> List[PolynomialBatch]:
        """Batches in commitment order == FRI opening batch indices."""
        return self.pcs.batches

    # -- transcript interaction ------------------------------------------

    def observe_publics(self, values: Iterable[int] | np.ndarray) -> None:
        """Bind public inputs into the transcript."""
        self.challenger.observe_elements(np.asarray(list(values), dtype=np.uint64))

    def observe_cap(self, cap: np.ndarray) -> None:
        """Bind a Merkle cap into the transcript."""
        self.challenger.observe_cap(cap)

    def challenge(self) -> int:
        """Draw one base-field Fiat-Shamir challenge."""
        return self.challenger.get_challenge()

    def ext_challenge(self) -> np.ndarray:
        """Draw one extension-field Fiat-Shamir challenge."""
        return self.challenger.get_ext_challenge()

    # -- commitments -----------------------------------------------------

    def add_batch(
        self, batch: PolynomialBatch, observe: bool = True
    ) -> PolynomialBatch:
        """Register a pre-built batch (e.g. a setup-time commitment).

        The batch joins the opening/FRI index space; with ``observe``
        its cap is bound into the transcript now.
        """
        self.pcs.add_batch(batch)
        if observe:
            self.challenger.observe_cap(batch.cap)
        return batch

    def commit_values(
        self, rows: np.ndarray, label: str, observe: bool = True
    ) -> PolynomialBatch:
        """Commit polynomials given by subgroup evaluations (rows)."""
        batch = self.pcs.commit_values(rows, label)
        if observe:
            self.challenger.observe_cap(batch.cap)
        return batch

    def commit_coeffs(
        self, rows: np.ndarray, label: str, observe: bool = True
    ) -> PolynomialBatch:
        """Commit polynomials given by coefficient rows."""
        batch = self.pcs.commit_coeffs(rows, label)
        if observe:
            self.challenger.observe_cap(batch.cap)
        return batch

    def commit_quotient(
        self,
        ext_values: np.ndarray,
        n: int,
        chunks: int,
        label: str = "quotient",
        observe: bool = True,
    ) -> PolynomialBatch:
        """Interpolate and commit a quotient evaluated on the LDE coset.

        See :meth:`repro.pcs.FriPCS.commit_quotient` for the data-plane
        details (per-limb coset iNTT, chunking, one fused shard graph).
        """
        batch = self.pcs.commit_quotient(ext_values, n, chunks, label)
        if observe:
            self.challenger.observe_cap(batch.cap)
        return batch

    # -- openings + FRI --------------------------------------------------

    def open_and_prove(
        self,
        points: Sequence[np.ndarray],
        columns: Sequence[Sequence[Tuple[int, int]]],
    ) -> Tuple[FriOpenings, FriProof]:
        """Open the committed batches and produce the FRI proof.

        ``columns[k]`` lists the ``(batch_index, poly_index)`` pairs
        opened at ``points[k]``; batch indices are commitment order.
        """
        return self.pcs.open_and_prove(points, columns, self.challenger)
