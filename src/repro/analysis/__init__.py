"""Static + semantic soundness analysis for the UniZK reproduction.

The compiler emits *static* per-PE schedules, so every hazard -- latch
double-drives, functional-unit overcommit, use-before-def across
wavefront skews -- is decidable before a single emulated cycle; and the
protocol layer has *semantic* soundness invariants (Fiat-Shamir
transcript discipline, shard-graph determinism) that a syntactic pass
cannot see.  Three layers:

1. :mod:`repro.analysis.sanitizer` -- given a schedule spec destined
   for :class:`repro.hw.microcode.GridEmulator`, statically verify the
   structural and dataflow invariants (``sched.*`` rules).  The
   emulator runs the same checks at every program load.
2. :mod:`repro.analysis.transcript` -- a recording
   :class:`~repro.hashing.Challenger` drives every registered
   :class:`~repro.protocols.ProofSystem`'s prove *and* verify paths at
   tiny scale and checks Fiat-Shamir conformance (``fs.*`` rules):
   caps observed before dependent challenges, prover/verifier streams
   identical, no unobserved prover message (weak Fiat-Shamir).
3. :mod:`repro.analysis.races` -- per-shard read/write footprints
   (:mod:`repro.parallel.footprints`) prove every overlapping access
   pair in a :class:`~repro.parallel.scheduler.ShardGraph` is ordered
   by a dependency path (``race.*`` rules).  The pool runs the same
   check on every graph it is handed.

All layers share :class:`~repro.analysis.findings.Finding` records and
one runner (``python -m repro.analysis`` / ``repro analyze``), which
exits 1 on any finding.  Conventions of the prover's source text
(``% P`` reductions, hot-path allocations, nondeterminism, ``*_into``
aliasing docs) are tier-1 tests, not analysis layers:
``tests/test_source_rules.py``.

The package re-exports nothing: import from the layer's module.  The
shard pool imports :mod:`.races` on its first graph, and that must not
pull in the sanitizer (and with it the hardware model), the shipped
schedules, the transcript checker or the runner.
"""
