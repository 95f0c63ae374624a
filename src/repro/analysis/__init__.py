"""Static + semantic soundness analysis for the UniZK reproduction.

The compiler emits *static* per-PE schedules, so every hazard -- latch
double-drives, functional-unit overcommit, use-before-def across
wavefront skews -- is decidable before a single emulated cycle; the
zero-copy prover data plane is a set of conventions worth checking, not
trusting; and the protocol layer has *semantic* soundness invariants
(Fiat-Shamir transcript discipline, shard-graph determinism) that a
syntactic pass cannot see.  Four layers:

1. :mod:`repro.analysis.sanitizer` -- given a schedule spec destined
   for :class:`repro.hw.microcode.GridEmulator`, statically verify the
   structural and dataflow invariants (``sched.*`` rules).  The
   emulator runs the same checks at program load (``validate=True``).
2. :mod:`repro.analysis.lint` -- deterministic AST passes over
   ``src/repro`` enforcing prover-code invariants (``prover.*`` rules).
3. :mod:`repro.analysis.transcript` -- a recording
   :class:`~repro.hashing.Challenger` drives every registered
   :class:`~repro.protocols.ProofSystem`'s prove *and* verify paths at
   tiny scale and checks Fiat-Shamir conformance (``fs.*`` rules):
   caps observed before dependent challenges, prover/verifier streams
   identical, no unobserved prover message (weak Fiat-Shamir).
4. :mod:`repro.analysis.races` -- per-shard read/write footprints
   (:mod:`repro.parallel.footprints`) prove every overlapping access
   pair in a :class:`~repro.parallel.scheduler.ShardGraph` is ordered
   by a dependency path (``race.*`` rules).  The pool runs the same
   check on every graph it is handed.

All layers share :class:`~repro.analysis.findings.Finding` records,
the justification-carrying suppression baseline
(:mod:`repro.analysis.baseline`), and one runner
(``python -m repro.analysis`` / ``repro analyze``), which CI gates with
``--strict``.
"""

from .baseline import (
    BaselineEntry,
    default_baseline_path,
    load_baseline,
    match_baseline,
    save_baseline,
    update_baseline,
)
from .findings import (
    LINT_RULES,
    RACE_RULES,
    RULES,
    SCHEDULE_RULES,
    TRANSCRIPT_RULES,
    AnalysisError,
    Finding,
    Rule,
)
from .lint import lint_package, lint_source
from .races import graph_findings, run_race_checks
from .runner import AnalysisReport, main, run_analysis
from .sanitizer import ScheduleSpec, sanitize, spec_for_emulator
from .schedules import shipped_schedules, shipped_specs
from .transcript import (
    RecordingChallenger,
    TranscriptEvent,
    check_streams,
    run_transcript_checks,
)

__all__ = [
    "AnalysisError",
    "AnalysisReport",
    "BaselineEntry",
    "Finding",
    "LINT_RULES",
    "RACE_RULES",
    "RecordingChallenger",
    "Rule",
    "RULES",
    "SCHEDULE_RULES",
    "ScheduleSpec",
    "TRANSCRIPT_RULES",
    "TranscriptEvent",
    "check_streams",
    "default_baseline_path",
    "graph_findings",
    "lint_package",
    "lint_source",
    "load_baseline",
    "main",
    "match_baseline",
    "run_analysis",
    "run_race_checks",
    "run_transcript_checks",
    "sanitize",
    "save_baseline",
    "shipped_schedules",
    "shipped_specs",
    "spec_for_emulator",
    "update_baseline",
]
