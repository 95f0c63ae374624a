"""Soundness fuzzing: proof-mutation campaigns and differential oracles.

The package attacks the verifier/deserializer surface from two sides:

* :mod:`repro.fuzz.mutators` + :mod:`repro.fuzz.runner` mutate honest
  serialized proofs (and, for states the codec cannot express, proof
  objects) and assert every mutant is rejected with a *typed* error --
  an accept or a stray ``IndexError`` is a finding, shrunk and persisted
  as a replayable artifact (:mod:`repro.fuzz.artifacts`);
* :mod:`repro.fuzz.oracles` cross-check the optimized data plane
  (in-place GL kernels, fused Poseidon, workspace NTT, power-table
  extension evaluation) against slow references over randomized shapes.

Entry points: :func:`run_fuzz`, :func:`replay_artifact`, and the
``repro fuzz`` CLI subcommand.
"""

from .artifacts import BAD_OUTCOMES, Finding, load_finding, save_finding
from .mutators import MUTATOR_NAMES, MUTATORS, Mutant
from .oracles import ORACLES, OracleFinding, run_oracles
from .runner import (
    FuzzReport,
    ReplayResult,
    classify_bytes,
    classify_object,
    replay_artifact,
    run_fuzz,
    shrink_bytes,
)
from .targets import TYPED_REJECTIONS, FuzzTarget, target_for

__all__ = [
    "BAD_OUTCOMES",
    "Finding",
    "FuzzReport",
    "FuzzTarget",
    "MUTATORS",
    "MUTATOR_NAMES",
    "Mutant",
    "ORACLES",
    "OracleFinding",
    "ReplayResult",
    "TYPED_REJECTIONS",
    "classify_bytes",
    "classify_object",
    "load_finding",
    "replay_artifact",
    "run_fuzz",
    "run_oracles",
    "save_finding",
    "shrink_bytes",
    "target_for",
]
