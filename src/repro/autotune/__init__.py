"""Mapping autotuner: enumerate -> sanitize -> score.

Closes the compiler loop the paper leaves manual: candidate mappings
for each kernel family are enumerated (:mod:`repro.autotune.space`),
cheaply rejected by the PE-grid sanitizer where microcode is involved,
and scored on the simulator's cost model (:mod:`repro.autotune.search`).
The search is a pure function of ``(graph, hw)`` -- exhaustive, 3-100 ms
on a paper workload -- and nothing it finds is kept anywhere: a caller
that wants the tuned schedule passes ``mapping=report.mapping_for`` to
``schedule`` / ``lower`` / ``simulate_graph``, whose only source of
mapping decisions is that argument.  This is the hardware-mapping tuner
only: the software prover has no tuning plane.
"""

from .search import ShapeResult, TuneReport, node_key, tune_graph, tune_workload
from .space import Candidate, CandidateSpace, candidate_spaces, space_for_family

__all__ = [
    "Candidate",
    "CandidateSpace",
    "ShapeResult",
    "TuneReport",
    "candidate_spaces",
    "node_key",
    "space_for_family",
    "tune_graph",
    "tune_workload",
]
