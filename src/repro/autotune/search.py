"""Mapping search: enumerate -> sanitize -> score.  A pure function.

The tuner searches per *shape*, not per workload: every kernel family's
candidates are scored against all graph nodes sharing one shape key
(``ntt/log21``, ``merkle/l1048576/w160``, ...), because a node's
simulated cost depends only on its own mapping (the schedule is a
sequential sum of ``max(compute, memory)`` kernels).  The search is
exhaustive -- 29 candidates, 3-100 ms on a paper workload -- so its
result depends on ``(graph, hw)`` alone: no budget, no seed, no state
kept between calls.  The winners leave as :meth:`TuneReport.mapping_for`,
which a caller hands to ``schedule`` / ``simulate_graph`` as their
``mapping`` argument.

Rejection happens before scoring, in two cheap layers:

1. structural validity (:meth:`MappingParams.invalid_reasons`) -- e.g.
   an NTT tile whose MDC delay registers overflow the PE register file;
2. the PE-grid static sanitizer over the microcode a candidate would
   emit (``sched.*`` rules) -- e.g. the ``sparse-12x3-ii1`` Poseidon
   scheme's initiation-interval-1 S-box pipeline double-drives the PE
   down latch.

Candidates are tried in enumeration order, the default first; ties keep
the earlier candidate, so a tied search never drifts from the static
compiler.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Optional

from ..analysis.sanitizer import sanitize
from ..analysis.schedules import spec_of
from ..compiler.frontend import PlonkParams, trace_plonky2
from ..compiler.graph import ComputationGraph, KernelNode
from ..compiler.scheduler import map_node, schedule
from ..hw.config import DEFAULT_CONFIG, HwConfig
from ..mapping.params import DEFAULT_MAPPING, MappingParams
from .space import Candidate, candidate_spaces

#: The candidate family that covers each tunable node kind; every
#: other kind (``poly_gate``, ``transform``, ...) has no mapping knob.
_FAMILY_OF_KIND = {
    "ntt": "ntt",
    "intt": "ntt",
    "lde": "ntt",
    "merkle": "merkle",
    "hash_misc": "poseidon",
    "poly_elementwise": "poly",
}


def node_key(node: KernelNode) -> Optional[str]:
    """Shape key of one computation-graph node's mapping decision.

    Keys are shape-level, not instance-level: every ``ntt`` of one size
    shares a winner regardless of which workload or stage it appears
    in.  Returns ``None`` for kinds with no mapping knobs.
    """
    p = node.params
    if node.kind in ("ntt", "intt"):
        return f"ntt/log{int(p['log_n'])}"
    if node.kind == "lde":
        return f"lde/log{int(p['log_n'])}+r{int(p['rate_bits'])}"
    if node.kind == "merkle":
        return f"merkle/l{int(p['leaves'])}/w{int(p['width'])}"
    if node.kind == "hash_misc":
        return "poseidon/w12"
    if node.kind == "poly_elementwise":
        return (
            f"polyew/len{int(p['vector_len'])}"
            f"/ops{int(p['num_ops'])}/opr{int(p['num_operands'])}"
        )
    return None


@dataclass
class ShapeResult:
    """Search outcome for one ``(family, shape key)``."""

    key: str
    family: str
    num_nodes: int
    default_cycles: float
    best_cycles: float
    winner: str
    winner_params: MappingParams
    tried: List[str] = field(default_factory=list)
    rejected: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def improved(self) -> bool:
        """True when the winner beats the default mapping's cycles."""
        return self.best_cycles < self.default_cycles

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (report files)."""
        return {
            "key": self.key,
            "family": self.family,
            "num_nodes": self.num_nodes,
            "default_cycles": self.default_cycles,
            "best_cycles": self.best_cycles,
            "improved": self.improved,
            "winner": self.winner,
            "winner_params": self.winner_params.to_dict(),
            "tried": list(self.tried),
            "rejected": list(self.rejected),
        }


@dataclass
class TuneReport:
    """One graph's search: per-shape winners + whole-graph check."""

    workload: str
    hw: HwConfig
    shapes: List[ShapeResult]
    default_total_cycles: float
    tuned_total_cycles: float

    @cached_property
    def _winners(self) -> Dict[Optional[str], MappingParams]:
        return {s.key: s.winner_params for s in self.shapes}

    def mapping_for(self, node: KernelNode) -> MappingParams:
        """The winner of ``node``'s shape (the default where none was
        searched): pass as ``mapping=report.mapping_for``."""
        return self._winners.get(node_key(node), DEFAULT_MAPPING)

    @property
    def speedup(self) -> float:
        """Whole-graph default/tuned cycle ratio (1.0 = no change)."""
        if self.tuned_total_cycles <= 0:
            return 1.0
        return self.default_total_cycles / self.tuned_total_cycles

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (report files, test assertions)."""
        return {
            "workload": self.workload,
            "hw": asdict(self.hw),
            "default_total_cycles": self.default_total_cycles,
            "tuned_total_cycles": self.tuned_total_cycles,
            "speedup": self.speedup,
            "num_shapes": len(self.shapes),
            "num_improved": sum(1 for s in self.shapes if s.improved),
            "num_rejected": sum(len(s.rejected) for s in self.shapes),
            "shapes": [s.to_dict() for s in self.shapes],
        }

    def summary_lines(self) -> List[str]:
        """Human-readable per-workload summary for the CLI."""
        d = self.to_dict()
        return [
            f"tuned {self.workload}: {d['num_improved']}/{d['num_shapes']} shapes "
            f"improved ({d['num_rejected']} candidates "
            f"sanitizer/validity-rejected)",
            f"  default {self.default_total_cycles / 1e6:.2f} Mcycles -> "
            f"tuned {self.tuned_total_cycles / 1e6:.2f} Mcycles "
            f"({self.speedup:.3f}x)",
        ]


def _rejection(candidate: Candidate, hw: HwConfig) -> Optional[Dict[str, Any]]:
    """Why ``candidate`` may not be scored on ``hw`` (``None``: it may)."""
    reasons, stage = candidate.params.invalid_reasons(hw), "validity"
    if not reasons and candidate.built_schedule is not None:
        # Static ``sched.*`` findings of the microcode it would emit.
        findings = sanitize(spec_of(candidate.built_schedule()))
        reasons, stage = [f"{f.rule}: {f.message}" for f in findings], "sanitizer"
    if not reasons:
        return None
    return {"label": candidate.label, "stage": stage, "reasons": reasons}


def _score(nodes: List[KernelNode], candidate: Candidate, hw: HwConfig) -> float:
    """Summed elapsed cycles of ``nodes`` under one mapping point."""
    return sum(
        map_node(n, hw, candidate.params).elapsed_cycles(hw) for n in nodes
    )


def tune_graph(graph: ComputationGraph, hw: HwConfig = DEFAULT_CONFIG) -> TuneReport:
    """Search the mapping space for every tunable shape in ``graph``.

    Per shape: the arg-min of the summed ``map_node(...).elapsed_cycles``
    over the candidates that are structurally valid on ``hw`` and
    sanitizer-clean, in enumeration order.
    """
    groups: Dict[str, List[KernelNode]] = {}
    for node in graph.topological_order():
        key = node_key(node)
        if key is not None:
            groups.setdefault(key, []).append(node)

    spaces = {s.family: s for s in candidate_spaces()}
    # Rejection is per candidate, not per shape: decide each once.
    rejections = {
        c.label: _rejection(c, hw) for s in spaces.values() for c in s.candidates[1:]
    }
    shapes: List[ShapeResult] = []
    for key in sorted(groups):
        nodes = groups[key]
        family = _FAMILY_OF_KIND[nodes[0].kind]
        default, *others = spaces[family].candidates
        default_cycles = _score(nodes, default, hw)
        result = ShapeResult(
            key=key,
            family=family,
            num_nodes=len(nodes),
            default_cycles=default_cycles,
            best_cycles=default_cycles,
            winner=default.label,
            winner_params=default.params,
            tried=[default.label],
        )
        for cand in others:
            rejection = rejections[cand.label]
            if rejection is not None:
                result.rejected.append(rejection)
                continue
            result.tried.append(cand.label)
            cycles = _score(nodes, cand, hw)
            if cycles < result.best_cycles:
                result.best_cycles = cycles
                result.winner = cand.label
                result.winner_params = cand.params
        shapes.append(result)

    # Whole-graph check: the winners against the static mapping, end to
    # end through the one schedule the simulator reports.
    report = TuneReport(
        workload=graph.name,
        hw=hw,
        shapes=shapes,
        default_total_cycles=schedule(graph, hw).total_cycles,
        tuned_total_cycles=0.0,
    )
    report.tuned_total_cycles = schedule(
        graph, hw, mapping=report.mapping_for
    ).total_cycles
    return report


def tune_workload(params: PlonkParams, hw: HwConfig = DEFAULT_CONFIG) -> TuneReport:
    """Tune one paper workload's Plonky2 proof-generation graph."""
    return tune_graph(trace_plonky2(params), hw)
