"""Finding records and the analysis rule catalogue.

Every check in the analysis subsystem -- schedule sanitizer rules,
transcript conformance and shard-graph race detection alike -- is
registered here as a :class:`Rule` with a stable id.  Checks report
:class:`Finding` records carrying the rule id plus a location: PE
coordinate and cycle for schedule findings, protocol for transcript
findings, graph for race findings.

Rule ids are namespaced: ``sched.*`` for the PE-grid schedule
sanitizer (:mod:`repro.analysis.sanitizer`), ``fs.*`` for Fiat-Shamir
transcript conformance (:mod:`repro.analysis.transcript`), and
``race.*`` for shard-graph race detection
(:mod:`repro.analysis.races`).
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Rule:
    """One registered static-analysis rule."""

    id: str
    layer: str  # "schedule", "transcript" or "races"
    summary: str


#: The full rule catalogue, in documentation order.
RULES: Dict[str, Rule] = {
    r.id: r
    for r in (
        # -- layer 1: schedule sanitizer ---------------------------------
        Rule(
            "sched.pe-oob",
            "schedule",
            "program assigned to a PE coordinate outside the grid",
        ),
        Rule(
            "sched.mul-overcommit",
            "schedule",
            "more than one mul/mac issued by a PE in one cycle "
            "(a PE has a single multiplier)",
        ),
        Rule(
            "sched.add-overcommit",
            "schedule",
            "more than two add/sub/mov issued by a PE in one cycle "
            "(a PE has two adder slots)",
        ),
        Rule(
            "sched.latch-double-drive",
            "schedule",
            "an outgoing latch (right/down/up) driven by more than one "
            "instruction in the same cycle",
        ),
        Rule(
            "sched.reg-oob",
            "schedule",
            "register-file index (operand or destination) outside the "
            "PE's register file",
        ),
        Rule(
            "sched.reverse-link",
            "schedule",
            "up latch driven from a column without a reverse link",
        ),
        Rule(
            "sched.reg-use-before-def",
            "schedule",
            "read of a register never preloaded nor written by an "
            "earlier cycle",
        ),
        Rule(
            "sched.latch-use-before-def",
            "schedule",
            "read of an incoming latch that no upstream instruction "
            "drove in the previous cycle (and no boundary feed covers)",
        ),
        # -- layer 2: Fiat-Shamir transcript conformance ------------------
        Rule(
            "fs.transcript-mismatch",
            "transcript",
            "prover and verifier transcripts diverge: a different event "
            "kind or payload at the same stream position",
        ),
        Rule(
            "fs.publics-order",
            "transcript",
            "public inputs not bound into the transcript at the "
            "spec-declared position (after the setup caps, before any "
            "challenge)",
        ),
        Rule(
            "fs.unobserved-message",
            "transcript",
            "a commitment cap carried by the proof was never observed "
            "on the transcript (weak Fiat-Shamir)",
        ),
        Rule(
            "fs.binding-order",
            "transcript",
            "a commitment cap observed only after a challenge that must "
            "depend on it was already drawn",
        ),
        Rule(
            "fs.challenge-repeat",
            "transcript",
            "an identical challenge value drawn at two transcript "
            "positions (the duplex state did not advance between draws)",
        ),
        Rule(
            "fs.dangling-observe",
            "transcript",
            "a prover message observed after the final challenge: no "
            "verifier randomness can depend on it",
        ),
        # -- layer 3: shard-graph race detection --------------------------
        Rule(
            "race.write-write",
            "races",
            "two shards write overlapping regions of one shared buffer "
            "with no dependency path ordering them",
        ),
        Rule(
            "race.read-write",
            "races",
            "one shard reads a region another shard writes with no "
            "dependency path ordering them",
        ),
        Rule(
            "race.no-footprint",
            "races",
            "a shard kind with no declared read/write footprint: its "
            "memory accesses cannot be verified race-free",
        ),
        Rule(
            "race.challenger-in-shard",
            "races",
            "a shard kernel is handed a Challenger: Fiat-Shamir "
            "interaction must stay in the coordinator",
        ),
    )
}

#: Rule ids belonging to the schedule sanitizer layer.
SCHEDULE_RULES = tuple(r.id for r in RULES.values() if r.layer == "schedule")
#: Rule ids belonging to the transcript conformance layer.
TRANSCRIPT_RULES = tuple(r.id for r in RULES.values() if r.layer == "transcript")
#: Rule ids belonging to the shard-graph race layer.
RACE_RULES = tuple(r.id for r in RULES.values() if r.layer == "races")


class AnalysisError(Exception):
    """User-facing analysis failure (an unknown rule id).

    Rendered as a clean one-line error by the runner and the
    ``repro analyze`` CLI subcommand, mirroring :class:`repro.cli.CliError`.
    """


def check_rule_ids(rule_ids) -> None:
    """Validate a rule-id selection, raising :class:`AnalysisError`."""
    for rule_id in rule_ids:
        if rule_id not in RULES:
            known = ", ".join(sorted(RULES))
            raise AnalysisError(
                f"unknown rule id {rule_id!r} (choose from: {known})"
            )


def add_analyze_arguments(parser: argparse.ArgumentParser) -> None:
    """Shared flag definitions for ``repro analyze`` and ``-m repro.analysis``:
    which rules of this catalogue to run and how to report them.  Here
    rather than in the runner so that building the CLI's parser loads
    none of the analysis layers."""
    parser.add_argument(
        "--rules",
        default=None,
        metavar="ID[,ID...]",
        help="run only these rule ids (see --list-rules)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )


@dataclass
class Finding:
    """One structured analysis finding.

    Schedule findings populate ``schedule``/``pe``/``cycle``;
    transcript findings populate ``protocol``/``detail``; race findings
    populate ``graph``/``detail``.
    """

    rule: str
    message: str
    detail: Optional[str] = None
    # schedule location
    schedule: Optional[str] = None
    pe: Optional[Tuple[int, int]] = None
    cycle: Optional[int] = None
    # transcript location
    protocol: Optional[str] = None
    # race location
    graph: Optional[str] = None

    def format(self) -> str:
        """One human-readable report line."""
        if self.protocol is not None:
            where = f"protocol {self.protocol}"
            if self.detail:
                where += f" ({self.detail})"
        elif self.graph is not None:
            where = f"graph {self.graph}"
            if self.detail:
                where += f" ({self.detail})"
        else:
            where = self.schedule or "<schedule>"
            if self.pe is not None:
                where += f" PE{self.pe}"
            if self.cycle is not None:
                where += f" cycle {self.cycle}"
        return f"[{self.rule}] {where}: {self.message}"

    def to_dict(self) -> dict:
        """JSON-ready representation (for ``--json`` output)."""
        out = {"rule": self.rule, "message": self.message}
        for name in ("detail", "schedule", "cycle", "protocol", "graph"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        if self.pe is not None:
            out["pe"] = list(self.pe)
        return out


def sort_findings(findings: List[Finding]) -> List[Finding]:
    """Deterministic report order: rule, then location."""
    return sorted(
        findings,
        key=lambda f: (
            f.rule,
            f.schedule or "",
            f.pe or (-1, -1),
            f.cycle if f.cycle is not None else -1,
            f.protocol or "",
            f.graph or "",
            f.detail or "",
        ),
    )
