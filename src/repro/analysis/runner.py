"""Shared runner for the analysis layers.

``python -m repro.analysis`` and ``repro analyze`` run the same code:
sanitize every shipped PE-grid schedule (layer 1), check Fiat-Shamir
transcript conformance for every registered protocol (layer 2),
race-check representative instances of every shipped shard-graph shape
(layer 3), and report.

Exit status: ``0`` no finding, ``1`` any finding, ``2`` usage error
(an unknown rule id) -- always a clean one-line message, never a
traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .findings import (
    RACE_RULES,
    RULES,
    SCHEDULE_RULES,
    TRANSCRIPT_RULES,
    AnalysisError,
    Finding,
    add_analyze_arguments,
    check_rule_ids,
    sort_findings,
)


@dataclass
class AnalysisReport:
    """Everything one analysis run produced."""

    findings: List[Finding]
    schedules_checked: int
    protocols_checked: List[str] = field(default_factory=list)
    graphs_checked: List[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        """``1`` if the run found anything, else ``0``."""
        return 1 if self.findings else 0

    def rule_counts(self) -> dict:
        """Findings per rule id, zero-count rules omitted."""
        counts: dict = {}
        for f in self.findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self) -> dict:
        """JSON-ready report (for ``--json`` output)."""
        return {
            "schedules_checked": self.schedules_checked,
            "protocols_checked": list(self.protocols_checked),
            "graphs_checked": list(self.graphs_checked),
            "rule_counts": self.rule_counts(),
            "exit_code": self.exit_code,
            "findings": [f.to_dict() for f in self.findings],
        }

    def format_text(self) -> str:
        """Human-readable report, one finding per line."""
        lines = [
            f"schedule sanitizer: {self.schedules_checked} shipped schedules",
            f"transcript conformance: "
            f"{len(self.protocols_checked)} protocols "
            f"({', '.join(self.protocols_checked) or 'skipped'})",
            f"race detection: {len(self.graphs_checked)} shipped graph shapes",
            f"findings: {len(self.findings)}",
        ]
        lines.extend("  " + f.format() for f in self.findings)
        return "\n".join(lines)


def run_analysis(rules: Optional[Sequence[str]] = None) -> AnalysisReport:
    """Run every layer, or only those with a rule in ``rules``."""
    from .races import run_race_checks
    from .sanitizer import sanitize
    from .schedules import shipped_specs
    from .transcript import run_transcript_checks

    if rules is not None:
        check_rule_ids(rules)
    findings: List[Finding] = []
    schedule_rules = (
        None if rules is None else [r for r in rules if r in SCHEDULE_RULES]
    )
    fs_rules = None if rules is None else [r for r in rules if r in TRANSCRIPT_RULES]
    race_rules = None if rules is None else [r for r in rules if r in RACE_RULES]

    schedules_checked = 0
    if schedule_rules is None or schedule_rules:
        for spec in shipped_specs():
            schedules_checked += 1
            findings.extend(sanitize(spec, rules=schedule_rules))

    protocols_checked: List[str] = []
    if fs_rules is None or fs_rules:
        fs_findings, protocols_checked = run_transcript_checks()
        if fs_rules is not None:
            fs_findings = [f for f in fs_findings if f.rule in fs_rules]
        findings.extend(fs_findings)

    graphs_checked: List[str] = []
    if race_rules is None or race_rules:
        race_findings, graphs_checked = run_race_checks()
        if race_rules is not None:
            race_findings = [f for f in race_findings if f.rule in race_rules]
        findings.extend(race_findings)

    return AnalysisReport(
        findings=sort_findings(findings),
        schedules_checked=schedules_checked,
        protocols_checked=protocols_checked,
        graphs_checked=graphs_checked,
    )


def list_rules() -> str:
    """The rule catalogue, one line per rule."""
    lines = []
    for layer, title in (
        ("schedule", "Schedule sanitizer"),
        ("transcript", "Transcript conformance"),
        ("races", "Shard-graph race detection"),
    ):
        lines.append(f"{title}:")
        for rule in RULES.values():
            if rule.layer == layer:
                lines.append(f"  {rule.id:28s} {rule.summary}")
    return "\n".join(lines)


def execute(args: argparse.Namespace) -> int:
    """Run the analysis per parsed CLI flags; raises :class:`AnalysisError`."""
    if args.list_rules:
        print(list_rules())
        return 0
    rules = None
    if args.rules is not None:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
        if not rules:
            raise AnalysisError("--rules given but no rule ids parsed")
    report = run_analysis(rules=rules)
    print(json.dumps(report.to_dict(), indent=2) if args.json else report.format_text())
    return report.exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.analysis`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description="UniZK reproduction soundness analysis: "
        "PE-grid schedule sanitizer, Fiat-Shamir transcript conformance, "
        "shard-graph race detection",
    )
    add_analyze_arguments(parser)
    args = parser.parse_args(argv)
    try:
        return execute(args)
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
