"""Shared runner for all analysis layers.

``python -m repro.analysis`` and ``repro analyze`` run the same code:
sanitize every shipped PE-grid schedule (layer 1), lint the whole
``repro`` package (layer 2), check Fiat-Shamir transcript conformance
for every registered protocol (layer 3), race-check representative
instances of every shipped shard-graph shape (layer 4), match the
findings against the suppression baseline, and report.

Exit status: ``0`` clean (or informational mode), ``1`` non-baselined
findings under ``--strict``, ``2`` usage errors (unknown rule id,
malformed baseline) -- always a clean one-line message, never a
traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

from .baseline import (
    BaselineEntry,
    MatchResult,
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
    check_rule_ids,
    sort_findings,
)


@dataclass
class AnalysisReport:
    """Everything one analysis run produced."""

    findings: List[Finding]
    match: MatchResult
    schedules_checked: int
    modules_checked: int
    baseline_entries: List[BaselineEntry] = field(default_factory=list)
    protocols_checked: List[str] = field(default_factory=list)
    graphs_checked: List[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        """The strict-mode exit status this report implies."""
        if self.match.new or self.match.unjustified:
            return 1
        return 0

    def rule_counts(self) -> dict:
        """Findings per rule id (new + suppressed), zero-count rules omitted."""
        counts: dict = {}
        for f in self.findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self) -> dict:
        """JSON-ready report (for ``--json`` output)."""
        return {
            "schedules_checked": self.schedules_checked,
            "modules_checked": self.modules_checked,
            "protocols_checked": list(self.protocols_checked),
            "graphs_checked": list(self.graphs_checked),
            "rule_counts": self.rule_counts(),
            "exit_code": self.exit_code,
            "new": [f.to_dict() for f in self.match.new],
            "suppressed": [f.to_dict() for f in self.match.suppressed],
            "stale_baseline": [
                {"rule": e.rule, "key": e.key} for e in self.match.stale
            ],
        }

    def format_text(self, verbose_suppressed: bool = False) -> str:
        """Human-readable report, one finding per line."""
        lines = [
            f"schedule sanitizer: {self.schedules_checked} shipped schedules",
            f"repo lint: {len(RULES)} rules over {self.modules_checked} modules",
            f"transcript conformance: "
            f"{len(self.protocols_checked)} protocols "
            f"({', '.join(self.protocols_checked) or 'skipped'})",
            f"race detection: {len(self.graphs_checked)} shipped graph shapes",
            f"findings: {len(self.match.new)} new, "
            f"{len(self.match.suppressed)} baselined, "
            f"{len(self.match.stale)} stale baseline entries",
        ]
        for f in sort_findings(self.match.new):
            lines.append("  " + f.format())
        if verbose_suppressed:
            for f in sort_findings(self.match.suppressed):
                lines.append("  (baselined) " + f.format())
        for e in self.match.stale:
            lines.append(
                f"  warning: stale baseline entry [{e.rule}] {e.key} "
                "(no longer matches any finding; prune with --update-baseline)"
            )
        return "\n".join(lines)


def run_analysis(
    rules: Optional[Sequence[str]] = None,
    baseline_path: Optional[Path] = None,
) -> AnalysisReport:
    """Run all four layers and match against the baseline."""
    from .lint import iter_modules, lint_source
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
    lint_rules = None if rules is None else [r for r in rules if r in LINT_RULES]
    fs_rules = None if rules is None else [r for r in rules if r in TRANSCRIPT_RULES]
    race_rules = None if rules is None else [r for r in rules if r in RACE_RULES]

    schedules_checked = 0
    if schedule_rules is None or schedule_rules:
        for spec in shipped_specs():
            schedules_checked += 1
            findings.extend(sanitize(spec, rules=schedule_rules))

    modules_checked = 0
    if lint_rules is None or lint_rules:
        for relpath, source in iter_modules():
            modules_checked += 1
            findings.extend(lint_source(relpath, source, rules=lint_rules))

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

    findings = sort_findings(findings)
    entries = load_baseline(baseline_path or default_baseline_path())
    return AnalysisReport(
        findings=findings,
        match=match_baseline(findings, entries),
        schedules_checked=schedules_checked,
        modules_checked=modules_checked,
        baseline_entries=entries,
        protocols_checked=protocols_checked,
        graphs_checked=graphs_checked,
    )


def list_rules() -> str:
    """The rule catalogue, one line per rule."""
    lines = []
    for layer, title in (
        ("schedule", "Schedule sanitizer"),
        ("lint", "Repo lint"),
        ("transcript", "Transcript conformance"),
        ("races", "Shard-graph race detection"),
    ):
        lines.append(f"{title}:")
        for rule in RULES.values():
            if rule.layer == layer:
                lines.append(f"  {rule.id:28s} {rule.summary}")
    return "\n".join(lines)


def add_analyze_arguments(parser: argparse.ArgumentParser) -> None:
    """Shared flag definitions for ``repro analyze`` and ``-m repro.analysis``."""
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 on any non-baselined finding or unjustified baseline entry",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="suppression baseline file (default: ANALYSIS_BASELINE.json at the repo root)",
    )
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
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from current findings "
        "(new entries get an empty justification, which --strict rejects)",
    )
    parser.add_argument(
        "--show-baselined",
        action="store_true",
        help="also list suppressed findings",
    )


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
        check_rule_ids(rules)
    baseline_path = Path(args.baseline) if args.baseline else default_baseline_path()
    report = run_analysis(rules=rules, baseline_path=baseline_path)

    if args.update_baseline:
        merged = update_baseline(report.findings, report.baseline_entries)
        save_baseline(baseline_path, merged)
        empty = sum(1 for e in merged if not e.justification.strip())
        print(
            f"wrote {baseline_path} ({len(merged)} entries, "
            f"{empty} awaiting justification)"
        )
        return 0

    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.format_text(verbose_suppressed=args.show_baselined))

    if args.strict:
        failed = False
        if report.match.unjustified:
            failed = True
            for e in report.match.unjustified:
                print(
                    f"strict: baseline entry [{e.rule}] {e.key} has no "
                    "justification",
                    file=sys.stderr,
                )
        if report.match.new:
            failed = True
            print(
                f"strict: {len(report.match.new)} non-baselined finding(s)",
                file=sys.stderr,
            )
        return 1 if failed else 0
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.analysis`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description="UniZK reproduction static analysis: "
        "PE-grid schedule sanitizer, prover-invariant lint, "
        "Fiat-Shamir transcript conformance, shard-graph race detection",
    )
    add_analyze_arguments(parser)
    args = parser.parse_args(argv)
    try:
        return execute(args)
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
