"""The fuzz campaign loop: mutate, classify, shrink, persist, report.

Every iteration is addressed by ``(seed, i)``: the mutator choice draws
from ``default_rng([seed, i, 0])`` and the mutator body from
``default_rng([seed, i, 1])``, so any finding can be regenerated from
its ``(seed, iteration, mutator)`` triple alone -- that is what makes
object-level findings (which carry no bytes) replayable.

Outcome classes:

* ``rejected-decode`` / ``rejected-verify`` -- the mutant was refused
  with a typed error (:data:`~repro.fuzz.targets.TYPED_REJECTIONS`).
  This is the only acceptable fate for a mutant.
* ``accepted`` -- the verifier accepted a tampered proof: a soundness
  finding.
* ``untyped-decode`` / ``untyped-verify`` -- an exception outside the
  typed set escaped (``IndexError``, ``ZeroDivisionError``, ...): a
  robustness finding that would kill a service worker.
* ``no-op`` / ``not-applicable`` -- the mutator produced one of the two
  honest blobs back (or declined); nothing was tested.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..protocols import names as protocol_names
from .artifacts import BAD_OUTCOMES, Finding, load_finding, save_finding
from .mutators import MUTATOR_NAMES, MUTATORS, Mutant
from .oracles import OracleFinding, run_oracles
from .targets import TYPED_REJECTIONS, FuzzTarget, target_for

#: Cap on single-byte shrink probes per finding (keeps shrinking bounded
#: even when a structural mutant re-encodes into a large diff).
_SHRINK_PROBE_LIMIT = 512


def classify_bytes(target: FuzzTarget, data: bytes) -> Tuple[str, Optional[BaseException]]:
    """Decode-then-verify a byte mutant; returns ``(outcome, exception)``."""
    try:
        proof = target.decode(data)
    except TYPED_REJECTIONS as exc:
        return "rejected-decode", exc
    except Exception as exc:  # noqa: BLE001 -- the untyped leak IS the finding
        return "untyped-decode", exc
    return classify_object(target, proof)


def classify_object(target: FuzzTarget, proof: object) -> Tuple[str, Optional[BaseException]]:
    """Verify a proof object; returns ``(outcome, exception)``."""
    try:
        target.run_verify(proof)
    except TYPED_REJECTIONS as exc:
        return "rejected-verify", exc
    except Exception as exc:  # noqa: BLE001
        return "untyped-verify", exc
    return "accepted", None


def shrink_bytes(target: FuzzTarget, data: bytes, outcome: str) -> bytes:
    """Greedily revert mutated bytes toward the honest blob.

    Only equal-length mutants shrink (the diff against ``target.blob``
    is well defined byte-for-byte); each differing byte is reverted if
    the outcome class is preserved, leaving a minimal mutation set.
    """
    original = target.blob
    if len(data) != len(original) or data == original:
        return data
    diff = [i for i in range(len(data)) if data[i] != original[i]]
    if len(diff) > _SHRINK_PROBE_LIMIT:
        return data
    cur = bytearray(data)
    for i in diff:
        saved = cur[i]
        cur[i] = original[i]
        if bytes(cur) == original or classify_bytes(target, bytes(cur))[0] != outcome:
            cur[i] = saved
    return bytes(cur)


@dataclass
class FuzzReport:
    """Aggregate result of one fuzz campaign."""

    seed: int
    iterations_run: int = 0
    elapsed_s: float = 0.0
    outcomes: Dict[str, int] = field(default_factory=dict)
    per_mutator: Dict[str, Dict[str, int]] = field(default_factory=dict)
    findings: List[Finding] = field(default_factory=list)
    oracle_findings: List[OracleFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True iff the campaign surfaced no findings at all."""
        return not self.findings and not self.oracle_findings

    def summary_lines(self) -> List[str]:
        """Human-readable campaign summary."""
        lines = [
            f"fuzz: seed={self.seed} iterations={self.iterations_run} "
            f"elapsed={self.elapsed_s:.1f}s"
        ]
        for outcome in sorted(self.outcomes):
            lines.append(f"  {outcome}: {self.outcomes[outcome]}")
        lines.append(
            f"  findings: {len(self.findings)} mutation, "
            f"{len(self.oracle_findings)} oracle"
        )
        for f in self.findings:
            lines.append(f"  FINDING {f.describe()}")
        for of in self.oracle_findings:
            lines.append(f"  ORACLE FINDING [{of.oracle}] iter {of.iteration}: {of.detail}")
        return lines


def _bump(counters: Dict[str, int], key: str) -> None:
    counters[key] = counters.get(key, 0) + 1


def run_fuzz(
    seed: int = 0,
    iterations: Optional[int] = None,
    budget_s: Optional[float] = None,
    protocols: Optional[Sequence[str]] = None,
    corpus_dir: Optional[str] = None,
    shrink: bool = True,
    oracle_iters: int = 0,
    progress: Optional[Callable[[int, FuzzReport], None]] = None,
) -> FuzzReport:
    """Run a mutation-fuzz campaign (plus optional oracle iterations).

    Stops at ``iterations`` mutants or after ``budget_s`` seconds,
    whichever comes first (1000 iterations if neither is given);
    ``protocols`` defaults to every registered backend.
    Findings are shrunk (byte mutants of unchanged length) and, when
    ``corpus_dir`` is given, persisted as replayable artifacts.
    """
    if iterations is None and budget_s is None:
        iterations = 1000
    if protocols is None:
        protocols = protocol_names()
    report = FuzzReport(seed=seed)
    start = time.monotonic()
    i = 0
    while True:
        if iterations is not None and i >= iterations:
            break
        if budget_s is not None and time.monotonic() - start >= budget_s:
            break
        protocol = protocols[i % len(protocols)]
        target = target_for(protocol)
        pick = np.random.default_rng([seed, i, 0])
        name = MUTATOR_NAMES[int(pick.integers(0, len(MUTATOR_NAMES)))]
        mutant = MUTATORS[name](target, np.random.default_rng([seed, i, 1]))
        report.iterations_run = i + 1
        i += 1

        mut_counters = report.per_mutator.setdefault(name, {})
        if mutant is None:
            _bump(report.outcomes, "not-applicable")
            _bump(mut_counters, "not-applicable")
            continue
        # A splice cut inside the two honest blobs' common prefix
        # rebuilds ``alt_blob`` exactly: honest bytes, not a mutant.
        if mutant.kind == "bytes" and mutant.data in (target.blob, target.alt_blob):
            _bump(report.outcomes, "no-op")
            _bump(mut_counters, "no-op")
            continue

        if mutant.kind == "bytes":
            outcome, exc = classify_bytes(target, mutant.data)
        else:
            outcome, exc = classify_object(target, mutant.proof)
        _bump(report.outcomes, outcome)
        _bump(mut_counters, outcome)

        if outcome in BAD_OUTCOMES:
            data_hex = shrunk_hex = None
            if mutant.kind == "bytes":
                data_hex = mutant.data.hex()
                if shrink:
                    small = shrink_bytes(target, mutant.data, outcome)
                    if small != mutant.data:
                        shrunk_hex = small.hex()
            finding = Finding(
                protocol=protocol,
                mutator=name,
                kind=mutant.kind,
                seed=seed,
                iteration=i - 1,
                outcome=outcome,
                exception_type=type(exc).__name__ if exc is not None else None,
                exception_msg=str(exc) if exc is not None else None,
                data_hex=data_hex,
                shrunk_hex=shrunk_hex,
                proof_format=target.proof_format,
            )
            report.findings.append(finding)
            if corpus_dir is not None:
                save_finding(finding, corpus_dir)

        if progress is not None and i % 500 == 0:
            progress(i, report)

    report.elapsed_s = time.monotonic() - start
    if oracle_iters > 0:
        report.oracle_findings = run_oracles(seed, oracle_iters)
        report.elapsed_s = time.monotonic() - start
    return report


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of replaying one stored artifact."""

    finding: Finding
    outcome: str
    exception: Optional[str]

    @property
    def reproduced(self) -> bool:
        """True iff the artifact still triggers a finding-class outcome."""
        return self.outcome in BAD_OUTCOMES


def replay_mutant(finding: Finding) -> Optional[Mutant]:
    """Regenerate the mutant a finding refers to (for object findings)."""
    target = target_for(finding.protocol)
    rng = np.random.default_rng([finding.seed, finding.iteration, 1])
    return MUTATORS[finding.mutator](target, rng)


def replay_artifact(path: str) -> ReplayResult:
    """Re-run a stored finding against the current code.

    Byte findings replay their stored (shrunk, if available) bytes;
    object findings regenerate the mutant from the seeded generator.
    ``reproduced`` is True when the defect is still present -- the CLI
    maps that to a failing exit code, and to a passing one once the
    fix lands.
    """
    finding = load_finding(path)
    target = target_for(finding.protocol)
    if finding.kind == "bytes":
        blob_hex = finding.shrunk_hex or finding.data_hex
        if blob_hex is None:
            raise ValueError("byte-level artifact carries no mutant bytes")
        outcome, exc = classify_bytes(target, bytes.fromhex(blob_hex))
    else:
        mutant = replay_mutant(finding)
        if mutant is None:
            return ReplayResult(finding=finding, outcome="not-applicable", exception=None)
        if mutant.kind == "bytes":
            outcome, exc = classify_bytes(target, mutant.data)
        else:
            outcome, exc = classify_object(target, mutant.proof)
    return ReplayResult(
        finding=finding,
        outcome=outcome,
        exception=f"{type(exc).__name__}: {exc}" if exc is not None else None,
    )
