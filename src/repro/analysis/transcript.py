"""Layer 3: Fiat-Shamir transcript conformance (``fs.*`` rules).

The soundness of the Fiat-Shamir transform rests on sequencing: every
prover message must be absorbed into the duplex state *before* any
verifier challenge that is supposed to depend on it is squeezed (weak
Fiat-Shamir -- binding challenges to too little of the transcript -- is
a classic, exploitable proof-system bug), and the prover and verifier
must absorb byte-identical streams or verification diverges silently.

This pass checks those properties *semantically* rather than by code
review: a :class:`RecordingChallenger` (an observationally transparent
:class:`~repro.hashing.Challenger` subclass) drives each registered
backend's real ``prove`` and ``verify`` paths at tiny scale and records
the abstract event streams, which are then checked against the
backend's declared :class:`~repro.protocols.transcript.TranscriptSpec`:

* ``fs.transcript-mismatch`` -- prover/verifier streams must be
  identical event-for-event (kind and payload);
* ``fs.publics-order`` -- the public inputs are absorbed right after
  the declared setup caps, before any challenge;
* ``fs.unobserved-message`` / ``fs.binding-order`` -- every commitment
  cap the proof carries is absorbed, and absorbed before the challenge
  ordinal it must bind (the weak-FS detector);
* ``fs.challenge-repeat`` -- no identical challenge value at two
  stream positions (the duplex state advanced between draws);
* ``fs.dangling-observe`` -- no prover message absorbed after the
  final challenge (nothing downstream could depend on it).

Checks run straight off :mod:`repro.protocols.registry`, so a new
backend is covered as soon as it returns a spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..field import goldilocks as gl
from ..hashing import Challenger
from .findings import Finding

#: Event kinds that squeeze challenges; payload length == base draws.
CHALLENGE_KINDS = frozenset({"challenge", "challenge_ext", "challenge_n", "indices"})
#: Event kinds that absorb prover messages.
OBSERVE_KINDS = frozenset({"obs_elem", "obs_vec", "obs_digest", "obs_cap"})


@dataclass(frozen=True)
class TranscriptEvent:
    """One outermost challenger interaction.

    ``payload`` is a tuple of canonical field elements: the absorbed
    values for observe events, the squeezed values for challenge
    events.  For challenge kinds ``len(payload)`` is the number of
    base-field draws the event consumed (an extension challenge is two,
    ``get_n_challenges(n)`` is ``n``).
    """

    kind: str
    payload: Tuple[int, ...]

    def base_draws(self) -> int:
        """Base-field challenge draws this event consumed (0 if observe)."""
        return len(self.payload) if self.kind in CHALLENGE_KINDS else 0

    def describe(self) -> str:
        """Short human label for finding messages (kind + size)."""
        if self.kind in CHALLENGE_KINDS:
            return f"{self.kind}({len(self.payload)} draws)"
        return f"{self.kind}({len(self.payload)} elems)"


def _ints(values) -> Tuple[int, ...]:
    return tuple(int(v) for v in np.asarray(values, dtype=np.uint64).reshape(-1))


class RecordingChallenger(Challenger):
    """A transcript challenger that records its abstract event stream.

    Observationally transparent: the duplex state evolution is exactly
    the base class's, so proofs driven through a recording challenger
    are bit-identical to plain ones (asserted by the tests).  Only the
    *outermost* API call is recorded -- ``observe_cap`` absorbs through
    ``observe_digest`` -> ``observe_elements`` -> ``observe_element``,
    which a reentrancy depth guard keeps out of the stream.  Forks made
    by :meth:`Challenger.clone` (proof-of-work grinding) record into
    their own discarded lists, so the prover's many grinding forks and
    the verifier's single check fork cannot desynchronize the streams.
    """

    def __init__(self) -> None:
        super().__init__()
        self.events: List[TranscriptEvent] = []
        self._depth = 0

    # -- recording machinery ---------------------------------------------

    def _emit(self, kind: str, payload: Tuple[int, ...]) -> None:
        if self._depth == 0:
            self.events.append(TranscriptEvent(kind, payload))

    def _enter(self) -> None:
        self._depth += 1

    def _exit(self) -> None:
        self._depth -= 1

    # -- observing ---------------------------------------------------------

    def observe_element(self, value: int) -> None:
        self._emit("obs_elem", (gl.canonical(int(value)),))
        self._enter()
        try:
            super().observe_element(value)
        finally:
            self._exit()

    def observe_elements(self, values) -> None:
        self._emit("obs_vec", _ints(values))
        self._enter()
        try:
            super().observe_elements(values)
        finally:
            self._exit()

    def observe_digest(self, digest: np.ndarray) -> None:
        self._emit("obs_digest", _ints(digest))
        self._enter()
        try:
            super().observe_digest(digest)
        finally:
            self._exit()

    def observe_cap(self, cap: np.ndarray) -> None:
        self._emit("obs_cap", _ints(cap))
        self._enter()
        try:
            super().observe_cap(cap)
        finally:
            self._exit()

    # -- squeezing ---------------------------------------------------------

    def get_challenge(self) -> int:
        self._enter()
        try:
            value = super().get_challenge()
        finally:
            self._exit()
        self._emit("challenge", (value,))
        return value

    def get_n_challenges(self, n: int) -> List[int]:
        self._enter()
        try:
            values = super().get_n_challenges(n)
        finally:
            self._exit()
        self._emit("challenge_n", tuple(values))
        return values

    def get_ext_challenge(self) -> np.ndarray:
        self._enter()
        try:
            value = super().get_ext_challenge()
        finally:
            self._exit()
        self._emit("challenge_ext", _ints(value))
        return value

    def get_indices(self, n: int, domain_size: int) -> List[int]:
        self._enter()
        try:
            values = super().get_indices(n, domain_size)
        finally:
            self._exit()
        self._emit("indices", tuple(values))
        return values


# ---------------------------------------------------------------------------
# Stream checks
# ---------------------------------------------------------------------------


def record_case(system, setup):
    """Drive one prove + verify with recording challengers.

    Returns ``(proof, prover_events, verifier_events)``.
    """
    prover = RecordingChallenger()
    proof = system.prove(setup, challenger=prover)
    verifier = RecordingChallenger()
    system.verify(setup, proof, challenger=verifier)
    return proof, prover.events, verifier.events


def _finding(rule: str, protocol: str, detail: str, message: str) -> Finding:
    return Finding(rule=rule, message=message, protocol=protocol, detail=detail)


def check_streams(
    protocol: str,
    case: str,
    spec,
    publics: Sequence[int],
    bindings,
    prover_events: Sequence[TranscriptEvent],
    verifier_events: Sequence[TranscriptEvent],
) -> List[Finding]:
    """Check one recorded prove/verify pair against its spec.

    ``case`` labels the instance (workload + scale) in finding details;
    ``publics`` / ``bindings`` come from the backend's
    ``public_inputs_of`` / ``cap_bindings`` hooks.  Pure function of
    the streams, so injected-violation fixtures tamper with event lists
    and assert the specific rule that fires.
    """
    findings: List[Finding] = []

    # fs.transcript-mismatch: event-for-event equality.
    for i, (pe, ve) in enumerate(zip(prover_events, verifier_events)):
        if pe != ve:
            findings.append(
                _finding(
                    "fs.transcript-mismatch",
                    protocol,
                    f"{case}:event[{i}]",
                    f"prover recorded {pe.describe()} but verifier recorded "
                    f"{ve.describe()} at stream position {i}",
                )
            )
            break
    else:
        if len(prover_events) != len(verifier_events):
            longer, n_extra = (
                ("prover", len(prover_events) - len(verifier_events))
                if len(prover_events) > len(verifier_events)
                else ("verifier", len(verifier_events) - len(prover_events))
            )
            findings.append(
                _finding(
                    "fs.transcript-mismatch",
                    protocol,
                    f"{case}:length",
                    f"{longer} transcript has {n_extra} extra trailing "
                    f"event(s) the other side never absorbs",
                )
            )

    # The remaining checks run on the verifier stream: it is the
    # binding side (what the proof must convince), and any divergence
    # from the prover stream was already reported above.
    events = list(verifier_events)

    # fs.publics-order: exactly the declared setup caps, then the
    # publics vector, before any challenge.
    expected = _ints(np.asarray(list(publics), dtype=np.uint64))
    position = None
    for i, ev in enumerate(events):
        if ev.kind == "obs_vec" and ev.payload == expected:
            position = i
            break
        if ev.kind in CHALLENGE_KINDS:
            break
    if position is None:
        findings.append(
            _finding(
                "fs.publics-order",
                protocol,
                f"{case}:publics",
                "public inputs are not absorbed before the first "
                "challenge (unbound publics can be swapped freely)",
            )
        )
    else:
        before = [ev.kind for ev in events[:position]]
        if before != ["obs_cap"] * spec.setup_caps:
            findings.append(
                _finding(
                    "fs.publics-order",
                    protocol,
                    f"{case}:publics",
                    f"expected exactly {spec.setup_caps} setup cap(s) "
                    f"before the public inputs, saw {before or 'nothing'}",
                )
            )

    # fs.unobserved-message / fs.binding-order: every proof cap is
    # absorbed, early enough for its dependent challenge.
    for binding in bindings:
        payload = _ints(binding.cap)
        observed_at = None
        draws_before = 0
        draws = 0
        for i, ev in enumerate(events):
            if ev.kind == "obs_cap" and ev.payload == payload:
                observed_at = i
                draws_before = draws
                break
            draws += ev.base_draws()
        if observed_at is None:
            findings.append(
                _finding(
                    "fs.unobserved-message",
                    protocol,
                    f"{case}:{binding.label}",
                    f"commitment cap {binding.label!r} is carried by the "
                    "proof but never absorbed into the transcript "
                    "(weak Fiat-Shamir: challenges do not depend on it)",
                )
            )
        elif draws_before > binding.before_challenge:
            findings.append(
                _finding(
                    "fs.binding-order",
                    protocol,
                    f"{case}:{binding.label}",
                    f"cap {binding.label!r} must be absorbed before "
                    f"base-challenge #{binding.before_challenge} but "
                    f"{draws_before} draws precede its observation",
                )
            )

    # fs.challenge-repeat: all squeezed base values distinct.  Query
    # indices are excluded -- they are masked to the domain size, so
    # small domains legitimately repeat.
    seen: Dict[int, int] = {}
    ordinal = 0
    for ev in events:
        if ev.kind in CHALLENGE_KINDS and ev.kind != "indices":
            for value in ev.payload:
                if value in seen:
                    findings.append(
                        _finding(
                            "fs.challenge-repeat",
                            protocol,
                            f"{case}:draw[{ordinal}]",
                            f"challenge draw #{ordinal} repeats draw "
                            f"#{seen[value]} exactly (duplex state did "
                            "not advance between squeezes)",
                        )
                    )
                else:
                    seen[value] = ordinal
                ordinal += 1
        elif ev.kind == "indices":
            ordinal += len(ev.payload)

    # fs.dangling-observe: nothing absorbed after the final challenge.
    last_challenge = max(
        (i for i, ev in enumerate(events) if ev.kind in CHALLENGE_KINDS),
        default=-1,
    )
    for i in range(last_challenge + 1, len(events)):
        if events[i].kind in OBSERVE_KINDS:
            findings.append(
                _finding(
                    "fs.dangling-observe",
                    protocol,
                    f"{case}:event[{i}]",
                    f"{events[i].describe()} absorbed after the final "
                    "challenge: no verifier randomness can depend on it",
                )
            )

    return findings


def check_case(system, setup) -> List[Finding]:
    """Record and check one proved instance end to end."""
    spec = system.transcript_spec()
    proof, prover_events, verifier_events = record_case(system, setup)
    return check_streams(
        system.name,
        f"{setup.workload}@{setup.scale}",
        spec,
        system.public_inputs_of(setup, proof),
        system.cap_bindings(setup, proof),
        prover_events,
        verifier_events,
    )


def run_transcript_checks(
    protocols: Optional[Sequence[str]] = None,
) -> Tuple[List[Finding], List[str]]:
    """Run transcript conformance for every registered backend.

    Returns ``(findings, protocols_checked)``.  Backends that do not
    declare a :class:`~repro.protocols.transcript.TranscriptSpec` are
    skipped (and not counted as checked).
    """
    from .. import protocols as registry_pkg
    from ..workloads import by_name

    names = list(protocols) if protocols is not None else list(registry_pkg.names())
    findings: List[Finding] = []
    checked: List[str] = []
    for name in names:
        system = registry_pkg.get(name)
        spec = system.transcript_spec()
        if spec is None:
            continue
        workload = by_name(spec.workload)
        config = system.make_config(spec.config_overrides)
        for scale in spec.scales:
            setup = system.setup(workload, scale, config)
            findings.extend(check_case(system, setup))
        checked.append(name)
    return findings, checked
