"""Transcript conformance analysis: recording challenger + fs.* rules."""

import numpy as np
import pytest

import repro.protocols as protocols
from repro.analysis.transcript import (
    CHALLENGE_KINDS,
    RecordingChallenger,
    TranscriptEvent,
    check_streams,
    record_case,
    run_transcript_checks,
)
from repro.hashing import Challenger
from repro.plonk.protocol import PLONK
from repro.protocols.transcript import CapBinding
from repro.workloads import by_name


def _rules(findings):
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# The recording challenger is observationally transparent
# ---------------------------------------------------------------------------


class TestRecordingChallenger:
    def _drive(self, ch):
        ch.observe_element(7)
        ch.observe_elements(np.arange(9, dtype=np.uint64))
        ch.observe_cap(np.arange(8, dtype=np.uint64).reshape(2, 4))
        out = [ch.get_challenge()]
        out.extend(int(v) for v in ch.get_ext_challenge())
        out.extend(ch.get_n_challenges(3))
        out.extend(ch.get_indices(4, 16))
        return out

    def test_same_duplex_evolution_as_plain_challenger(self):
        plain = self._drive(Challenger())
        recording = RecordingChallenger()
        recorded = self._drive(recording)
        assert recorded == plain
        # Only outermost calls appear: cap absorption does not leak its
        # internal observe_elements/observe_element chain.
        kinds = [e.kind for e in recording.events]
        assert kinds == [
            "obs_elem", "obs_vec", "obs_cap",
            "challenge", "challenge_ext", "challenge_n", "indices",
        ]

    def test_clone_forks_record_into_their_own_stream(self):
        ch = RecordingChallenger()
        ch.observe_element(3)
        fork = ch.clone()
        assert isinstance(fork, RecordingChallenger)
        fork.observe_element(5)
        fork.get_challenge()
        # The parent stream never sees the fork's events (grinding
        # forks must not desynchronize prover/verifier streams).
        assert [e.kind for e in ch.events] == ["obs_elem"]
        assert [e.kind for e in fork.events] == ["obs_elem", "challenge"]

    def test_challenge_payload_is_the_squeezed_value(self):
        ch = RecordingChallenger()
        ch.observe_element(11)
        value = ch.get_challenge()
        assert ch.events[-1] == TranscriptEvent("challenge", (value,))
        assert ch.events[-1].base_draws() == 1


# ---------------------------------------------------------------------------
# Property: every registered protocol's streams conform at small scales
# ---------------------------------------------------------------------------


class TestProtocolConformance:
    @pytest.mark.parametrize("protocol", list(protocols.names()))
    def test_prover_and_verifier_streams_match_event_for_event(self, protocol):
        system = protocols.get(protocol)
        spec = system.transcript_spec()
        assert spec is not None, f"{protocol} declares no TranscriptSpec"
        workload = by_name(spec.workload)
        config = system.make_config(spec.config_overrides)
        for scale in spec.scales:
            setup = system.setup(workload, scale, config)
            proof, prover_events, verifier_events = record_case(system, setup)
            assert prover_events == verifier_events
            assert any(e.kind in CHALLENGE_KINDS for e in prover_events)
            findings = check_streams(
                protocol,
                f"{spec.workload}@{scale}",
                spec,
                list(setup.publics),
                system.cap_bindings(setup, proof),
                prover_events,
                verifier_events,
            )
            assert findings == [], [f.format() for f in findings]

    @pytest.mark.parametrize(
        "protocol, scale, cap_height, ordinals",
        [
            ("stark", 3, None, [0, 2]),
            ("stark", 7, None, [0, 2, 8]),
            ("stark", 12, None, [0, 2, 8, 10, 12]),
            ("plonk", 4, None, [0, 0, 2, 4]),
            # 2^4 rows: 4-row coset leaves take both folds, so no FRI
            # layer is committed.
            ("plonk", 8, None, [0, 0, 2, 4]),
            # Row leaves and a committed layer: no coset tree holds a
            # cap as tall as the 7-level LDE tree.
            ("plonk", 8, 7, [0, 0, 2, 4, 8]),
            # 2^5 rows: a committed layer after a virtual first layer.
            ("plonk", 16, None, [0, 0, 2, 4, 10]),
        ],
    )
    def test_derived_cap_bindings_keep_the_written_ordinals(
        self, protocol, scale, cap_height, ordinals
    ):
        # The labels, caps and ordinals the backends once wrote by hand.
        system = protocols.get(protocol)
        spec = system.transcript_spec()
        overrides = dict(spec.config_overrides)
        if cap_height is not None:
            overrides["cap_height"] = cap_height
        setup = system.setup(by_name(spec.workload), scale, system.make_config(overrides))
        proof = system.prove(setup)
        if protocol == "stark":
            named = list(zip(["trace_cap", "quotient_cap"], proof.caps))
        else:
            named = [("preprocessed_cap", setup.data[0].preprocessed.cap)]
            named += zip(["wires_cap", "z_cap", "quotient_cap"], proof.caps)
        named += [(f"fri.commit_caps[{k}]", cap) for k, cap in enumerate(proof.fri_proof.commit_caps)]
        bindings = system.cap_bindings(setup, proof)
        assert [b.label for b in bindings] == [label for label, _ in named]
        assert all(np.array_equal(b.cap, cap) for b, (_, cap) in zip(bindings, named))
        assert [b.before_challenge for b in bindings] == ordinals

    def test_recording_proof_is_bit_identical_to_plain(self):
        system = protocols.get("stark")
        spec = system.transcript_spec()
        setup = system.setup(
            by_name(spec.workload), spec.scales[0],
            system.make_config(spec.config_overrides),
        )
        plain = system.prove(setup)
        recorded = system.prove(setup, challenger=RecordingChallenger())
        assert system.digest(recorded) == system.digest(plain)

    def test_runner_entry_point_is_clean(self):
        findings, checked = run_transcript_checks()
        assert checked == list(protocols.names())
        assert findings == [], [f.format() for f in findings]


# ---------------------------------------------------------------------------
# Injected violations: each tamper trips its specific fs.* rule
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def stark_case():
    system = protocols.get("stark")
    spec = system.transcript_spec()
    setup = system.setup(
        by_name(spec.workload), spec.scales[0],
        system.make_config(spec.config_overrides),
    )
    proof, prover_events, verifier_events = record_case(system, setup)
    return {
        "spec": spec,
        "publics": list(setup.publics),
        "bindings": system.cap_bindings(setup, proof),
        "events": prover_events,
    }


def _check(case, prover_events, verifier_events=None):
    return check_streams(
        "stark",
        "tampered",
        case["spec"],
        case["publics"],
        case["bindings"],
        prover_events,
        verifier_events if verifier_events is not None else list(prover_events),
    )


def _cap_positions(case):
    payloads = {tuple(int(v) for v in np.asarray(b.cap).reshape(-1))
                for b in case["bindings"]}
    return [i for i, e in enumerate(case["events"])
            if e.kind == "obs_cap" and e.payload in payloads]


class TestInjectedViolations:
    def test_divergent_payload_is_a_transcript_mismatch(self, stark_case):
        verifier = list(stark_case["events"])
        i = next(i for i, e in enumerate(verifier) if e.kind == "obs_cap")
        verifier[i] = TranscriptEvent("obs_cap", (123456789,))
        findings = _check(stark_case, list(stark_case["events"]), verifier)
        assert "fs.transcript-mismatch" in _rules(findings)

    def test_extra_trailing_event_is_a_transcript_mismatch(self, stark_case):
        prover = list(stark_case["events"])
        prover.append(TranscriptEvent("obs_elem", (42,)))
        findings = _check(stark_case, prover, list(stark_case["events"]))
        assert "fs.transcript-mismatch" in _rules(findings)

    def test_cap_after_dependent_challenge_is_a_binding_violation(
        self, stark_case
    ):
        # Move the first proof cap (the trace cap, deadline 0) to the
        # very end of the stream, identically on both sides: no
        # mismatch, but every challenge stopped depending on it.
        events = list(stark_case["events"])
        i = _cap_positions(stark_case)[0]
        events.append(events.pop(i))
        findings = _check(stark_case, events)
        assert "fs.binding-order" in _rules(findings)

    def test_deleted_cap_is_weak_fiat_shamir(self, stark_case):
        events = list(stark_case["events"])
        del events[_cap_positions(stark_case)[0]]
        findings = _check(stark_case, events)
        assert "fs.unobserved-message" in _rules(findings)

    def test_repeated_challenge_value_is_caught(self, stark_case):
        events = list(stark_case["events"])
        draws = [i for i, e in enumerate(events) if e.kind == "challenge_ext"]
        assert len(draws) >= 2
        events[draws[1]] = events[draws[0]]
        findings = _check(stark_case, events)
        assert "fs.challenge-repeat" in _rules(findings)

    def test_observe_after_final_challenge_is_dangling(self, stark_case):
        events = list(stark_case["events"])
        events.append(TranscriptEvent("obs_elem", (99,)))
        findings = _check(stark_case, events)
        assert "fs.dangling-observe" in _rules(findings)

    def test_publics_after_first_challenge_is_an_order_violation(
        self, stark_case
    ):
        events = list(stark_case["events"])
        expected = tuple(int(v) for v in np.asarray(
            list(stark_case["publics"]), dtype=np.uint64).reshape(-1))
        i = next(i for i, e in enumerate(events)
                 if e.kind == "obs_vec" and e.payload == expected)
        first_challenge = next(
            j for j, e in enumerate(events) if e.kind in CHALLENGE_KINDS
        )
        events.insert(first_challenge + 1, events.pop(i))
        findings = _check(stark_case, events)
        assert "fs.publics-order" in _rules(findings)


def test_layer_caps_bind_after_the_virtual_layer_beta():
    # STARK Fibonacci commits 8-row cosets, so FRI's first layer is
    # virtual: its beta (#6-7) follows alpha with no cap, and the first
    # committed layer's cap binds beta #8.  Declaring the row layout's
    # #6 instead is a binding violation the analyzer must report.
    system = protocols.get("stark")
    spec = system.transcript_spec()
    setup = system.setup(
        by_name(spec.workload), spec.scales[-1],
        system.make_config(spec.config_overrides),
    )
    proof, prover_events, verifier_events = record_case(system, setup)
    bindings = system.cap_bindings(setup, proof)
    layer = [b for b in bindings if b.label.startswith("fri.commit_caps")]
    assert [b.before_challenge for b in layer] == [8 + 2 * k for k in range(len(layer))]
    assert layer
    stale = [
        CapBinding(b.label, b.cap, b.before_challenge - 2) if b in layer else b
        for b in bindings
    ]
    args = (spec, list(setup.publics))
    events = (prover_events, verifier_events)
    assert check_streams("stark", "virtual", *args, bindings, *events) == []
    findings = check_streams("stark", "virtual", *args, stale, *events)
    assert "fs.binding-order" in _rules(findings)


# ---------------------------------------------------------------------------
# The declared rounds: one driver for the prover's steps and the replay
# ---------------------------------------------------------------------------


class TestDeclaredRounds:
    CAP = np.arange(8, dtype=np.uint64).reshape(2, 4)

    def test_a_round_out_of_order_raises(self):
        commit = PLONK.start(Challenger(), (self.CAP,), [1])
        with pytest.raises(ValueError, match="'wires' is next, not 'z'"):
            commit("z", self.CAP)

    def test_a_round_after_the_last_raises(self):
        commit = PLONK.start(Challenger(), (self.CAP,), [1])
        for name in ("wires", "z", "quotient"):
            commit(name, self.CAP)
        with pytest.raises(ValueError, match="no round is next, not 'quotient'"):
            commit("quotient", self.CAP)

    def test_each_round_draws_its_declared_challenges(self):
        commit = PLONK.start(Challenger(), (self.CAP,), [1, 2])
        drawn = [commit(name, self.CAP) for name in ("wires", "z", "quotient")]
        # beta and gamma are base elements, alpha and zeta extension ones.
        assert [[np.shape(c) for c in round_] for round_ in drawn] == [[(), ()], [(2,)], [(2,)]]
        plain = Challenger()
        plain.observe_cap(self.CAP)
        plain.observe_elements(np.array([1, 2], dtype=np.uint64))
        plain.observe_cap(self.CAP)
        assert list(drawn[0]) == [plain.get_challenge(), plain.get_challenge()]
