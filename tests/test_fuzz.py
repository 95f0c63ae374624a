"""Soundness-fuzzing subsystem: mutators, oracles, shrinking, artifacts.

Covers the contract from three directions:

* every mutator class produces mutants that are rejected with a *typed*
  error, for every registered protocol;
* crafted regression vectors pin each verifier/deserializer hardening
  fix (statement binding, layer-leaf shape, leaf-width pin, leaves/proofs
  pairing, hostile lengths) -- including a revert simulation showing the
  fuzzer reproduces a finding from its stored artifact when a fix is
  removed;
* the campaign machinery itself (determinism, shrinking, artifact
  round-trips, CLI exit codes) behaves as documented.
"""

import contextlib

import numpy as np
import pytest

from repro.fri import FriConfig, fri_layout
from repro.fri.verifier import FriError
from repro.fuzz import (
    BAD_OUTCOMES,
    MUTATOR_NAMES,
    MUTATORS,
    Finding,
    classify_bytes,
    classify_object,
    load_finding,
    replay_artifact,
    run_fuzz,
    run_oracles,
    save_finding,
    shrink_bytes,
    target_for,
)
from repro.fuzz import runner as fuzz_runner, targets as fuzz_targets
from repro.plonk import prove as plonk_prove, setup as plonk_setup, verify as plonk_verify
from repro.plonk.protocol import PLONK
from repro.protocols import names
from repro.stark import StarkError

from .reference_verifiers import reference_plane

PROTOCOLS = names()


@pytest.fixture(scope="module", params=PROTOCOLS)
def target(request):
    return target_for(request.param)


def _row_leaf_plonk_target():
    """The Plonk target's cube circuit at ``final_poly_len`` 8: it folds
    zero times, so its batches commit one row a leaf (``(0, ())``)."""
    config = FriConfig(
        rate_bits=3, cap_height=1, num_queries=4, proof_of_work_bits=2, final_poly_len=8
    )
    circuit, x, pub = fuzz_targets._cube_circuit()
    assert fri_layout(config, circuit.log_n, PLONK.widths) == (0, ())
    data = plonk_setup(circuit, config)
    proof = plonk_prove(data, {x.index: 3, pub.index: 27})
    return fuzz_targets._target(
        "plonk", proof, proof, lambda p: plonk_verify(data.verifier_data, [27], p), PLONK.widths
    )


class TestTargets:
    def test_roundtrip_is_byte_stable(self, target):
        # Structural mutators re-encode the whole proof; no-op detection
        # (mutant == blob) relies on decode/encode being byte-stable.
        assert target.encode(target.decode(target.blob)) == target.blob
        assert target.encode(target.decode(target.alt_blob)) == target.alt_blob

    def test_blobs_are_deterministic(self, target):
        assert target.blob == target_for(target.protocol).blob

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="protocol"):
            target_for("groth16")


#: Structural mutators that only apply to some proof shapes: mutators
#: must return None (not crash) on the protocols they do not cover.
_FRI_ONLY = {
    "perturb-opening-value",
    "drop-layer",
    "duplicate-layer",
    "resize-final-poly",
    "corrupt-pow-witness",
    "splice-fri-proof",
    "pad-initial-leaf",
    "reshape-initial-leaf",
    "truncate-coset-leaf",
    "swap-coset-values",
    "arity2-shaped-leaf",
    "mismatch-initial-proofs",
    "scalar-coset-leaf",
    "permute-coset-rows",
    "reinsert-layer-value",
}
#: The HyperPlonk-lite target's queries open every leaf of each of its
#: small trees, so its openings carry no path node to drop.
_PATH_NODES_ONLY = {"drop-sibling-node"}
_SUMCHECK_ONLY = {
    "tamper-sumcheck-round",
    "perturb-final-value",
    "perturb-claimed-sum",
    "perturb-z-opening",
}


def _applicable(protocol: str, name: str) -> bool:
    if name in _FRI_ONLY or name in _PATH_NODES_ONLY:
        return protocol in ("stark", "plonk")
    if name in _SUMCHECK_ONLY:
        return protocol == "hyperplonk"
    return True


class TestMutatorsRejected:
    """Every mutator class must be rejected with a typed error."""

    @pytest.mark.parametrize("name", MUTATOR_NAMES)
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_mutants_rejected_with_typed_error(self, protocol, name):
        tgt = target_for(protocol)
        tried = 0
        for attempt in range(8):  # some mutators decline some draws
            rng = np.random.default_rng([99, attempt])
            mutant = MUTATORS[name](tgt, rng)
            if mutant is None or (mutant.kind == "bytes" and mutant.data == tgt.blob):
                continue
            tried += 1
            if mutant.kind == "bytes":
                outcome, exc = classify_bytes(tgt, mutant.data)
            else:
                outcome, exc = classify_object(tgt, mutant.proof)
            assert outcome in ("rejected-decode", "rejected-verify"), (
                f"{protocol}/{name}: {outcome} "
                f"({type(exc).__name__ if exc else 'accepted'}: {exc})"
            )
            if tried >= 2:
                break
        if not _applicable(protocol, name):
            assert tried == 0  # shape-specific mutator, correctly inapplicable
        else:
            assert tried > 0, f"{protocol}/{name} never produced a mutant"

    def test_mutators_are_deterministic(self, target):
        for name in MUTATOR_NAMES:
            a = MUTATORS[name](target, np.random.default_rng([7, 7]))
            b = MUTATORS[name](target, np.random.default_rng([7, 7]))
            if a is None:
                assert b is None
            elif a.kind == "bytes":
                assert a.data == b.data


class TestRegressionVectors:
    """Crafted vectors pinning each hardening fix in this PR."""

    def test_proof_of_another_instance_refused(self):
        # The alt blob proves the 2^7-row instance; the target's verifier
        # is bound to 2^6 rows, whatever the proof's own shape says.
        tgt = target_for("stark")
        with pytest.raises(StarkError):
            tgt.run_verify(tgt.decode(tgt.alt_blob))

    def test_missing_round_cap_typed(self):
        # Object-level: one cap short, the replay would pair the caps off
        # short and hand the identity check too few challenges.
        tgt = target_for("stark")
        proof = tgt.decode(tgt.blob)
        proof.caps = proof.caps[:-1]
        outcome, exc = classify_object(tgt, proof)
        assert outcome == "rejected-verify"
        assert "wrong number of round caps" in str(exc)

    def test_scalar_coset_leaf_typed(self):
        tgt = target_for("stark")
        proof = tgt.decode(tgt.blob)
        proof.fri_proof.layer_openings[0].rows = np.uint64(5).reshape(())
        outcome, exc = classify_object(tgt, proof)
        assert outcome == "rejected-verify"
        assert "layer opening has wrong shape" in str(exc)

    def test_truncated_coset_leaf_typed(self):
        tgt = target_for("plonk")
        proof = tgt.decode(tgt.blob)
        op = proof.fri_proof.layer_openings[0]
        op.rows = op.rows[:-1]
        outcome, exc = classify_bytes(tgt, tgt.encode(proof))
        assert outcome == "rejected-verify"
        assert "layer opening has wrong shape" in str(exc)

    def test_permuted_coset_rows_typed_on_both_planes(self):
        # An initial leaf of 8 coset rows, reordered, keeps every width
        # the verifier pins; only the batch cap binds the slot order.
        tgt = target_for("stark")
        mutant = MUTATORS["permute-coset-rows"](tgt, np.random.default_rng(0))
        for plane in (contextlib.nullcontext(), reference_plane()):
            with plane:
                outcome, exc = classify_bytes(tgt, mutant.data)
            assert outcome == "rejected-verify"
            assert "initial Merkle proof failed" in str(exc)

    def test_leaves_proofs_mismatch_typed(self):
        # Unserializable state: reachable only through the object API,
        # where a truncating zip would silently skip Merkle checks.
        tgt = target_for("stark")
        proof = tgt.decode(tgt.blob)
        proof.fri_proof.batch_openings = proof.fri_proof.batch_openings[:-1]
        outcome, exc = classify_object(tgt, proof)
        assert outcome == "rejected-verify"
        assert "initial opening count mismatch" in str(exc)

    def test_scalar_final_poly_refused_by_codec_and_verifier(self):
        # The wire carries (k, 2) extension arrays only: the writer
        # refuses a scalar final polynomial, and handed over as an
        # object the verifier refuses it, typed.
        tgt = target_for("stark")
        proof = tgt.decode(tgt.blob)
        proof.fri_proof.final_poly = np.uint64(3).reshape(())
        with pytest.raises(ValueError, match="cannot encode"):
            tgt.encode(proof)
        outcome, exc = classify_object(tgt, proof)
        assert outcome == "rejected-verify"
        assert "final polynomial" in str(exc)

    def test_reshaped_initial_leaf_typed(self):
        # The blob sends no indices, so the codec cannot count the rows
        # a tree owes; the verifier, which derives the index set, refuses
        # the one long row.
        tgt = target_for("plonk")
        proof = tgt.decode(tgt.blob)
        op = proof.fri_proof.batch_openings[0]
        op.rows = op.rows.reshape(1, -1)
        outcome, exc = classify_bytes(tgt, tgt.encode(proof))
        assert outcome == "rejected-verify"
        assert "initial opening has wrong shape" in str(exc)

    def test_padded_leaf_rejected_and_reproduces_without_width_pin(
        self, monkeypatch, tmp_path
    ):
        # hash_or_noop zero-pads short rows, so a zero-padded leaf still
        # authenticates against the commitment; only the verifier's
        # exact leaf-width pin rejects it.  The instance commits one row
        # a leaf; its one-column Z rows are the short ones.
        tgt = _row_leaf_plonk_target()
        monkeypatch.setattr(fuzz_runner, "target_for", lambda protocol: tgt)
        proof = tgt.decode(tgt.blob)
        op = proof.fri_proof.batch_openings[2]
        op.rows = np.concatenate([op.rows, np.zeros((op.rows.shape[0], 1), dtype=np.uint64)], axis=1)
        data = tgt.encode(proof)

        outcome, exc = classify_bytes(tgt, data)
        assert outcome == "rejected-verify"
        assert "initial opening has wrong shape" in str(exc)

        # Simulate reverting the fix: call FRI without the width pin.
        import repro.pcs.protocol as pv

        pinned = pv.fri_verify

        def unpinned(*args, **kwargs):
            kwargs.pop("leaf_widths", None)
            return pinned(*args, **kwargs)

        with monkeypatch.context() as revert:
            revert.setattr(pv, "fri_verify", unpinned)
            outcome, _ = classify_bytes(tgt, data)
            assert outcome == "accepted"  # the soundness hole the pin closes

            # The stored artifact reproduces against the reverted code ...
            finding = Finding(
                protocol="plonk",
                mutator="pad-initial-leaf",
                kind="bytes",
                seed=0,
                iteration=0,
                outcome="accepted",
                exception_type=None,
                exception_msg=None,
                data_hex=data.hex(),
            )
            path = save_finding(finding, tmp_path)
            assert replay_artifact(path).reproduced

        # ... and stops reproducing once the fix is back.
        result = replay_artifact(path)
        assert not result.reproduced
        assert result.outcome == "rejected-verify"

    def test_zero_denominator_opening_typed(self):
        # An opening point equal to a queried domain point would divide
        # by zero in the quotient combination.  A proof carries no
        # points -- the STARK/Plonk verifiers derive zeta -- so drive
        # ``fri_verify`` directly: the transcript absorbs the opened
        # *values*, not the points, so moving a point leaves every
        # challenge and query index where the honest proof put them.
        from unittest import mock

        from repro.field import extension as fext, goldilocks as gl
        from repro.fri import FriOpenings, fri_verify
        from repro.fuzz.targets import _STARK_CONFIG
        from repro.hashing import Challenger
        from repro.stark.protocol import stark
        from repro.workloads import by_name

        tgt = target_for("stark")
        proof = tgt.decode(tgt.blob)
        queried = []
        get_indices = Challenger.get_indices

        def spy(challenger, n, domain_size):
            queried.extend(get_indices(challenger, n, domain_size))
            return queried[-n:]

        with mock.patch.object(Challenger, "get_indices", spy):
            tgt.run_verify(proof)  # the honest proof: record its queries
        degree_bits = 6  # the target's rows
        n_lde = (1 << degree_bits) << _STARK_CONFIG.rate_bits
        omega = gl.primitive_root_of_unity(n_lde.bit_length() - 1)
        x0 = gl.mul(gl.coset_shift(), gl.pow_mod(omega, queried[0]))  # a queried LDE point
        trace_cap, quotient_cap = proof.caps
        air, _, publics = by_name("Fibonacci").build_air(degree_bits)
        challenger = Challenger()
        challenger.observe_elements(np.asarray(publics, dtype=np.uint64))
        challenger.observe_cap(trace_cap)
        challenger.get_ext_challenge()
        challenger.observe_cap(quotient_cap)
        zeta = challenger.get_ext_challenge()
        zeta_next = fext.scalar_mul(zeta, np.uint64(gl.primitive_root_of_unity(degree_bits)))
        doctored = FriOpenings.from_flat(
            [np.array([x0, 0], dtype=np.uint64), zeta_next],
            stark(air).columns,
            proof.opened_values,
        )
        with pytest.raises(FriError, match="evaluation domain"):
            fri_verify(
                proof.caps,
                doctored,
                proof.fri_proof,
                challenger,
                _STARK_CONFIG,
                1 << degree_bits,
                leaf_widths=tgt.leaf_widths,
            )


class TestShrinking:
    def test_shrink_reverts_irrelevant_bytes(self):
        tgt = target_for("stark")
        blob = bytearray(tgt.blob)
        # One load-bearing corruption (inside the trace cap digests,
        # right after the 3-u32 array header) plus noise elsewhere.
        blob[12] ^= 0xFF
        blob[60] ^= 0xFF
        blob[61] ^= 0xFF
        data = bytes(blob)
        outcome, _ = classify_bytes(tgt, data)
        assert outcome.startswith("rejected")
        small = shrink_bytes(tgt, data, outcome)
        assert classify_bytes(tgt, small)[0] == outcome
        diff = sum(1 for a, b in zip(small, tgt.blob) if a != b)
        assert 1 <= diff <= 3
        assert small != tgt.blob

    def test_shrink_leaves_unequal_lengths_alone(self):
        tgt = target_for("stark")
        data = tgt.blob[:-10]
        assert shrink_bytes(tgt, data, "rejected-decode") == data


class TestCampaign:
    def test_small_campaign_is_clean_and_deterministic(self):
        a = run_fuzz(seed=3, iterations=60)
        b = run_fuzz(seed=3, iterations=60)
        assert a.ok and b.ok
        assert a.outcomes == b.outcomes
        assert a.iterations_run == 60
        # The campaign must actually exercise mutants, not skip them all
        # (shape-specific mutators decline on 2 of 3 protocols, so a
        # fraction of draws is legitimately not-applicable).
        tested = sum(
            v for k, v in a.outcomes.items() if k.startswith("rejected")
        )
        assert tested >= 35

    def test_budget_stops_campaign(self):
        report = run_fuzz(seed=4, budget_s=0.5)
        assert report.elapsed_s < 10
        assert report.iterations_run >= 1

    def test_oracles_agree_with_references(self):
        assert run_oracles(seed=0, iterations=2) == []

    def test_findings_are_persisted(self, tmp_path, monkeypatch):
        # Force a finding by making one mutator return an "accepted"
        # no-mutation mutant under a fresh name.
        from repro.fuzz import mutators as m
        from repro.fuzz.mutators import Mutant

        def traitor(tgt, rng):
            return Mutant("bit-flip", data=tgt.blob + b"")  # honest bytes

        # An honest blob verifies, so classification says "accepted";
        # the no-op guard must catch it first and NOT record a finding.
        monkeypatch.setitem(m.MUTATORS, "bit-flip", traitor)
        report = run_fuzz(seed=5, iterations=40, corpus_dir=str(tmp_path))
        assert report.outcomes.get("no-op", 0) > 0
        assert report.findings == []
        monkeypatch.undo()

    def test_splice_rebuilding_the_alt_proof_is_a_no_op(self, monkeypatch):
        # The honest blobs share a prefix (framing, tag, leading fields),
        # so a splice cut inside it rebuilds alt_blob byte for byte: an
        # honest proof that verifies, not an accepted mutant.
        from repro.fuzz import mutators as m, runner
        from repro.fuzz.mutators import Mutant

        def prefix_cut(tgt, rng):
            return Mutant("splice-proofs", data=tgt.blob[:4] + tgt.alt_blob[4:])

        monkeypatch.setitem(m.MUTATORS, "splice-proofs", prefix_cut)
        monkeypatch.setattr(runner, "MUTATOR_NAMES", ("splice-proofs",))
        report = run_fuzz(seed=0, iterations=6)
        assert report.outcomes == {"no-op": 6}
        assert report.findings == []

    def test_artifact_roundtrip(self, tmp_path):
        finding = Finding(
            protocol="plonk",
            mutator="bit-flip",
            kind="bytes",
            seed=9,
            iteration=4,
            outcome="untyped-verify",
            exception_type="IndexError",
            exception_msg="index out of range",
            data_hex="00aaff",
            shrunk_hex="00aa00",
        )
        path = save_finding(finding, tmp_path)
        assert load_finding(path) == finding

    def test_artifact_version_checked(self, tmp_path):
        import json

        bad = tmp_path / "artifact.json"
        bad.write_text(json.dumps({"version": 99}))
        with pytest.raises(ValueError, match="version"):
            load_finding(bad)

    def test_replayed_fixed_artifact_not_reproduced(self, tmp_path):
        # A byte mutant that today is rejected at decode: replay says
        # "not reproduced", which the CLI maps to exit 0 ("fixed").
        tgt = target_for("stark")
        finding = Finding(
            protocol="stark",
            mutator="truncate-bytes",
            kind="bytes",
            seed=0,
            iteration=0,
            outcome="accepted",
            exception_type=None,
            exception_msg=None,
            data_hex=tgt.blob[:40].hex(),
        )
        path = save_finding(finding, tmp_path)
        result = replay_artifact(path)
        assert not result.reproduced
        assert result.outcome == "rejected-decode"


class TestCli:
    def test_fuzz_cli_clean_run(self, capsys):
        from repro.cli import main

        rc = main(["fuzz", "--iterations", "30", "--seed", "11", "--no-oracles"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "no findings" in out

    def test_fuzz_cli_budget_parsing(self, capsys):
        from repro.cli import main

        assert main(["fuzz", "--budget", "nonsense"]) == 2
        assert "invalid budget" in capsys.readouterr().err

    def test_fuzz_cli_replay_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        tgt = target_for("stark")
        finding = Finding(
            protocol="stark",
            mutator="truncate-bytes",
            kind="bytes",
            seed=0,
            iteration=0,
            outcome="accepted",
            exception_type=None,
            exception_msg=None,
            data_hex=tgt.blob[:32].hex(),
        )
        path = save_finding(finding, tmp_path)
        assert main(["fuzz", "--replay", str(path)]) == 0
        assert "not reproduced" in capsys.readouterr().out
