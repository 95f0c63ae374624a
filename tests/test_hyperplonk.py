"""HyperPlonk-lite prover/verifier: end-to-end soundness on the paper
workloads, transcript binding, tamper rejection with typed errors, and
codec round trips.

The construction under test: gate + permutation + first-row checks
blended into one zerocheck table, random eq-weighting via tau, a
committed sumcheck whose folded levels are Merkle-committed, and
query-time fold-consistency checks against the base polynomial
commitments (no LDE/NTT anywhere on the prover hot path).
"""

import numpy as np
import pytest

from repro.field import goldilocks as gl
from repro.hyperplonk import (
    HyperPlonkConfig,
    HyperPlonkError,
    prove,
    setup,
    verify,
)
from repro.merkle import MerkleMultiProof, TreeOpening
from repro.metrics import counting
from repro.plonk import CircuitBuilder
from repro.protocols import get
from repro.workloads import by_name

from .reference_oracles import individual_paths_bytes

HYPERPLONK = get("hyperplonk")

CONFIG = HyperPlonkConfig(cap_height=1, num_queries=4)


def _cube_instance(x_val=3):
    b = CircuitBuilder()
    x = b.add_variable()
    pub = b.public_input()
    b.assert_equal(pub, b.mul(b.mul(x, x), x))
    data = setup(b.build(), CONFIG)
    return data, {x.index: x_val, pub.index: pow(x_val, 3)}


@pytest.fixture(scope="module")
def cube():
    data, inputs = _cube_instance()
    return data, inputs, prove(data, inputs)


class TestEndToEnd:
    @pytest.mark.parametrize("workload,scale", [("Fibonacci", 5), ("MVM", 4)])
    def test_workload_proves_and_verifies(self, workload, scale):
        spec = by_name(workload)
        circuit, inputs, _publics = spec.build_circuit(scale)
        data = setup(circuit, CONFIG)
        with counting() as c:
            proof = prove(data, inputs)
        # Sumcheck-native: the prove hot path performs zero NTT work.
        stats = c.as_dict()
        assert stats.get("ntt_butterflies", 0) == 0
        assert stats.get("ntt_transforms", 0) == 0
        verify(data.verifier_data, proof)

    def test_proof_is_deterministic(self, cube):
        data, inputs, proof = cube
        again = prove(data, inputs)
        assert HYPERPLONK.to_bytes(again) == HYPERPLONK.to_bytes(proof)

    def test_different_witnesses_verify(self):
        for x_val in (2, 5, 11):
            data, inputs = _cube_instance(x_val)
            proof = prove(data, inputs)
            verify(data.verifier_data, proof)
            assert proof.public_inputs == [pow(x_val, 3)]

    def test_claimed_sum_is_zero(self, cube):
        _, _, proof = cube
        assert gl.canonical(proof.sumcheck.claimed_sum) == 0


class TestTamperRejection:
    def _reject(self, data, proof, match=None):
        with pytest.raises(HyperPlonkError, match=match):
            verify(data.verifier_data, proof)

    def _decode(self, proof):
        # Fresh mutable copy via the codec.
        return HYPERPLONK.from_bytes(HYPERPLONK.to_bytes(proof))

    def test_wrong_public_input(self, cube):
        data, _, proof = cube
        bad = self._decode(proof)
        bad.public_inputs[0] = gl.add(bad.public_inputs[0], 1)
        self._reject(data, bad)

    def test_tampered_sumcheck_round(self, cube):
        data, _, proof = cube
        bad = self._decode(proof)
        y0, y1 = bad.sumcheck.round_values[0]
        bad.sumcheck.round_values[0] = (gl.add(y0, 1), y1)
        self._reject(data, bad, match="sumcheck")

    def test_tampered_final_value(self, cube):
        data, _, proof = cube
        bad = self._decode(proof)
        bad.sumcheck.final_value = gl.add(bad.sumcheck.final_value, 1)
        self._reject(data, bad)

    def test_nonzero_claimed_sum(self, cube):
        data, _, proof = cube
        bad = self._decode(proof)
        bad.sumcheck.claimed_sum = 1
        self._reject(data, bad, match="zero")

    def test_tampered_wires_opening(self, cube):
        data, _, proof = cube
        bad = self._decode(proof)
        rows = bad.wires_opening.rows
        rows[0, 0] = np.uint64(gl.add(int(rows[0, 0]), 1))
        self._reject(data, bad, match="Merkle")

    def test_tampered_z_value(self, cube):
        data, _, proof = cube
        bad = self._decode(proof)
        rows = bad.z_opening.rows
        rows[0, 0] = np.uint64(gl.add(int(rows[0, 0]), 1))
        self._reject(data, bad)

    def test_swapped_level_cap(self, cube):
        data, _, proof = cube
        bad = self._decode(proof)
        if len(bad.level_caps) < 2:
            pytest.skip("instance too small for two levels")
        bad.level_caps[0], bad.level_caps[1] = (
            bad.level_caps[1], bad.level_caps[0],
        )
        self._reject(data, bad)

    def test_dropped_opened_row(self, cube):
        # Removing one (index, row) pair from a batched opening must
        # fail the verifier's re-derived index-set comparison.
        data, _, proof = cube
        bad = self._decode(proof)
        op = bad.wires_opening
        bad.wires_opening = TreeOpening(
            rows=op.rows[1:],
            proof=MerkleMultiProof(
                indices=op.proof.indices[1:], nodes=op.proof.nodes
            ),
        )
        self._reject(data, bad, match="indices")

    def test_dropped_level_opening(self, cube):
        data, _, proof = cube
        bad = self._decode(proof)
        del bad.level_openings[0]
        self._reject(data, bad, match="fold-level")

    def test_cross_witness_proof_rejected(self, cube):
        data, _, _ = cube
        other_data, other_inputs = _cube_instance(5)
        other_proof = prove(other_data, other_inputs)
        # Same circuit, different witness/publics: the proof itself is
        # honest, but replaying it against the original transcript with
        # tampered publics must fail.
        bad = self._decode(other_proof)
        bad.public_inputs[0] = 27
        self._reject(data, bad)

    def test_malformed_publics_typed(self, cube):
        data, _, proof = cube
        for hostile in (-1, 2**64, "27", None, True):
            bad = self._decode(proof)
            bad.public_inputs[0] = hostile
            self._reject(data, bad)


class TestTracingLabels:
    def test_commit_spans_carry_tree_labels(self):
        # Every MultilinearPCS.commit opens a ``pcs:commit`` span whose
        # ``label`` arg names the committed tree, so a trace of one
        # prove distinguishes wires / Z / fold-level commit costs.
        from repro import tracing

        data, inputs = _cube_instance()
        with tracing.trace() as session:
            prove(data, inputs)
        labels = [
            s.args.get("label")
            for s in session.walk()
            if s.name == "pcs:commit"
        ]
        assert "wires" in labels
        assert "z" in labels
        assert "fold" in labels

    def test_setup_commit_labeled_preprocessed(self):
        from repro import tracing

        b = CircuitBuilder()
        x = b.add_variable()
        pub = b.public_input()
        b.assert_equal(pub, b.mul(b.mul(x, x), x))
        circuit = b.build()
        with tracing.trace() as session:
            setup(circuit, CONFIG)
        labels = [
            s.args.get("label")
            for s in session.walk()
            if s.name == "pcs:commit"
        ]
        assert labels == ["preprocessed"]


class TestEdgeCases:
    def _two_row_instance(self):
        # CircuitBuilder floors at n=4, so the v=1 (n=2) edge needs a
        # hand-built circuit: all-zero selectors, one variable on every
        # wire, identity copy permutation.  An all-zero witness
        # satisfies every blended constraint, and with n // 2 == 1 the
        # committed sumcheck produces *no* fold levels at all.
        from repro.plonk.circuit import Circuit

        circuit = Circuit(
            num_vars=1,
            selectors=np.zeros((5, 2), dtype=np.uint64),
            wire_vars=np.zeros((3, 2), dtype=np.int64),
            sigma=np.arange(6, dtype=np.int64),
            public_input_rows=[],
            generators=[],
        )
        data = setup(circuit, HyperPlonkConfig(cap_height=1, num_queries=2))
        return data, {0: 0}

    def test_single_variable_circuit_round_trips(self):
        data, inputs = self._two_row_instance()
        proof = prove(data, inputs)
        assert proof.level_caps == []
        assert proof.level_openings == []
        assert len(proof.sumcheck.round_values) == 1
        verify(data.verifier_data, proof)
        body = HYPERPLONK.to_bytes(proof)
        assert HYPERPLONK.to_bytes(
            HYPERPLONK.from_bytes(body)
        ) == body

    def test_cap_height_clamps_on_tiny_levels(self):
        # cap_height=3 exceeds the depth of every fold-level tree on a
        # small instance; commit clamps per tree instead of failing, and
        # the verifier applies the same clamp when checking caps.
        b = CircuitBuilder()
        x = b.add_variable()
        pub = b.public_input()
        b.assert_equal(pub, b.mul(b.mul(x, x), x))
        data = setup(b.build(), HyperPlonkConfig(cap_height=3, num_queries=2))
        proof = prove(data, {x.index: 3, pub.index: 27})
        n = data.circuit.n
        for k, cap in enumerate(proof.level_caps):
            num_leaves = (n // 2) >> k
            depth = num_leaves.bit_length() - 1
            assert np.atleast_2d(cap).shape[0] == 1 << min(3, depth)
        verify(data.verifier_data, proof)

    def test_duplicate_query_indices_dedup_in_openings(self):
        # num_queries=8 over n//2=2 possible indices forces collisions:
        # the batched openings must carry each index once and still
        # verify and round-trip byte-stably.
        data, inputs = _cube_instance()
        cfg = HyperPlonkConfig(cap_height=1, num_queries=8)
        dup_data = setup(data.circuit, cfg)
        proof = prove(dup_data, inputs)
        n = dup_data.circuit.n
        assert len(proof.wires_opening.proof.indices) <= n
        assert list(proof.wires_opening.proof.indices) == sorted(
            set(proof.wires_opening.proof.indices)
        )
        verify(dup_data.verifier_data, proof)
        body = HYPERPLONK.to_bytes(proof)
        assert HYPERPLONK.to_bytes(
            HYPERPLONK.from_bytes(body)
        ) == body


class TestCodec:
    def test_roundtrip_byte_stable(self, cube):
        _, _, proof = cube
        body = HYPERPLONK.to_bytes(proof)
        again = HYPERPLONK.from_bytes(body)
        assert HYPERPLONK.to_bytes(again) == body
        assert HYPERPLONK.digest(again) == HYPERPLONK.digest(proof)

    def test_size_bytes_tracks_encoding(self, cube):
        _, _, proof = cube
        # size_bytes counts payload words; the wire form adds bounded
        # framing (magic-free body, count prefixes), so they agree to
        # within a small factor.
        body = HYPERPLONK.to_bytes(proof)
        assert proof.size_bytes() <= len(body) <= 2 * proof.size_bytes()

    def test_truncated_body_rejected(self, cube):
        _, _, proof = cube
        body = HYPERPLONK.to_bytes(proof)
        for cut in (0, 5, len(body) // 2, len(body) - 1):
            with pytest.raises(ValueError):
                HYPERPLONK.from_bytes(body[:cut])

    def test_trailing_bytes_rejected(self, cube):
        _, _, proof = cube
        body = HYPERPLONK.to_bytes(proof)
        with pytest.raises(ValueError):
            HYPERPLONK.from_bytes(body + b"\x00")

    def test_batched_openings_shrink_proof(self):
        # Proof-size gate for format v2: each tree's multiproof must stay
        # strictly smaller than the per-query authentication paths it
        # replaced (shared sibling nodes are the whole win; equality would
        # mean the dedup stopped deduplicating).  The preprocessed tree is
        # in the setup artifact, so it prices the per-index encoding exactly.
        circuit, inputs, _ = by_name("Fibonacci").build_circuit(8)
        data = setup(circuit, HyperPlonkConfig(cap_height=1, num_queries=16))
        proof = prove(data, inputs)
        indices = proof.pre_opening.proof.indices
        assert len(indices) > 1  # 16 queries must open more than one leaf
        batched = proof.pre_opening.proof.size_bytes()
        individual = individual_paths_bytes(data.preprocessed, indices)
        assert batched < individual, (batched, individual)
