"""Recursive-verification building blocks: in-circuit challenger and
in-circuit sum-check verification."""

import numpy as np
import pytest

from repro.field import gl64, goldilocks as gl
from repro.hashing import Challenger
from repro.plonk import CircuitBuilder, check_copy_constraints
from repro.plonk.recursion import (
    CircuitChallenger,
    build_sumcheck_verifier_circuit,
    sumcheck_proof_inputs,
    verify_sumcheck_in_circuit,
)
from repro.sumcheck import prove as sc_prove


def _witness_ok(circuit, witness):
    return circuit.check_gates(witness, []) and check_copy_constraints(circuit, witness)


class TestCircuitChallenger:
    def test_matches_native_transcript(self):
        obs = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3]  # crosses a rate boundary
        b = CircuitBuilder()
        vars_ = [b.add_variable() for _ in obs]
        cc = CircuitChallenger(b)
        for v in vars_:
            cc.observe(v)
        challenges = [cc.get_challenge() for _ in range(3)]
        c = b.build()
        w = c.generate_witness({v.index: x for v, x in zip(vars_, obs)})
        native = Challenger()
        native.observe_elements(obs)
        for var in challenges:
            assert int(w[var.index]) == native.get_challenge()

    def test_interleaved_observe_squeeze(self):
        b = CircuitBuilder()
        v1, v2 = b.add_variable(), b.add_variable()
        cc = CircuitChallenger(b)
        cc.observe(v1)
        c1 = cc.get_challenge()
        cc.observe(v2)
        c2 = cc.get_challenge()
        circ = b.build()
        w = circ.generate_witness({v1.index: 7, v2.index: 8})
        native = Challenger()
        native.observe_element(7)
        n1 = native.get_challenge()
        native.observe_element(8)
        n2 = native.get_challenge()
        assert int(w[c1.index]) == n1 and int(w[c2.index]) == n2

    def test_transcript_constrained_not_just_witnessed(self):
        # The challenge is computed by constrained Poseidon gates, so a
        # witness claiming a different challenge cannot satisfy the
        # circuit: downstream equality with the real value must hold.
        b = CircuitBuilder()
        v = b.add_variable()
        cc = CircuitChallenger(b)
        cc.observe(v)
        ch = cc.get_challenge()
        expected = b.add_variable()
        b.assert_equal(ch, expected)
        c = b.build()
        native = Challenger()
        native.observe_element(42)
        good = c.generate_witness({v.index: 42, expected.index: native.get_challenge()})
        assert _witness_ok(c, good)
        bad = c.generate_witness({v.index: 42, expected.index: 123})
        assert not _witness_ok(c, bad)


class TestSumcheckInCircuit:
    @pytest.fixture(scope="class")
    def setup(self):
        num_vars = 3
        rng = np.random.default_rng(31)
        table = gl64.random(1 << num_vars, rng)
        proof = sc_prove(table, Challenger())
        circuit, handles = build_sumcheck_verifier_circuit(num_vars)
        return table, proof, circuit, handles

    def test_valid_proof_satisfies(self, setup):
        table, proof, circuit, handles = setup
        w = circuit.generate_witness(sumcheck_proof_inputs(handles, proof, table))
        assert _witness_ok(circuit, w)

    def test_tampered_round_rejected(self, setup):
        table, proof, circuit, handles = setup
        inputs = sumcheck_proof_inputs(handles, proof, table)
        y0v, _ = handles["rounds"][0]
        inputs[y0v.index] = (inputs[y0v.index] + 1) % gl.P
        assert not _witness_ok(circuit, circuit.generate_witness(inputs))

    def test_tampered_claim_rejected(self, setup):
        table, proof, circuit, handles = setup
        inputs = sumcheck_proof_inputs(handles, proof, table)
        inputs[handles["claimed"].index] ^= 1
        assert not _witness_ok(circuit, circuit.generate_witness(inputs))

    def test_tampered_final_rejected(self, setup):
        table, proof, circuit, handles = setup
        inputs = sumcheck_proof_inputs(handles, proof, table)
        inputs[handles["final"].index] ^= 1
        assert not _witness_ok(circuit, circuit.generate_witness(inputs))

    def test_wrong_table_rejected(self, setup):
        table, proof, circuit, handles = setup
        bad_table = table.copy()
        bad_table[2] ^= np.uint64(1)
        inputs = sumcheck_proof_inputs(handles, proof, bad_table)
        assert not _witness_ok(circuit, circuit.generate_witness(inputs))

    def test_table_size_validation(self):
        b = CircuitBuilder()
        claimed = b.add_variable()
        rounds = [(b.add_variable(), b.add_variable())]
        final = b.add_variable()
        with pytest.raises(ValueError):
            verify_sumcheck_in_circuit(
                b, claimed, rounds, final, table=[b.add_variable()] * 3
            )

    def test_challenge_point_matches_native(self, setup):
        table, proof, circuit, handles = setup
        from repro.sumcheck import verify as sc_verify

        native_point = sc_verify(proof, 3, Challenger())
        # Rebuild the circuit capturing the challenge variables.
        b = CircuitBuilder()
        claimed = b.add_variable()
        rounds = [(b.add_variable(), b.add_variable()) for _ in range(3)]
        final = b.add_variable()
        point_vars = verify_sumcheck_in_circuit(b, claimed, rounds, final)
        c = b.build()
        h = {"claimed": claimed, "rounds": rounds, "final": final, "table": []}
        inputs = {claimed.index: proof.claimed_sum, final.index: proof.final_value}
        for (y0v, y1v), (y0, y1) in zip(rounds, proof.round_values):
            inputs[y0v.index] = y0
            inputs[y1v.index] = y1
        w = c.generate_witness(inputs)
        assert [int(w[v.index]) for v in point_vars] == native_point
