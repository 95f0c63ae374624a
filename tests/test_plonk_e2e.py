"""End-to-end Plonk proving and verification, with fault injection."""

import copy

import numpy as np
import pytest

from repro.field import goldilocks as gl
from repro.plonk import CircuitBuilder, PlonkError, prove, setup, verify
from repro.protocols import get as get_protocol
from repro.workloads import by_name


@pytest.fixture(scope="module")
def paper_example():
    """The paper's Figure 1 statement: (x0 + x1) * (x2 * x3) = 99."""
    b = CircuitBuilder()
    xs = [b.add_variable() for _ in range(4)]
    s = b.add(xs[0], xs[1])
    p = b.mul(xs[2], xs[3])
    out = b.mul(s, p)
    b.assert_constant(out, 99)
    return b.build(), xs


@pytest.fixture(scope="module")
def paper_data(paper_example, ):
    from repro.fri import FriConfig

    cfg = FriConfig(rate_bits=3, cap_height=1, num_queries=6,
                    proof_of_work_bits=3, final_poly_len=4)
    circuit, xs = paper_example
    return setup(circuit, cfg), xs


@pytest.fixture(scope="module")
def valid_proof(paper_data):
    data, xs = paper_data
    inputs = {xs[0].index: 2, xs[1].index: 9, xs[2].index: 3, xs[3].index: 3}
    return prove(data, inputs)


class TestHonestProver:
    def test_paper_example_verifies(self, paper_data, valid_proof):
        data, _ = paper_data
        verify(data.verifier_data, [], valid_proof)

    def test_other_witness_same_statement(self, paper_data):
        data, xs = paper_data
        # (1 + 10) * (9 * 1) = 99
        inputs = {xs[0].index: 1, xs[1].index: 10, xs[2].index: 9, xs[3].index: 1}
        verify(data.verifier_data, [], prove(data, inputs))

    def test_proof_size_reasonable(self, valid_proof):
        assert 1_000 < valid_proof.size_bytes() < 200_000

    def test_proof_is_deterministic(self, paper_data):
        data, xs = paper_data
        inputs = {xs[0].index: 2, xs[1].index: 9, xs[2].index: 3, xs[3].index: 3}
        p1, p2 = prove(data, inputs), prove(data, inputs)
        assert np.array_equal(p1.caps[0], p2.caps[0])
        assert p1.fri_proof.pow_witness == p2.fri_proof.pow_witness


class TestSoundness:
    def test_bad_witness_rejected(self, paper_data):
        data, xs = paper_data
        inputs = {xs[0].index: 2, xs[1].index: 9, xs[2].index: 3, xs[3].index: 4}
        with pytest.raises(PlonkError, match="constraint identity fails at zeta"):
            verify(data.verifier_data, [], prove(data, inputs))

    def test_tampered_wires_cap(self, paper_data, valid_proof):
        data, _ = paper_data
        p = copy.deepcopy(valid_proof)
        p.caps[0][0, 0] ^= np.uint64(1)
        with pytest.raises(PlonkError):
            verify(data.verifier_data, [], p)

    def test_tampered_z_cap(self, paper_data, valid_proof):
        data, _ = paper_data
        p = copy.deepcopy(valid_proof)
        p.caps[1][0, 1] ^= np.uint64(1)
        with pytest.raises(PlonkError):
            verify(data.verifier_data, [], p)

    def test_tampered_quotient_cap(self, paper_data, valid_proof):
        data, _ = paper_data
        p = copy.deepcopy(valid_proof)
        p.caps[2][0, 2] ^= np.uint64(1)
        with pytest.raises(PlonkError):
            verify(data.verifier_data, [], p)

    def test_tampered_opening_value(self, paper_data, valid_proof):
        data, _ = paper_data
        p = copy.deepcopy(valid_proof)
        p.opened_values[9, 0] ^= np.uint64(1)
        with pytest.raises(PlonkError):
            verify(data.verifier_data, [], p)

    def test_wrong_verifier_circuit(self, paper_data, valid_proof):
        # Verifying against a different circuit's data must fail.
        from repro.fri import FriConfig

        b = CircuitBuilder()
        x = b.add_variable()
        b.assert_constant(b.mul(x, x), 49)
        other = setup(
            b.build(),
            FriConfig(rate_bits=3, cap_height=1, num_queries=6,
                      proof_of_work_bits=3, final_poly_len=4),
        )
        with pytest.raises(PlonkError):
            verify(other.verifier_data, [], valid_proof)


class TestPublicInputs:
    @pytest.fixture(scope="class")
    def pi_setup(self):
        from repro.fri import FriConfig

        b = CircuitBuilder()
        x = b.add_variable()
        sq = b.mul(x, x)
        pub = b.public_input()
        b.assert_equal(pub, sq)
        circuit = b.build()
        cfg = FriConfig(rate_bits=3, cap_height=1, num_queries=6,
                        proof_of_work_bits=3, final_poly_len=4)
        return setup(circuit, cfg), x, pub

    def test_correct_public_value(self, pi_setup):
        data, x, pub = pi_setup
        proof = prove(data, {x.index: 11, pub.index: 121})
        verify(data.verifier_data, [121], proof)

    def test_inconsistent_public_value(self, pi_setup):
        data, x, pub = pi_setup
        with pytest.raises(PlonkError):
            verify(data.verifier_data, [120], prove(data, {x.index: 11, pub.index: 120}))

    def test_tampered_public_value_in_proof(self, pi_setup):
        # The honest proof of 121, checked against the statement 144.
        data, x, pub = pi_setup
        proof = prove(data, {x.index: 11, pub.index: 121})
        with pytest.raises(PlonkError):
            verify(data.verifier_data, [144], proof)

    def test_a_proof_of_another_product_is_refused(self):
        # MVM 6 with M[0][0] raised by 1 and y_0 by x_0: an honest witness
        # of another product, which verifies against its own statement
        # but not against the instance's.
        system = get_protocol("plonk")
        psetup = system.setup(by_name("MVM"), 6, system.make_config())
        data, inputs = psetup.data
        keys = list(inputs)  # M row-major, then x, then y
        m00, x0, y0 = keys[0], keys[36], keys[42]
        cheat = {**inputs, m00: inputs[m00] + 1, y0: gl.add(inputs[y0], inputs[x0])}
        proof = prove(data, cheat)
        verify(data.verifier_data, [cheat[y0], *psetup.publics[1:]], proof)
        with pytest.raises(PlonkError):
            system.verify(psetup, proof)


class TestLargerCircuit:
    def test_iterated_squaring(self):
        from repro.fri import FriConfig

        b = CircuitBuilder()
        x = b.add_variable()
        acc = x
        for _ in range(50):
            acc = b.mul(acc, acc)
        pub = b.public_input()
        b.assert_equal(pub, acc)
        circuit = b.build()
        cfg = FriConfig(rate_bits=3, cap_height=1, num_queries=6,
                        proof_of_work_bits=3, final_poly_len=4)
        data = setup(circuit, cfg)
        expected = gl.pow_mod(3, 1 << 50)
        proof = prove(data, {x.index: 3, pub.index: expected})
        verify(data.verifier_data, [expected], proof)
