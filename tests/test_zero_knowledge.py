"""Zero-knowledge blinding tests (Plonky2 supports ZK; Starky does not,
as the paper notes in Section 2.2)."""

import numpy as np
import pytest

from repro.fri import FriConfig
from repro.plonk import CircuitBuilder, PlonkError, prove, setup, verify

_CFG = FriConfig(rate_bits=3, cap_height=1, num_queries=5,
                 proof_of_work_bits=2, final_poly_len=4)


@pytest.fixture(scope="module")
def data():
    b = CircuitBuilder()
    x = b.add_variable()
    pub = b.public_input()
    b.assert_equal(pub, b.mul(x, x))
    return setup(b.build(), _CFG), {"x": None}, x, pub


class TestBlinding:
    def test_blinded_proof_verifies(self, data):
        d, _, x, pub = data
        proof = prove(d, {x.index: 6, pub.index: 36}, blinding_seed=1)
        verify(d.verifier_data, proof)

    def test_different_seeds_hide_commitments(self, data):
        d, _, x, pub = data
        inputs = {x.index: 6, pub.index: 36}
        p1 = prove(d, inputs, blinding_seed=1)
        p2 = prove(d, inputs, blinding_seed=2)
        # Same witness, different randomness: no shared commitment data.
        assert not np.array_equal(p1.wires_cap, p2.wires_cap)
        # And the transcripts diverge entirely downstream.
        assert p1.fri_proof.pow_witness != p2.fri_proof.pow_witness or not np.array_equal(
            p1.z_cap, p2.z_cap
        )

    def test_same_seed_is_deterministic(self, data):
        d, _, x, pub = data
        inputs = {x.index: 6, pub.index: 36}
        p1 = prove(d, inputs, blinding_seed=7)
        p2 = prove(d, inputs, blinding_seed=7)
        assert np.array_equal(p1.wires_cap, p2.wires_cap)

    def test_unblinded_reveals_witness_equality(self, data):
        """Without blinding, identical witnesses produce identical
        commitments -- the leak blinding exists to prevent."""
        d, _, x, pub = data
        inputs = {x.index: 6, pub.index: 36}
        p1 = prove(d, inputs)
        p2 = prove(d, inputs)
        assert np.array_equal(p1.wires_cap, p2.wires_cap)

    def test_blinded_vs_unblinded_differ(self, data):
        d, _, x, pub = data
        inputs = {x.index: 6, pub.index: 36}
        assert not np.array_equal(
            prove(d, inputs).wires_cap, prove(d, inputs, blinding_seed=1).wires_cap
        )

    def test_blinded_bad_witness_still_rejected(self, data):
        d, _, x, pub = data
        with pytest.raises(PlonkError):
            verify(
                d.verifier_data,
                prove(d, {x.index: 6, pub.index: 35}, blinding_seed=3),
            )

    def test_zero_padded_wires_leaf_still_rejected(self, data):
        """hash_or_noop pads a 3-wide wires row into the same digest as
        that row with a zero appended, so the Merkle check alone cannot
        tell them apart.  The width pin must reject the padded width (4)
        even though the blinded width (5) is legal."""
        d, _, x, pub = data
        proof = prove(d, {x.index: 6, pub.index: 36})
        wires = proof.fri_proof.batch_openings[1]
        wires.rows = np.concatenate(
            [wires.rows, np.zeros((wires.rows.shape[0], 1), dtype=np.uint64)], axis=1
        )
        with pytest.raises(PlonkError, match="initial opening has wrong shape"):
            verify(d.verifier_data, proof)

    def test_tampered_salt_column_rejected(self, data):
        """Salts ride the committed leaves: altering one breaks the
        wires Merkle proof even though salts never enter constraints."""
        d, _, x, pub = data
        proof = prove(d, {x.index: 6, pub.index: 36}, blinding_seed=1)
        proof.fri_proof.batch_openings[1].rows[0, -1] ^= np.uint64(1)
        with pytest.raises(PlonkError, match="Merkle"):
            verify(d.verifier_data, proof)

    def test_blinded_proof_slightly_larger(self, data):
        d, _, x, pub = data
        inputs = {x.index: 6, pub.index: 36}
        plain = prove(d, inputs).size_bytes()
        salted = prove(d, inputs, blinding_seed=1).size_bytes()
        assert plain < salted <= plain * 1.2
