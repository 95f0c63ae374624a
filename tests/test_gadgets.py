"""In-circuit gadget tests: Poseidon, Merkle paths, selection, bits."""

import numpy as np
import pytest

from repro.field import gl64, goldilocks as gl
from repro.hashing import permute
from repro.merkle import MerkleTree
from repro.plonk import CircuitBuilder, check_copy_constraints
from repro.plonk.gadgets import (
    assert_boolean,
    merkle_verify,
    poseidon_permutation,
    poseidon_two_to_one,
    select,
    split_bits,
)

from .reference_oracles import two_to_one


class TestSelect:
    def test_both_branches(self):
        b = CircuitBuilder()
        bit, x, y = (b.add_variable() for _ in range(3))
        assert_boolean(b, bit)
        out = select(b, bit, x, y)
        c = b.build()
        w1 = c.generate_witness({bit.index: 1, x.index: 11, y.index: 22})
        assert int(w1[out.index]) == 11 and c.check_gates(w1, [])
        w0 = c.generate_witness({bit.index: 0, x.index: 11, y.index: 22})
        assert int(w0[out.index]) == 22 and c.check_gates(w0, [])

    def test_non_boolean_rejected(self):
        b = CircuitBuilder()
        bit, x, y = (b.add_variable() for _ in range(3))
        assert_boolean(b, bit)
        select(b, bit, x, y)
        c = b.build()
        w = c.generate_witness({bit.index: 2, x.index: 1, y.index: 2})
        assert not c.check_gates(w, [])


class TestSplitBits:
    @pytest.mark.parametrize("value", [0, 1, 0b1011, 255])
    def test_decomposition(self, value):
        b = CircuitBuilder()
        x = b.add_variable()
        bits = split_bits(b, x, 8)
        c = b.build()
        w = c.generate_witness({x.index: value})
        assert [int(w[v.index]) for v in bits] == [(value >> i) & 1 for i in range(8)]
        assert c.check_gates(w, [])

    def test_recomposition_constraint(self):
        # A witness claiming wrong bits must fail the gate check.
        b = CircuitBuilder()
        x = b.add_variable()
        split_bits(b, x, 4)
        c = b.build()
        w = c.generate_witness({x.index: 5})
        # Corrupt the witness value feeding recomposition: flip x itself
        # after generation so bits no longer match.
        w = w.copy()
        w[x.index] = np.uint64(6)
        assert not c.check_gates(w, [])


class TestPoseidonGadget:
    def test_matches_reference_full(self, rng):
        b = CircuitBuilder()
        state_vars = [b.add_variable() for _ in range(12)]
        out_vars = poseidon_permutation(b, state_vars)
        c = b.build()
        sv = gl64.random(12, rng)
        w = c.generate_witness({v.index: int(x) for v, x in zip(state_vars, sv)})
        got = [int(w[v.index]) for v in out_vars]
        assert got == [int(x) for x in permute(sv)]
        assert c.check_gates(w, [])
        assert check_copy_constraints(c, w)

    def test_wrong_width_rejected(self):
        b = CircuitBuilder()
        with pytest.raises(ValueError):
            poseidon_permutation(b, [b.add_variable() for _ in range(11)])

    def test_odd_full_rounds_rejected(self):
        b = CircuitBuilder()
        with pytest.raises(ValueError):
            poseidon_permutation(b, [b.add_variable() for _ in range(12)], full_rounds=3)

    def test_two_to_one_matches(self, rng):
        b = CircuitBuilder()
        lv = [b.add_variable() for _ in range(4)]
        rv = [b.add_variable() for _ in range(4)]
        dv = poseidon_two_to_one(b, lv, rv)
        c = b.build()
        l, r = gl64.random(4, rng), gl64.random(4, rng)
        vals = {v.index: int(x) for v, x in zip(lv + rv, np.concatenate([l, r]))}
        w = c.generate_witness(vals)
        assert [int(w[v.index]) for v in dv] == [int(x) for x in two_to_one(l, r)]

    def test_two_to_one_bad_digest_width(self):
        b = CircuitBuilder()
        with pytest.raises(ValueError):
            poseidon_two_to_one(b, [b.add_variable()] * 3, [b.add_variable()] * 4)

    def test_gate_count_scale(self):
        # One permutation with vanilla gates costs thousands of rows --
        # the density gap custom gates close (module docstring).
        b = CircuitBuilder()
        poseidon_permutation(b, [b.add_variable() for _ in range(12)])
        c = b.build()
        assert 2_000 <= c.n <= 16_384


class TestMerkleGadget:
    @pytest.fixture(scope="class")
    def tree(self):
        rng = np.random.default_rng(9)
        leaves = gl64.random((8, 4), rng)
        return leaves, MerkleTree(leaves)

    def _build(self, depth=3):
        b = CircuitBuilder()
        leaf = [b.add_variable() for _ in range(4)]
        bits = [b.add_variable() for _ in range(depth)]
        sibs = [[b.add_variable() for _ in range(4)] for _ in range(depth)]
        root = [b.add_variable() for _ in range(4)]
        merkle_verify(b, leaf, bits, sibs, root)
        return b.build(), leaf, bits, sibs, root

    def _inputs(self, leaves, tree, idx, leaf, bits, sibs, root, root_override=None):
        proof = tree.prove(idx)
        inputs = {}
        for v, x in zip(leaf, leaves[idx]):
            inputs[v.index] = int(x)
        for i, v in enumerate(bits):
            inputs[v.index] = (idx >> i) & 1
        for lvl in range(len(sibs)):
            for v, x in zip(sibs[lvl], proof.nodes[lvl]):
                inputs[v.index] = int(x)
        root_val = root_override if root_override is not None else tree.cap[0]
        for v, x in zip(root, root_val):
            inputs[v.index] = int(x)
        return inputs

    def test_valid_path_satisfies(self, tree):
        leaves, t = tree
        c, leaf, bits, sibs, root = self._build()
        for idx in (0, 3, 7):
            w = c.generate_witness(self._inputs(leaves, t, idx, leaf, bits, sibs, root))
            assert c.check_gates(w, [])
            assert check_copy_constraints(c, w)

    def test_wrong_root_fails(self, tree):
        leaves, t = tree
        c, leaf, bits, sibs, root = self._build()
        bad_root = t.cap[0].copy()
        bad_root[0] ^= np.uint64(1)
        w = c.generate_witness(
            self._inputs(leaves, t, 2, leaf, bits, sibs, root, root_override=bad_root)
        )
        assert not (c.check_gates(w, []) and check_copy_constraints(c, w))

    def test_wrong_index_fails(self, tree):
        leaves, t = tree
        c, leaf, bits, sibs, root = self._build()
        inputs = self._inputs(leaves, t, 2, leaf, bits, sibs, root)
        # Flip one index bit: the path no longer leads to the root.
        inputs[bits[0].index] ^= 1
        w = c.generate_witness(inputs)
        assert not (c.check_gates(w, []) and check_copy_constraints(c, w))

    def test_depth_mismatch_rejected(self):
        b = CircuitBuilder()
        leaf = [b.add_variable() for _ in range(4)]
        with pytest.raises(ValueError):
            merkle_verify(
                b, leaf, [b.add_variable()], [], [b.add_variable() for _ in range(4)]
            )


class TestReducedRoundProving:
    def test_reduced_round_poseidon_proves(self):
        """End-to-end proof over a reduced-round permutation gadget."""
        from repro.fri import FriConfig
        from repro.plonk import prove, setup, verify

        b = CircuitBuilder()
        state_vars = [b.add_variable() for _ in range(12)]
        out_vars = poseidon_permutation(b, state_vars, full_rounds=2, partial_rounds=2)
        pub = b.public_input()
        b.assert_equal(pub, out_vars[0])
        c = b.build()
        state = list(range(12))
        # Compute the expected reduced-round output via witness generation.
        w_probe = c.generate_witness(
            {**{v.index: s for v, s in zip(state_vars, state)}, pub.index: 0}
        )
        expected = int(w_probe[out_vars[0].index])
        inputs = {**{v.index: s for v, s in zip(state_vars, state)}, pub.index: expected}
        cfg = FriConfig(rate_bits=3, cap_height=1, num_queries=4,
                        proof_of_work_bits=2, final_poly_len=4)
        data = setup(c, cfg)
        proof = prove(data, inputs)
        verify(data.verifier_data, proof)
