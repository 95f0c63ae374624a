"""Merkle tree and proof tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.field import gl64
from repro.merkle import MerkleTree, merkle_permutation_count, verify_proof


class TestConstruction:
    def test_root_deterministic(self, rng):
        leaves = gl64.random((16, 5), rng)
        assert np.array_equal(MerkleTree(leaves).cap[0], MerkleTree(leaves).cap[0])

    def test_any_leaf_change_changes_root(self, rng):
        leaves = gl64.random((16, 5), rng)
        t = MerkleTree(leaves)
        for i in (0, 7, 15):
            mod = leaves.copy()
            mod[i, 0] ^= np.uint64(1)
            assert not np.array_equal(t.cap[0], MerkleTree(mod).cap[0])

    def test_level_sizes(self, rng):
        t = MerkleTree(gl64.random((32, 3), rng))
        assert [lvl.shape[0] for lvl in t.levels] == [32, 16, 8, 4, 2, 1]

    def test_cap(self, rng):
        t = MerkleTree(gl64.random((32, 3), rng), cap_height=3)
        assert t.cap.shape == (8, 4)

    def test_cap_equals_subtree_roots(self, rng):
        leaves = gl64.random((16, 3), rng)
        t = MerkleTree(leaves, cap_height=2)
        for k in range(4):
            sub = MerkleTree(leaves[k * 4 : (k + 1) * 4])
            assert np.array_equal(t.cap[k], sub.cap[0])

    def test_a_root_built_tree_cut_at_any_cap_is_that_capped_tree(self, rng):
        leaves = gl64.random((32, 3), rng)
        full = MerkleTree(leaves)
        for h in range(6):
            cut, built = full.capped(h), MerkleTree(leaves, cap_height=h)
            assert cut.cap_height == h and np.array_equal(cut.arena, built.arena)
            assert all(np.array_equal(cut.prove(i).siblings, built.prove(i).siblings) for i in (0, 13, 31))
        for bad in (-1, 6):
            with pytest.raises(ValueError):
                full.capped(bad)
        with pytest.raises(ValueError):
            MerkleTree(leaves, cap_height=2).capped(1)  # levels below the cap were never built

    def test_single_leaf_wide_cap(self, rng):
        leaves = gl64.random((4, 3), rng)
        t = MerkleTree(leaves, cap_height=2)
        # cap == leaf digests themselves
        assert t.cap.shape == (4, 4)

    def test_non_power_of_two_rejected(self, rng):
        with pytest.raises(ValueError):
            MerkleTree(gl64.random((12, 3), rng))

    def test_bad_cap_height(self, rng):
        with pytest.raises(ValueError):
            MerkleTree(gl64.random((8, 3), rng), cap_height=4)


class TestProofs:
    @pytest.mark.parametrize("cap_height", [0, 1, 2])
    def test_all_indices_verify(self, cap_height, rng):
        leaves = gl64.random((16, 6), rng)
        t = MerkleTree(leaves, cap_height=cap_height)
        for i in range(16):
            proof = t.prove(i)
            assert len(proof) == 4 - cap_height
            assert verify_proof(leaves[i], i, proof, t.cap)

    def test_wrong_leaf_fails(self, rng):
        leaves = gl64.random((8, 6), rng)
        t = MerkleTree(leaves)
        proof = t.prove(3)
        assert not verify_proof(leaves[4], 3, proof, t.cap)

    def test_wrong_index_fails(self, rng):
        leaves = gl64.random((8, 6), rng)
        t = MerkleTree(leaves)
        assert not verify_proof(leaves[3], 5, t.prove(3), t.cap)

    def test_tampered_sibling_fails(self, rng):
        leaves = gl64.random((8, 6), rng)
        t = MerkleTree(leaves)
        proof = t.prove(3)
        proof.siblings[1] = proof.siblings[1].copy()
        proof.siblings[1][0] ^= np.uint64(1)
        assert not verify_proof(leaves[3], 3, proof, t.cap)

    def test_wrong_cap_fails(self, rng):
        leaves = gl64.random((8, 6), rng)
        t = MerkleTree(leaves)
        bad_cap = t.cap.copy()
        bad_cap[0, 0] ^= np.uint64(1)
        assert not verify_proof(leaves[3], 3, t.prove(3), bad_cap)

    def test_index_out_of_range(self, rng):
        t = MerkleTree(gl64.random((8, 2), rng))
        with pytest.raises(IndexError):
            t.prove(8)

    def test_cap_index_overflow_fails_gracefully(self, rng):
        leaves = gl64.random((8, 6), rng)
        t = MerkleTree(leaves, cap_height=1)
        proof = t.prove(0)
        # Truncate the path so the final index exceeds the cap width.
        from repro.merkle import MerkleProof

        short = MerkleProof(siblings=proof.siblings[:0])
        assert not verify_proof(leaves[0], 7, short, t.cap[:1])

    @given(st.integers(min_value=0, max_value=31))
    @settings(max_examples=12, deadline=None)
    def test_roundtrip_property(self, index):
        rng = np.random.default_rng(5)
        leaves = gl64.random((32, 4), rng)
        t = MerkleTree(leaves, cap_height=1)
        assert verify_proof(leaves[index], index, t.prove(index), t.cap)


class TestPermCount:
    def test_wide_leaves(self):
        # 16 leaves of width 135: 17 perms per leaf + 15 internal.
        assert merkle_permutation_count(16, 135) == 16 * 17 + 15

    def test_narrow_leaves_are_noop(self):
        # width <= 4 leaves need no permutation.
        assert merkle_permutation_count(8, 4) == 7

    def test_cap_reduces_internal(self):
        assert merkle_permutation_count(16, 10, cap_height=2) == 16 * 2 + 12
