"""Merkle multiproof tests: roundtrip, compression, tampering."""

import numpy as np
import pytest

from repro.field import gl64
from repro.merkle import MerkleTree
from repro.merkle.multiproof import prove_multi, verify_multi

from .reference_oracles import individual_paths_bytes


@pytest.fixture(scope="module")
def tree():
    rng = np.random.default_rng(55)
    leaves = gl64.random((64, 10), rng)
    return leaves, MerkleTree(leaves, cap_height=1)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "indices",
        [[0], [63], [0, 1], [3, 5, 6, 40, 41, 63], list(range(16)), list(range(64))],
    )
    def test_verify(self, tree, indices):
        leaves, t = tree
        mp = prove_multi(t, indices)
        assert verify_multi(
            {i: leaves[i] for i in set(indices)}, mp, t.cap, tree_depth=6, cap_height=1
        )

    def test_duplicate_indices_deduped(self, tree):
        leaves, t = tree
        mp = prove_multi(t, [5, 5, 5])
        assert mp.indices == (5,)
        assert verify_multi({5: leaves[5]}, mp, t.cap, 6, 1)

    def test_out_of_range(self, tree):
        _, t = tree
        with pytest.raises(IndexError):
            prove_multi(t, [64])

    def test_all_leaves_needs_no_nodes(self, tree):
        leaves, t = tree
        mp = prove_multi(t, list(range(64)))
        assert mp.nodes.shape[0] == 0


class TestCompression:
    def test_smaller_than_individual_paths(self, tree):
        leaves, t = tree
        indices = [3, 5, 6, 40, 41, 63]
        mp = prove_multi(t, indices)
        assert mp.size_bytes() < individual_paths_bytes(t, indices)

    def test_adjacent_pairs_compress_best(self, tree):
        leaves, t = tree
        paired = prove_multi(t, [8, 9, 10, 11])  # whole subtree
        spread = prove_multi(t, [0, 17, 34, 51])  # no shared paths
        assert paired.size_bytes() < spread.size_bytes()

    def test_fri_query_scale_saving(self, tree):
        # 24 pseudo-random query indices like a FRI round.
        leaves, t = tree
        rng = np.random.default_rng(7)
        indices = sorted(set(int(i) for i in rng.integers(0, 64, size=24)))
        mp = prove_multi(t, indices)
        naive = individual_paths_bytes(t, indices)
        assert mp.size_bytes() < 0.8 * naive


class TestSoundness:
    def test_wrong_leaf(self, tree):
        leaves, t = tree
        mp = prove_multi(t, [4, 9])
        bad = {4: leaves[4], 9: leaves[10]}
        assert not verify_multi(bad, mp, t.cap, 6, 1)

    def test_wrong_index_set(self, tree):
        leaves, t = tree
        mp = prove_multi(t, [4, 9])
        assert not verify_multi({4: leaves[4], 8: leaves[8]}, mp, t.cap, 6, 1)

    def test_tampered_node(self, tree):
        leaves, t = tree
        mp = prove_multi(t, [4, 9])
        mp.nodes = mp.nodes.copy()
        mp.nodes[1, 2] ^= np.uint64(1)
        assert not verify_multi({4: leaves[4], 9: leaves[9]}, mp, t.cap, 6, 1)

    def test_truncated_nodes(self, tree):
        leaves, t = tree
        mp = prove_multi(t, [4, 9])
        mp.nodes = mp.nodes[:-1]
        assert not verify_multi({4: leaves[4], 9: leaves[9]}, mp, t.cap, 6, 1)

    def test_extra_nodes(self, tree):
        leaves, t = tree
        mp = prove_multi(t, [4, 9])
        mp.nodes = np.vstack([mp.nodes, mp.nodes[:1]])
        assert not verify_multi({4: leaves[4], 9: leaves[9]}, mp, t.cap, 6, 1)

    def test_wrong_cap(self, tree):
        leaves, t = tree
        mp = prove_multi(t, [4, 9])
        bad_cap = t.cap.copy()
        bad_cap[0, 0] ^= np.uint64(1)
        assert not verify_multi({4: leaves[4], 9: leaves[9]}, mp, bad_cap, 6, 1)
