"""Operation-counter infrastructure tests."""

import numpy as np

from repro.field import gl64
from repro.hashing import Challenger, hash_batch, sponge
from repro.merkle import MerkleTree, PathOpening, prove_multi, verify_multi, verify_paths
from repro.context import RUN
from repro.metrics import Counters, counting
from repro.ntt import ntt


class TestCounters:
    def test_snapshot_delta(self):
        c = Counters(sponge_permutations=5, ntt_butterflies=10)
        snap = c.snapshot()
        c.sponge_permutations += 3
        d = c.delta(snap)
        assert d.sponge_permutations == 3 and d.ntt_butterflies == 0

    def test_counting_scopes_are_deltas(self, rng):
        data = gl64.random((4, 10), rng)
        hash_batch(data)  # outside: must not leak into the scope
        with counting() as c:
            hash_batch(data)
            assert c.sponge_permutations == 8  # 4 rows x 2 chunks

    def test_view_freezes_when_the_block_exits(self, rng):
        data = gl64.random((4, 10), rng)
        with counting() as c:
            hash_batch(data)
            assert c.sponge_permutations == 8  # live inside the block
            hash_batch(data)
            assert c.sponge_permutations == 16
        hash_batch(data)  # after: must not leak into the measured region
        assert c.sponge_permutations == 16
        assert c.as_dict()["sponge_permutations"] == 16

    def test_nested_scopes(self, rng):
        with counting() as outer:
            ntt(gl64.random(16, rng))
            with counting() as inner:
                ntt(gl64.random(16, rng))
                assert inner.ntt_transforms == 1
            assert outer.ntt_transforms == 2

    def test_two_to_one_counts_batch(self, rng):
        with counting() as c:
            sponge.compress_level_into(
                gl64.random((14, 4), rng), np.empty((7, 4), dtype=np.uint64)
            )
            assert c.sponge_permutations == 7

    def test_challenger_isolated_from_sponge(self):
        with counting() as c:
            ch = Challenger()
            ch.observe_element(1)
            ch.get_challenge()
            assert c.challenger_permutations >= 1
            assert c.sponge_permutations == 0

    def test_merkle_counts_scale_with_width(self, rng):
        with counting() as c:
            MerkleTree(gl64.random((8, 4), rng))
            narrow = c.sponge_permutations
        with counting() as c:
            MerkleTree(gl64.random((8, 100), rng))
            wide = c.sponge_permutations
        assert wide > narrow

    def test_path_checks_count_one_permutation_per_node(self, rng):
        # Width 10 -> 2 leaf permutations, then one per level climbed;
        # checking three paths in one call counts exactly three walks.
        leaves = gl64.random((16, 10), rng)
        tree = MerkleTree(leaves, cap_height=1)
        with counting() as c:
            assert verify_multi({5: leaves[5]}, prove_multi(tree, [5]), tree.cap, 4, 1)
            assert c.sponge_permutations == 2 + 3
        paths = [
            PathOpening([leaves[i]], (i,), prove_multi(tree, [i]).nodes, tree.cap, 3)
            for i in (0, 5, 9)
        ]
        with counting() as c:
            assert verify_paths(paths).all()
            assert c.sponge_permutations == 3 * (2 + 3)

    def test_global_monotone(self, rng):
        before = RUN.counters.sponge_permutations
        hash_batch(gl64.random((2, 5), rng))
        assert RUN.counters.sponge_permutations > before
