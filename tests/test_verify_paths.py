"""``merkle.verify_paths``: one batched kernel under every path check.

The kernel is compared with the per-path scalar walk it replaced
(``tests/reference_verifiers.py``) on random trees, and the boolean
entry points built on it (``verify_proof``, ``verify_multi``,
``*.verify_opening``) must answer ``False`` -- never raise, never accept
-- for out-of-range indices and malformed arrays.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.field import gl64
from repro.hashing import sponge
from repro.merkle import (
    MerkleMultiProof,
    MerkleProof,
    MerkleTree,
    PathOpening,
    prove_multi,
    verify_multi,
    verify_paths,
    verify_proof,
)
from repro.metrics import counting
from repro.pcs import FriPCS, MultilinearPCS

from . import reference_verifiers as ref


def _tree(rng, depth=3, width=6, cap_height=0):
    leaves = gl64.random((1 << depth, width), rng)
    return leaves, MerkleTree(leaves, cap_height=cap_height)


class TestIndexRange:
    """A negative index shares its low bits with a real leaf and wraps
    the cap lookup; the scalar walk accepted it."""

    ENTRY_POINTS = [verify_proof, FriPCS.verify_opening, MultilinearPCS.verify_opening]

    @pytest.mark.parametrize("check", ENTRY_POINTS)
    def test_negative_index_rejected(self, check, rng):
        leaves, t = _tree(rng)
        assert check(leaves[7], 7, t.prove(7), t.cap)
        assert not check(leaves[7], -1, t.prove(7), t.cap)
        assert ref.verify_proof(leaves[7], -1, t.prove(7), t.cap)  # the old bug

    @pytest.mark.parametrize("check", ENTRY_POINTS)
    @pytest.mark.parametrize("cap_height", [0, 1, 2])
    def test_index_past_the_tree_rejected(self, check, cap_height, rng):
        leaves, t = _tree(rng, cap_height=cap_height)
        assert not check(leaves[3], 3 + 8, t.prove(3), t.cap)

    def test_multiproof_negative_indices_rejected(self, rng):
        leaves, t = _tree(rng)
        mp = prove_multi(t, [6, 7])
        assert verify_multi({6: leaves[6], 7: leaves[7]}, mp, t.cap, 3)
        forged = MerkleMultiProof(indices=(-2, -1), nodes=mp.nodes)
        assert not verify_multi({-2: leaves[6], -1: leaves[7]}, forged, t.cap, 3)
        assert ref.verify_multi({-2: leaves[6], -1: leaves[7]}, forged, t.cap, 3)

    @pytest.mark.parametrize("indices", [(7, 6), (6, 6), (6, 7, 7)])
    def test_multiproof_unsorted_or_duplicate_indices_rejected(self, indices, rng):
        leaves, t = _tree(rng)
        mp = prove_multi(t, [6, 7])
        opening = PathOpening(
            [leaves[i] for i in indices], indices, mp.nodes, t.cap, levels=3
        )
        with counting() as c:
            assert not verify_paths([opening])[0]
        assert c.sponge_permutations == 0  # rejected before any hashing


class TestMalformedInputsAreFalse:
    def test_verify_proof(self, rng):
        leaves, t = _tree(rng)
        good = t.prove(3)
        assert verify_proof(leaves[3], 3, good, t.cap)
        bad_siblings = [
            good.siblings[:, :3],  # (k, 3): used to leak a bare ValueError
            good.siblings.reshape(-1),
            good.siblings[:-1],
            np.vstack([good.siblings, good.siblings[:1]]),
            np.uint64(7).reshape(()),
            None,
        ]
        for siblings in bad_siblings:
            assert not verify_proof(leaves[3], 3, MerkleProof(siblings), t.cap)
        for leaf in (leaves[3:5], leaves[3].reshape(1, -1), np.uint64(1).reshape(()), None):
            assert not verify_proof(leaf, 3, good, t.cap)
        for cap in (t.cap[:, :3], t.cap[:0], t.cap.reshape(-1)[:3], None):
            assert not verify_proof(leaves[3], 3, good, cap)
        assert not verify_proof(leaves[3], "three", good, t.cap)

    def test_verify_multi(self, rng):
        leaves, t = _tree(rng, depth=4)
        mp = prove_multi(t, [4, 9])
        opened = {4: leaves[4], 9: leaves[9]}
        assert verify_multi(opened, mp, t.cap, 4)
        for nodes in (mp.nodes[:, :3], mp.nodes.reshape(-1), None):
            bad = MerkleMultiProof(indices=mp.indices, nodes=nodes)
            assert not verify_multi(opened, bad, t.cap, 4)
        ragged = {4: leaves[4], 9: leaves[9][:3]}
        assert not verify_multi(ragged, mp, t.cap, 4)
        assert not verify_multi({4: leaves[4], 9: leaves[9:11]}, mp, t.cap, 4)
        assert not verify_multi(opened, mp, t.cap[:, :2], 4)
        assert not verify_multi(opened, MerkleMultiProof(indices=None, nodes=mp.nodes), t.cap, 4)

    def test_one_bad_opening_does_not_touch_its_neighbours(self, rng):
        leaves, t = _tree(rng)
        good = [PathOpening([leaves[i]], (i,), t.prove(i).siblings, t.cap) for i in (1, 5)]
        bad = PathOpening([leaves[2]], (2,), t.prove(2).siblings[:, :3], t.cap)
        assert verify_paths([good[0], bad, good[1]]).tolist() == [True, False, True]

    def test_no_openings(self):
        assert verify_paths([]).shape == (0,)


@st.composite
def _batches(draw):
    """A few trees of different shapes, each opened by single paths and
    by one multiproof, with some openings tampered."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    openings = []
    for _ in range(draw(st.integers(1, 3))):
        depth = draw(st.integers(0, 5))
        cap_height = draw(st.integers(0, depth))
        width = draw(st.integers(1, 20))
        leaves = gl64.random((1 << depth, width), rng)
        tree = MerkleTree(leaves, cap_height=cap_height)
        for _ in range(draw(st.integers(0, 3))):
            i = draw(st.integers(0, (1 << depth) - 1))
            openings.append(
                PathOpening(leaves[i : i + 1].copy(), (i,), tree.prove(i).siblings.copy(), tree.cap)
            )
        picked = draw(st.sets(st.integers(0, (1 << depth) - 1), min_size=1, max_size=6))
        mp = prove_multi(tree, picked)
        openings.append(
            PathOpening(
                leaves[list(mp.indices)].copy(), mp.indices, mp.nodes.copy(), tree.cap,
                levels=depth - cap_height,
            )
        )
    for k in draw(st.sets(st.integers(0, len(openings) - 1), max_size=len(openings))):
        op = openings[k]
        what = draw(st.sampled_from(["leaf", "node", "index"]))
        if what == "leaf":
            j = draw(st.integers(0, op.rows.size - 1))
            op.rows.reshape(-1)[j] ^= np.uint64(1)
        elif what == "node" and op.nodes.size:
            j = draw(st.integers(0, op.nodes.size - 1))
            op.nodes.reshape(-1)[j] ^= np.uint64(1)
        elif what == "index":
            # Stay non-negative: the reference is known to wrap there.
            bump = draw(st.integers(1, 40))
            moved = tuple(i + bump for i in op.indices)
            openings[k] = PathOpening(op.rows, moved, op.nodes, op.cap, op.levels)
    return openings


class TestAgainstTheScalarWalk:
    @given(_batches())
    @settings(max_examples=60, deadline=None)
    def test_same_verdicts_and_same_work(self, openings):
        with counting() as batched:
            got = verify_paths(openings)
        with counting() as walked:
            want = ref.verify_paths(openings)
        assert got.tolist() == want.tolist()
        # Same nodes compressed, only many per call -- unless the kernel
        # refused an opening the walk hashed its way into rejecting.
        assert batched.sponge_permutations <= walked.sponge_permutations
        if want.all():
            assert batched.sponge_permutations == walked.sponge_permutations

    def test_unequal_depths_climb_together(self, rng):
        shapes = [(0, 0, 3), (2, 2, 9), (5, 1, 4), (7, 0, 12), (4, 2, 1)]
        openings = []
        for depth, cap_height, width in shapes:
            leaves, t = _tree(rng, depth, width, cap_height)
            i = int(rng.integers(0, 1 << depth))
            openings.append(PathOpening([leaves[i]], (i,), t.prove(i).siblings, t.cap))
        with counting() as c:
            assert verify_paths(openings).all()
        assert c.sponge_permutations == sum(
            (d - h) + (sponge.permutation_count(w) if w > sponge.DIGEST_LEN else 0)
            for d, h, w in shapes
        )

    def test_noncanonical_words_read_mod_p(self, rng):
        # The scalar permutation reduced its inputs on the way in; the
        # batched plane reads rows and digests modulo p to match.  A cap
        # row is compared exactly.
        leaves, t = _tree(rng, width=6)
        small = leaves.copy()
        small[3, 0] = np.uint64(5)
        t = MerkleTree(small)
        shifted = small[3].copy()
        shifted[0] = np.uint64(5) + gl64.P
        proof = t.prove(3)
        assert verify_proof(shifted, 3, proof, t.cap)
        assert ref.verify_proof(shifted, 3, proof, t.cap)
