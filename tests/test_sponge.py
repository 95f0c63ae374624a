"""Poseidon sponge tests: hashing, compression, batch consistency."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import protocols
from repro.context import RUN, Counters, scoped
from repro.field import gl64
from repro.hashing import optimized, poseidon, sponge
from repro.workloads import by_name

from .reference_oracles import two_to_one


def hash_no_pad(row):
    """One row through the shipped batched sponge."""
    return sponge.hash_batch(np.atleast_2d(np.asarray(row, dtype=np.uint64)))[0]


def hash_leaves(rows):
    out = np.empty((len(rows), sponge.DIGEST_LEN), dtype=np.uint64)
    return sponge.hash_leaves_into(np.asarray(rows, dtype=np.uint64), out)


def compress(left, right):
    """Parents of the (left[i], right[i]) pairs through the fused level."""
    pairs = np.stack([left, right], axis=1).reshape(-1, sponge.DIGEST_LEN)
    out = np.empty((len(left), sponge.DIGEST_LEN), dtype=np.uint64)
    return sponge.compress_level_into(pairs, out)


class TestHashNoPad:
    def test_batch_matches_single(self, rng):
        rows = gl64.random((6, 29), rng)
        batch = sponge.hash_batch(rows)
        for i in range(6):
            assert np.array_equal(batch[i], hash_no_pad(rows[i]))

    def test_digest_length(self, rng):
        assert hash_no_pad(gl64.random(10, rng)).shape == (4,)

    def test_different_inputs_differ(self, rng):
        a = gl64.random(20, rng)
        b = a.copy()
        b[0] ^= np.uint64(1)
        assert not np.array_equal(hash_no_pad(a), hash_no_pad(b))

    def test_no_pad_zero_extension_collides(self):
        # Overwrite-mode absorption has NO padding: a trailing zero inside
        # one rate chunk is indistinguishable (same as Plonky2's
        # hash_n_to_m_no_pad).  Callers must fix input lengths, which
        # Merkle leaves do.  This documents the sharp edge.
        a = np.array([1, 2, 3], dtype=np.uint64)
        b = np.array([1, 2, 3, 0], dtype=np.uint64)
        assert np.array_equal(hash_no_pad(a), hash_no_pad(b))

    def test_cross_chunk_extension_differs(self):
        # Extending into a NEW chunk does change the digest.
        a = np.array([1, 2, 3, 4, 5, 6, 7, 8], dtype=np.uint64)
        b = np.concatenate([a, np.zeros(1, dtype=np.uint64)])
        assert not np.array_equal(hash_no_pad(a), hash_no_pad(b))

    def test_empty_input(self):
        out = hash_no_pad(np.zeros(0, dtype=np.uint64))
        assert out.shape == (4,)

    def test_exact_rate_boundary(self, rng):
        # 8 and 16 elements: whole chunks; 9: one partial chunk.
        for n in (8, 9, 16):
            assert hash_no_pad(gl64.random(n, rng)).shape == (4,)

    def test_overwrite_absorption_semantics(self, rng):
        # state[0:len] is overwritten per chunk: a 9-element input differs
        # from hashing the first 8 alone.
        x = gl64.random(9, rng)
        assert not np.array_equal(hash_no_pad(x), hash_no_pad(x[:8]))

    def test_permutation_count(self):
        assert sponge.permutation_count(0) == 1
        assert sponge.permutation_count(8) == 1
        assert sponge.permutation_count(9) == 2
        assert sponge.permutation_count(135) == 17

    def test_2d_required(self, rng):
        with pytest.raises(ValueError):
            sponge.hash_batch(gl64.random(8, rng))


class TestTwoToOne:
    """The fused Merkle level against the one-pair reference."""

    def test_shape(self, rng):
        l, r = gl64.random((1, 4), rng), gl64.random((1, 4), rng)
        assert compress(l, r).shape == (1, 4)

    def test_order_matters(self, rng):
        l, r = gl64.random((1, 4), rng), gl64.random((1, 4), rng)
        assert not np.array_equal(compress(l, r), compress(r, l))

    def test_batched(self, rng):
        l = gl64.random((5, 4), rng)
        r = gl64.random((5, 4), rng)
        out = compress(l, r)
        for i in range(5):
            assert np.array_equal(out[i], two_to_one(l[i], r[i]))

    def test_wrong_width(self, rng):
        with pytest.raises(ValueError):
            two_to_one(gl64.random(5, rng), gl64.random(5, rng))


class TestHashOrNoop:
    def test_short_rows_pass_through(self):
        row = np.array([[1, 2, 3]], dtype=np.uint64)
        assert hash_leaves(row).tolist() == [[1, 2, 3, 0]]

    def test_exactly_digest_len(self):
        row = np.array([[1, 2, 3, 4]], dtype=np.uint64)
        assert hash_leaves(row).tolist() == [[1, 2, 3, 4]]

    def test_long_rows_hashed(self, rng):
        rows = gl64.random((2, 9), rng)
        assert np.array_equal(hash_leaves(rows), sponge.hash_batch(rows))


class TestGroupedLeaves:
    """One ``hash_leaves_into`` sweep over groups of different widths."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_grouped_sweep_is_each_group_alone(self, data):
        shapes = data.draw(
            st.lists(st.tuples(st.integers(0, 5), st.integers(0, 40)), max_size=6), "groups"
        )
        shapes += [
            (0, data.draw(st.integers(0, 40), "empty group width")),
            (data.draw(st.integers(1, 5), "short rows"), data.draw(st.integers(0, 4), "short width")),
        ]
        order = data.draw(st.permutations(range(len(shapes))), "order")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
        groups = [gl64.random(shapes[k], rng) for k in order]

        # Each group alone through the naive overwrite-mode sponge.
        want, perms = [], 0
        for group in groups:
            count, width = group.shape
            if width <= sponge.DIGEST_LEN:
                want.append(np.pad(group, ((0, 0), (0, sponge.DIGEST_LEN - width))))
                continue
            state = np.zeros((count, poseidon.WIDTH), dtype=np.uint64)
            for start in range(0, width, sponge.RATE):
                chunk = group[:, start : start + sponge.RATE]
                state[:, : chunk.shape[1]] = chunk
                state = poseidon.permute_naive(state)
                perms += count
            want.append(state[:, : sponge.DIGEST_LEN])
        out = np.empty((sum(g.shape[0] for g in groups), sponge.DIGEST_LEN), dtype=np.uint64)
        with scoped("counters", Counters()):
            got = sponge.hash_leaves_into(groups, out)
            assert RUN.counters.sponge_permutations == perms
        assert got is out
        assert np.array_equal(got, np.concatenate(want))

    def test_plonk_mvm_verify_permutes_in_few_vectorised_calls(self, monkeypatch):
        # Absorb step k of every leaf width runs in one call: the
        # registry-default Plonk MVM 11 verify (2^9 rows, 4-row coset
        # leaves of 4 widths) makes at most 13 vectorised calls.
        system = protocols.get("plonk")
        setup = system.setup(by_name("MVM"), 11, system.make_config())
        proof = system.prove(setup)
        calls = []
        permute_into = optimized.permute_into

        def counted(states):
            if states.reshape(-1, optimized.WIDTH).shape[0] > optimized._SCALAR_ROWS:
                calls.append(states.shape)
            return permute_into(states)

        monkeypatch.setattr(optimized, "permute_into", counted)
        system.verify(setup, proof)
        assert 0 < len(calls) <= 13, calls
