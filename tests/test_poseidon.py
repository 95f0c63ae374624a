"""Poseidon permutation tests: naive, optimised, scalar fast path."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.context import scoped
from repro.field import gl64, goldilocks as gl, matrix as fm
from repro.fuzz import oracles
from repro.hashing import constants as pc
from repro.hashing import optimized, poseidon, sparse

state_strategy = st.lists(
    st.integers(min_value=0, max_value=gl.P - 1), min_size=12, max_size=12
)
#: Lanes at the extremes of a packed slot's products.
EDGE_LANES = [0, 1, gl.P - 1, 1 << 63]
edge_state_strategy = st.lists(
    st.one_of(st.integers(min_value=0, max_value=gl.P - 1), st.sampled_from(EDGE_LANES)),
    min_size=12,
    max_size=12,
)


class TestConstants:
    def test_shapes(self):
        full_rc, partial_rc = pc.round_constants()
        assert full_rc.shape == (8, 12)
        assert partial_rc.shape == (22, 12)

    def test_deterministic(self):
        a, b = pc.round_constants(), pc.round_constants()
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_constants_canonical(self):
        full_rc, partial_rc = pc.round_constants()
        assert bool((full_rc < np.uint64(gl.P)).all())
        assert bool((partial_rc < np.uint64(gl.P)).all())

    def test_constants_distinct(self):
        full_rc, partial_rc = pc.round_constants()
        allc = np.concatenate([full_rc.reshape(-1), partial_rc.reshape(-1)])
        assert len(set(int(x) for x in allc)) == allc.size

    def test_mds_is_cauchy(self):
        assert np.array_equal(pc.mds_matrix(), fm.cauchy_mds(12))

    def test_sbox_exponent_coprime(self):
        import math

        assert math.gcd(pc.SBOX_EXPONENT, gl.P - 1) == 1


def _permute_scalar_reference(state):
    """The sparse HADES form (``sparse.optimized_params``) in Python ints,
    every dot a generator expression: the scalar permutation as it stood
    before it ran the lane-0 chain."""
    p = gl.P
    params = sparse.optimized_params()
    full_rc, _ = pc.round_constants()
    mds_t = list(zip(*pc.mds_matrix().tolist()))
    pre_t = list(zip(*params.pre_matrix.tolist()))

    def full_rounds(s, lo, hi):
        for rc in full_rc.tolist()[lo:hi]:
            s = [pow((v + c) % p, 7, p) for v, c in zip(s, rc)]
            s = [sum(s[i] * col[i] for i in range(12)) % p for col in mds_t]
        return s

    state = full_rounds(list(state), 0, pc.FULL_ROUNDS // 2)
    state = [(v + int(c)) % p for v, c in zip(state, params.pre_constants)]
    state = [sum(state[i] * col[i] for i in range(12)) % p for col in pre_t]
    for r in params.rounds:
        lane0 = (pow(state[0], 7, p) + r.post_constant) % p
        out0 = (lane0 * r.m00 + sum(state[i + 1] * int(r.col_hat[i]) for i in range(11))) % p
        state = [out0] + [(lane0 * int(r.row[j]) + state[j + 1]) % p for j in range(11)]
    return full_rounds(state, pc.FULL_ROUNDS // 2, pc.FULL_ROUNDS)


class TestPermutation:
    def test_naive_equals_optimized_batch(self, rng):
        s = gl64.random((7, 12), rng)
        assert np.array_equal(poseidon.permute_naive(s), optimized.permute(s))

    @given(state_strategy)
    @settings(max_examples=10, deadline=None)
    def test_naive_equals_optimized_property(self, state):
        s = np.array(state, dtype=np.uint64)
        assert np.array_equal(poseidon.permute_naive(s), optimized.permute(s))

    def test_scalar_path_matches_batch_path(self, rng):
        # One state takes the Python-int path; stacking it forces NumPy.
        s = gl64.random(12, rng)
        scalar_out = optimized.permute(s)
        batch_out = optimized.permute(np.tile(s, (optimized._SCALAR_ROWS + 1, 1)))[0]
        assert np.array_equal(scalar_out, batch_out)

    def test_permute_scalar_direct(self, rng):
        s = [int(x) for x in gl64.random(12, rng)]
        out = optimized.permute_scalar(s)
        ref = poseidon.permute_naive(np.array(s, dtype=np.uint64))
        assert out == [int(x) for x in ref]

    @given(st.lists(edge_state_strategy, min_size=1, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_chain_scalar_path_matches_naive_and_sparse_forms(self, states):
        # The packed lane-0 chain against both other forms, with lanes at
        # the values that stress a slot: 0, 1, p - 1 and 2**63.
        for state in states + [[v] * 12 for v in EDGE_LANES]:
            naive = poseidon.permute_naive(np.array(state, dtype=np.uint64))
            want = [int(v) for v in naive]
            assert optimized.permute_scalar(state) == want
            assert _permute_scalar_reference(state) == want

    def test_wrong_width_rejected(self, rng):
        with pytest.raises(ValueError):
            optimized.permute(gl64.random(11, rng))
        with pytest.raises(ValueError):
            poseidon.permute_naive(gl64.random((2, 13), rng))

    def test_diffusion(self):
        # Flipping one input lane changes every output lane.
        s0 = gl64.zeros(12)
        s1 = s0.copy()
        s1[5] = np.uint64(1)
        o0, o1 = optimized.permute(s0), optimized.permute(s1)
        assert bool((o0 != o1).all())

    def test_not_identity(self, rng):
        s = gl64.random(12, rng)
        assert not np.array_equal(optimized.permute(s), s)

    def test_deterministic(self, rng):
        s = gl64.random(12, rng)
        assert np.array_equal(optimized.permute(s), optimized.permute(s))


class TestHadesDerivation:
    def test_sparse_round_count(self):
        params = sparse.optimized_params()
        assert len(params.rounds) == pc.PARTIAL_ROUNDS

    def test_pre_matrix_is_lane0_preserving(self):
        pre = sparse.optimized_params().pre_matrix
        assert int(pre[0, 0]) == 1
        assert not pre[0, 1:].any()
        assert not pre[1:, 0].any()

    def test_sparse_structure_nonzero(self):
        for rnd in sparse.optimized_params().rounds:
            assert rnd.m00 != 0
            assert all(int(v) != 0 for v in rnd.row)
            assert all(int(v) != 0 for v in rnd.col_hat)

    def test_sparse_rounds_differ(self):
        rounds = sparse.optimized_params().rounds
        assert rounds[0].m00 != rounds[1].m00 or not np.array_equal(
            rounds[0].row, rounds[1].row
        )

    def test_factorisation_identity(self):
        # M' @ M'' must reconstruct the peeled matrix chain: verify the
        # first peel directly against the MDS matrix.
        mds = pc.mds_matrix()
        params = sparse.optimized_params()
        # Walk the recursion forward: M_k -> check last round's factors.
        m_k = mds.copy()
        for _ in range(pc.PARTIAL_ROUNDS, 1, -1):
            hat = m_k[1:, 1:].copy()
            m_prime = np.zeros((12, 12), dtype=np.uint64)
            m_prime[0, 0] = 1
            m_prime[1:, 1:] = hat
            m_k = fm.matmul(mds, m_prime)
        # m_k is now M_1; its lane-0-preserving factor is the pre-matrix.
        assert np.array_equal(params.pre_matrix[1:, 1:], m_k[1:, 1:])

    def test_full_round_matches_reference_formula(self, rng):
        full_rc, _ = pc.round_constants()
        s = gl64.random((3, 12), rng)
        out = poseidon.full_round(s, full_rc[0])
        expect = gl64.pow7(gl64.add(s, full_rc[0]))
        expect = poseidon.apply_mds(expect)
        assert np.array_equal(out, expect)

    def test_apply_mds_row_vector_convention(self, rng):
        s = gl64.random(12, rng)
        out = poseidon.apply_mds(s[None, :])[0]
        mds = pc.mds_matrix()
        expect = [
            sum(int(s[i]) * int(mds[i, j]) for i in range(12)) % gl.P
            for j in range(12)
        ]
        assert [int(x) for x in out] == expect


def _weights(matrix, addend):
    """Limb-GEMM table of ``state -> state @ matrix + addend``."""
    out = np.empty((optimized._GEMM_DEPTH, 2 * pc.WIDTH), dtype=np.float64)
    return optimized._limb_weights(matrix, addend, out)


def _limb_weights_reference(matrix, addend):
    """``optimized._limb_weights``' table entry by entry in Python ints:
    the balanced representative of ``m * 2**(16 a) mod p``, split at bit
    32 with a balanced low half."""

    def limbs(value):
        v = value % gl.P
        v = v - gl.P if v >= 1 << 63 else v
        lo = ((v + (1 << 31)) & 0xFFFF_FFFF) - (1 << 31)
        return lo, (v - lo) >> 32

    n = len(matrix[0])
    little = sys.byteorder == "little"
    out = np.zeros((4 * len(matrix) + (addend is not None), 2 * n))
    for i, row in enumerate(matrix):
        for a in range(4):
            r = 4 * i + (a if little else 3 - a)
            for j, m in enumerate(row):
                out[r, j], out[r, n + j] = limbs(m << (16 * a))
    for j, c in enumerate(addend or ()):
        out[-1, j], out[-1, n + j] = limbs(c - optimized._FOLD_BIAS)
    return out


def _matmul(buf, weights):
    """``optimized._matmul_into`` on a fresh workspace's scratch, result
    canonicalised (the kernel itself returns lazy representatives)."""
    ws = gl64.Workspace()
    scratch = ws.plan("permute", optimized._PERMUTE_ROWS, optimized._Scratch)
    optimized._matmul_into(buf, weights, scratch.block(buf.shape[0])[1])
    assert buf.dtype == np.uint64
    buf %= np.uint64(gl.P)


def _affine_reference(states, matrix, addend):
    """``(states @ matrix + addend) mod p`` with Python ints."""
    return [
        [
            (sum(row[i] * matrix[i][j] for i in range(pc.WIDTH)) + addend[j]) % gl.P
            for j in range(pc.WIDTH)
        ]
        for row in states
    ]


#: Lane values at the kernel's limb boundaries (the fuzz oracle's list).
LIMB_EDGES = list(oracles._LIMB_EDGES)
lane_strategy = st.one_of(
    st.integers(min_value=0, max_value=gl.P - 1), st.sampled_from(LIMB_EDGES)
)
vector_strategy = st.lists(lane_strategy, min_size=12, max_size=12)
#: Any 64-bit word: what a lane may hold between two layers.
word_strategy = st.one_of(lane_strategy, st.integers(min_value=0, max_value=2**64 - 1))


#: Both sides of every regime boundary of ``permute_into``: the scalar
#: crossover, the partial block's Python-``pow`` S-box crossover, the
#: GEMM row block and the permutation row block.
REGIME_EDGES = sorted(
    {
        edge + step
        for edge in (
            optimized._SCALAR_ROWS,
            optimized._SBOX_SCALAR_ROWS,
            optimized._GEMM_ROWS,
            optimized._PERMUTE_ROWS,
        )
        for step in (0, 1)
    }
)


def _column_bounds(table):
    """Per output column of a limb-GEMM table, the largest magnitude its
    float64 sum can reach: every operand limb at ``2**16 - 1``, except
    where the table is ``_GEMM_DEPTH`` deep and its last row meets the
    constant-one column."""
    assert np.array_equal(table, np.rint(table))
    assert float(np.abs(table).max()) <= 2.0**31
    mags = [[int(abs(v)) for v in col] for col in table.T]
    if table.shape[0] == optimized._GEMM_DEPTH:
        return [sum(col[:-1]) * 0xFFFF + col[-1] for col in mags]
    return [sum(col) * 0xFFFF for col in mags]


def _assert_folds(s0: int, s1: int):
    """Worst ``|S0|`` and ``|S1|`` of one ``int64`` sum keep
    ``_fold_into``'s term ``S0 + floor(S1 / 2**32) * (2**32 - 1)``
    inside the bias, and the biased term inside ``add_lazy_into``'s
    ``< 2**63`` operand."""
    assert s0 + ((s1 >> 32) + 1) * gl.EPSILON < optimized._FOLD_BIAS
    assert 2 * optimized._FOLD_BIAS < 1 << 63


class TestLimbGemm:
    """The linear maps as exact float64 GEMMs (``optimized._matmul_into``,
    ``optimized._partial_block_into``)."""

    def test_accumulators_stay_exact_for_the_real_tables(self):
        # Below 2**53 every partial sum of a GEMM is an exactly
        # representable integer, so it is exact in any summation order;
        # the int64 sums of several GEMMs must then fold inside the
        # bias.  Both derived from every shipped table, so a constant,
        # limb-width or chunking change that breaks a bound fails here
        # rather than in a digest.
        rc0, full, base, feedback, closing = optimized._fused_tables()
        rounds, width = pc.PARTIAL_ROUNDS, pc.WIDTH
        assert full.shape == (pc.FULL_ROUNDS, 4 * width + 1, 2 * width)
        assert base.shape == (4 * width + 1, 2 * (rounds + width))
        assert len(feedback) == rounds and not feedback[0]
        for table in full:
            bounds = _column_bounds(table)
            assert max(bounds) < 1 << 53
            _assert_folds(max(bounds[:width]), max(bounds[width:]))

        base_bounds = _column_bounds(base)
        assert max(base_bounds) < 1 << 53
        outs = rounds + width
        # Round r: its base columns plus every feedback GEMM's.
        for r, chunks in enumerate(feedback):
            assert [(lo, hi) for lo, hi, _ in chunks] == optimized._chunks(r)
            s0, s1 = base_bounds[r], base_bounds[outs + r]
            for lo, hi, table in chunks:
                assert table.shape == (hi - lo, 2) and hi - lo <= 4 * optimized._CHUNK_LANES
                part = _column_bounds(table)
                assert max(part) < 1 << 53
                s0, s1 = s0 + part[0], s1 + part[1]
            _assert_folds(s0, s1)
        # The block's output lanes: base columns plus the closing GEMMs'.
        assert [(lo, hi) for lo, hi, _ in closing] == optimized._chunks(rounds)
        s0 = base_bounds[rounds:outs]
        s1 = base_bounds[outs + rounds :]
        for lo, hi, table in closing:
            assert table.shape == (hi - lo, 2 * width)
            part = _column_bounds(table)
            assert max(part) < 1 << 53
            s0 = [a + b for a, b in zip(s0, part[:width])]
            s1 = [a + b for a, b in zip(s1, part[width:])]
        _assert_folds(max(s0), max(s1))
        # 63 products below 2**47 are the most a float64 sum carries.
        assert (4 * optimized._CHUNK_LANES + 1) * 0xFFFF * (1 << 31) < 1 << 53

    def test_chain_matrices_unroll_the_naive_partial_rounds(self):
        # The naive partial rounds with each S-box output a free
        # variable y_r, in Python ints: x <- x with lane 0 := y_r, times
        # the MDS matrix, plus the next round's constants.  The chain's
        # B / C / A / W / k must reproduce every S-box input and the
        # block's output on unit vectors (the map is affine, so that is
        # all of it).
        b, c, a, w, ku, kx = optimized._chain_matrices()
        full_rc, partial_rc = pc.round_constants()
        mds = pc.mds_matrix().tolist()
        addends = partial_rc[1:].tolist() + [full_rc[pc.FULL_ROUNDS // 2].tolist()]
        rounds, width = range(pc.PARTIAL_ROUNDS), range(pc.WIDTH)

        def unroll(x, ys):
            inputs = []
            for y, addend in zip(ys, addends):
                inputs.append(x[0])
                x = [y] + x[1:]
                x = [(sum(x[i] * mds[i][j] for i in width) + addend[j]) % gl.P for j in width]
            return inputs, x

        zero_x, zero_y = [0] * pc.WIDTH, [0] * pc.PARTIAL_ROUNDS
        inputs, out = unroll(zero_x, zero_y)
        assert (inputs, out) == (ku, kx)
        for i in width:
            inputs, out = unroll([int(i == k) for k in width], zero_y)
            assert inputs == [(b[i][r] + ku[r]) % gl.P for r in rounds]
            assert out == [(a[i][j] + kx[j]) % gl.P for j in width]
        for j in rounds:
            inputs, out = unroll(zero_x, [int(j == k) for k in rounds])
            assert inputs == [(c[j][r] + ku[r]) % gl.P for r in rounds]
            assert out == [(w[j][k] + kx[k]) % gl.P for k in width]
            assert not any(c[j][: j + 1])  # an input sees earlier outputs only

    def test_limb_split_is_balanced_and_congruent(self):
        values = LIMB_EDGES + [1 << 63, (1 << 63) - 1, gl.P - (1 << 31), gl.P - 5]
        los, his = optimized._signed_limbs(np.array(values, dtype=np.uint64))
        assert los.dtype == his.dtype == np.int64
        for value, lo, hi in zip(values, los.tolist(), his.tolist()):
            assert (lo + (hi << 32) - value) % gl.P == 0
            assert -(1 << 31) <= lo < 1 << 31
            assert abs(hi) <= 1 << 31

    @pytest.mark.parametrize("entry", [(1 << 63) - 1, 1 << 63, gl.P - 1, "random"])
    def test_limb_weights_match_the_per_entry_formula(self, entry, rng):
        # The vectorised table against the formula entry by entry, on a
        # state map with an addend and on the partial block's feedback
        # layout: a 22 x 22 map filled through a transposed view.
        rounds = pc.PARTIAL_ROUNDS
        for rows, cols, addend in ((12, 12, [entry] * 12), (rounds, rounds, None)):
            if entry == "random":
                matrix = gl64.random((rows, cols), rng).tolist()
                addend = addend and gl64.random(12, rng).tolist()
            else:
                matrix = [[entry] * cols for _ in range(rows)]
            want = _limb_weights_reference(matrix, addend)
            if addend is None:
                fed = np.full((2, rounds, 4 * rounds), np.nan)
                optimized._limb_weights(matrix, None, fed.reshape(2 * rounds, -1).T)
                got = fed.reshape(2 * rounds, -1).T
            else:
                got = _weights(matrix, addend)
            assert np.array_equal(got, want)

    @given(
        st.lists(vector_strategy, min_size=1, max_size=5),
        st.sampled_from(["mds", "pre", "random"]),
        vector_strategy,
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_matmul_into_is_the_affine_map(self, states, which, addend, seed):
        if which == "mds":
            matrix = pc.mds_matrix().tolist()
        elif which == "pre":
            matrix = sparse.optimized_params().pre_matrix.tolist()
        else:
            matrix = gl64.random((12, 12), np.random.default_rng(seed)).tolist()
        buf = np.array(states, dtype=np.uint64)
        _matmul(buf, _weights(matrix, addend))
        assert buf.tolist() == _affine_reference(states, matrix, addend)

    def test_matmul_into_extreme_matrices_across_gemm_blocks(self, rng):
        # All-(p-1) and all-2**63 matrices put every weight limb at its
        # largest magnitude; 600 rows span three 256-row GEMM blocks.
        states = gl64.random((600, 12), rng)
        states[: len(LIMB_EDGES)] = np.array(LIMB_EDGES, dtype=np.uint64)[:, None]
        for entry in (gl.P - 1, 1 << 63, (1 << 63) - 1):
            matrix = [[entry] * 12 for _ in range(12)]
            addend = [gl.P - 1] * 12
            buf = states.copy()
            _matmul(buf, _weights(matrix, addend))
            assert buf.tolist() == _affine_reference(states.tolist(), matrix, addend)

    @pytest.mark.parametrize("batch", [9, 255, 256, 257, 513])
    def test_vector_path_equals_naive(self, batch, rng):
        s = gl64.random((batch, 12), rng)
        s[: len(LIMB_EDGES)] = np.array(LIMB_EDGES, dtype=np.uint64)[:batch, None]
        assert np.array_equal(optimized.permute(s), poseidon.permute_naive(s))

    @pytest.mark.parametrize(
        "batch", sorted({1, 2, 4, 5, 8, 9, 16, 255, 256, 257, 2048, 2049, 4097} | set(REGIME_EDGES))
    )
    def test_permute_into_equals_naive_across_every_regime(self, batch, rng):
        # Both sides of every crossover and block; output canonical
        # after the lazy layers.
        s = oracles._edge_rows((batch, 12), rng)
        with scoped("workspace", gl64.Workspace()):
            got = optimized.permute_into(s.copy())
        assert np.array_equal(got, poseidon.permute_naive(s))
        assert bool((got < np.uint64(gl.P)).all())

    @pytest.mark.parametrize("batch", REGIME_EDGES)
    def test_permute_into_equals_scalar_on_any_words(self, batch, rng):
        # A lane may arrive as any 64-bit word: constant rows of
        # 2**64 - 1, p - 1, zero and every limb edge, then random words.
        words = [2**64 - 1, gl.P - 1, 0] + LIMB_EDGES
        s = rng.integers(0, 2**64, size=(batch, 12), dtype=np.uint64, endpoint=False)
        rows = min(batch, len(words))
        s[:rows] = np.array(words[:rows], dtype=np.uint64)[:, None]
        want = [optimized.permute_scalar(row) for row in s.tolist()]
        with scoped("workspace", gl64.Workspace()):
            assert optimized.permute_into(s).tolist() == want

    def test_batch_sizes_share_one_arena_without_leaking(self, rng):
        # Every batch size carves the same scratch memory; a small pass
        # between two large ones must not change the large one's result.
        big, small = gl64.random((300, 12), rng), gl64.random((optimized._SBOX_SCALAR_ROWS, 12), rng)
        want_big, want_small = poseidon.permute_naive(big), poseidon.permute_naive(small)
        with scoped("workspace", gl64.Workspace()) as ws:
            assert np.array_equal(optimized.permute_into(big.copy()), want_big)
            held = ws.nbytes()
            assert np.array_equal(optimized.permute_into(small.copy()), want_small)
            assert np.array_equal(optimized.permute_into(big.copy()), want_big)
        assert ws.nbytes() == held  # one arena, sized once

    @given(st.lists(st.lists(word_strategy, min_size=12, max_size=12), min_size=1, max_size=5),
           vector_strategy)
    @settings(max_examples=40, deadline=None)
    def test_matmul_into_accepts_any_representative(self, states, addend):
        # Between layers a lane is any uint64 congruent to its value.
        matrix = pc.mds_matrix().tolist()
        buf = np.array(states, dtype=np.uint64)
        _matmul(buf, _weights(matrix, addend))
        assert buf.tolist() == _affine_reference(states, matrix, addend)

    def test_permute_into_allocates_nothing_when_warm(self, rng):
        s = gl64.random((300, 12), rng)
        with scoped("workspace", gl64.Workspace()) as ws:
            optimized.permute_into(s)
            held = ws.nbytes()
            optimized.permute_into(s)
        assert ws.nbytes() == held
