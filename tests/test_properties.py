"""Cross-module property-based tests (hypothesis).

Deeper invariants than the per-module suites: algebraic identities that
must hold for *random* inputs across layer boundaries.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.field import extension as fext, gl64, goldilocks as gl
from repro.fri.prover import fold_values
from repro.hashing import Challenger, permute
from repro.merkle import MerkleTree, prove_multi, verify_multi
from repro.ntt import coset_ntt, intt, lde_coeffs, ntt
from repro.sumcheck import multilinear_eval
from repro.sumcheck import prove as sc_prove, verify as sc_verify

from .reference_oracles import Polynomial

elements = st.integers(min_value=0, max_value=gl.P - 1)
small_lists = st.lists(elements, min_size=1, max_size=16)


class TestNttAlgebra:
    @given(st.integers(min_value=1, max_value=5), st.randoms())
    @settings(max_examples=15, deadline=None)
    def test_parseval_style_shift(self, log_n, pyrandom):
        """Multiplying the domain by omega cyclically rotates values."""
        rng = np.random.default_rng(pyrandom.randrange(2**32))
        n = 1 << log_n
        coeffs = gl64.random(n, rng)
        vals = ntt(coeffs)
        # p(w * x) over the subgroup == values rotated by one position.
        shifted = Polynomial(coeffs).shift_args(gl.primitive_root_of_unity(log_n))
        padded = np.zeros(n, dtype=np.uint64)
        padded[: len(shifted.coeffs)] = shifted.coeffs
        assert np.array_equal(ntt(padded), np.roll(vals, -1))

    @given(st.randoms())
    @settings(max_examples=10, deadline=None)
    def test_coset_ntt_is_shift_composition(self, pyrandom):
        rng = np.random.default_rng(pyrandom.randrange(2**32))
        coeffs = gl64.random(16, rng)
        g = gl.coset_shift()
        lhs = coset_ntt(coeffs)
        padded_shift = Polynomial(coeffs).shift_args(g)
        padded = np.zeros(16, dtype=np.uint64)
        padded[: len(padded_shift.coeffs)] = padded_shift.coeffs
        assert np.array_equal(lhs, ntt(padded))

    @given(st.randoms())
    @settings(max_examples=10, deadline=None)
    def test_lde_is_degree_preserving(self, pyrandom):
        rng = np.random.default_rng(pyrandom.randrange(2**32))
        coeffs = gl64.random(8, rng)
        from repro.ntt import coset_intt

        ext_vals = lde_coeffs(coeffs, 2)
        back = coset_intt(ext_vals)
        assert np.array_equal(back[:8], coeffs)
        assert not back[8:].any()


class TestFriFoldAlgebra:
    @given(st.randoms())
    @settings(max_examples=8, deadline=None)
    def test_fold_is_linear_in_beta(self, pyrandom):
        """fold(v, b1) + fold(v, b2) - fold(v, 0) == fold(v, b1 + b2)."""
        rng = np.random.default_rng(pyrandom.randrange(2**32))
        values = fext.from_base(lde_coeffs(gl64.random(8, rng), 1))
        b1 = fext.make(int(gl64.random((), rng)), int(gl64.random((), rng)))
        b2 = fext.make(int(gl64.random((), rng)), int(gl64.random((), rng)))
        shift = gl.coset_shift()
        f1 = fold_values(values, b1, shift, 4)
        f2 = fold_values(values, b2, shift, 4)
        f0 = fold_values(values, fext.zero(), shift, 4)
        fsum = fold_values(values, fext.add(b1, b2), shift, 4)
        lhs = fext.sub(fext.add(f1, f2), f0)
        assert np.array_equal(lhs, fsum)

    @given(st.randoms())
    @settings(max_examples=8, deadline=None)
    def test_double_fold_equals_degree_quarter(self, pyrandom):
        rng = np.random.default_rng(pyrandom.randrange(2**32))
        coeffs = gl64.random(16, rng)
        values = fext.from_base(lde_coeffs(coeffs, 2))
        beta = fext.make(5, 6)
        shift = gl.coset_shift()
        once = fold_values(values, beta, shift, 6)
        twice = fold_values(once, beta, gl.mul(shift, shift), 5)
        from repro.ntt import coset_intt_ext

        final_coeffs = coset_intt_ext(twice, gl.pow_mod(shift, 4))
        assert not final_coeffs[4:].any()  # degree 16 -> 4 after 2 folds


class TestPoseidonProperties:
    @given(st.integers(min_value=1, max_value=9), st.randoms())
    @settings(max_examples=8, deadline=None)
    def test_batch_shape_invariance(self, batch, pyrandom):
        rng = np.random.default_rng(pyrandom.randrange(2**32))
        states = gl64.random((batch, 12), rng)
        whole = permute(states)
        for i in range(batch):
            assert np.array_equal(whole[i], permute(states[i]))

    @given(small_lists)
    @settings(max_examples=15, deadline=None)
    def test_challenger_prefix_binding(self, obs):
        """Challenges after a shared prefix agree; diverge after a fork."""
        a, b = Challenger(), Challenger()
        a.observe_elements(obs)
        b.observe_elements(obs)
        assert a.get_challenge() == b.get_challenge()
        a.observe_element(1)
        b.observe_element(2)
        assert a.get_challenge() != b.get_challenge()


class TestSumcheckCompleteness:
    @given(st.integers(min_value=1, max_value=5), st.randoms())
    @settings(max_examples=10, deadline=None)
    def test_random_tables_always_verify(self, num_vars, pyrandom):
        rng = np.random.default_rng(pyrandom.randrange(2**32))
        table = gl64.random(1 << num_vars, rng)
        proof = sc_prove(table, Challenger())
        point = sc_verify(proof, num_vars, Challenger())
        assert multilinear_eval(table, point) == proof.final_value


class TestMerkleProperties:
    @given(st.sets(st.integers(min_value=0, max_value=31), min_size=1, max_size=10),
           st.randoms())
    @settings(max_examples=10, deadline=None)
    def test_multiproof_any_index_set(self, indices, pyrandom):
        rng = np.random.default_rng(pyrandom.randrange(2**32))
        leaves = gl64.random((32, 6), rng)
        tree = MerkleTree(leaves)
        mp = prove_multi(tree, sorted(indices))
        assert verify_multi(
            {i: leaves[i] for i in indices}, mp, tree.cap, tree_depth=5
        )

    @given(st.randoms())
    @settings(max_examples=8, deadline=None)
    def test_leaf_order_matters(self, pyrandom):
        rng = np.random.default_rng(pyrandom.randrange(2**32))
        leaves = gl64.random((8, 4), rng)
        swapped = leaves.copy()
        swapped[[0, 1]] = swapped[[1, 0]]
        if np.array_equal(leaves[0], leaves[1]):
            return  # astronomically unlikely
        assert not np.array_equal(MerkleTree(leaves).cap[0], MerkleTree(swapped).cap[0])


class TestSerializationProperties:
    @given(st.randoms())
    @settings(max_examples=10, deadline=None)
    def test_elems_roundtrip_random_shapes(self, pyrandom):
        from repro.serialize import ByteReader, ByteWriter

        rng = np.random.default_rng(pyrandom.randrange(2**32))
        shape = tuple(int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 3))))
        arr = gl64.random(shape, rng)
        w = ByteWriter()
        w.elems(arr)
        out = ByteReader(w.getvalue()).elems()
        assert out.shape == arr.shape and np.array_equal(out, arr)
