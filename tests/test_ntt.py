"""NTT transforms: natural-order and coset variants versus the direct DFT."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ntt as N
from repro.field import gl64, goldilocks as gl

from .reference_oracles import Polynomial


def dft_reference(a):
    """O(n^2) DFT over the field."""
    n = len(a)
    w = gl.primitive_root_of_unity(n.bit_length() - 1)
    return np.array(
        [
            sum(int(a[j]) * gl.pow_mod(w, j * k) for j in range(n)) % gl.P
            for k in range(n)
        ],
        dtype=np.uint64,
    )


class TestForwardInverse:
    @pytest.mark.parametrize("n", [2, 4, 16, 64])
    def test_matches_dft(self, n, rng):
        a = gl64.random(n, rng)
        assert np.array_equal(N.ntt(a), dft_reference(a))

    @pytest.mark.parametrize("n", [2, 8, 128, 1024])
    def test_roundtrip(self, n, rng):
        a = gl64.random(n, rng)
        assert np.array_equal(N.intt(N.ntt(a)), a)

    def test_constant_poly(self):
        a = np.array([7, 0, 0, 0], dtype=np.uint64)
        assert np.array_equal(N.ntt(a), np.full(4, 7, dtype=np.uint64))

    def test_delta_gives_roots(self):
        a = np.array([0, 1, 0, 0, 0, 0, 0, 0], dtype=np.uint64)
        out = N.ntt(a)
        w = gl.primitive_root_of_unity(3)
        assert [int(x) for x in out] == [gl.pow_mod(w, k) for k in range(8)]

    def test_non_power_of_two_rejected(self, rng):
        with pytest.raises(ValueError):
            N.ntt(gl64.random(12, rng))

    def test_input_not_mutated(self, rng):
        a = gl64.random(16, rng)
        before = a.copy()
        N.ntt(a)
        assert np.array_equal(a, before)


class TestOrders:
    def test_bit_reverse_involution(self, rng):
        a = gl64.random(64, rng)
        assert np.array_equal(N.bit_reverse(N.bit_reverse(a)), a)

    def test_bit_reverse_indices(self):
        assert list(N.bit_reverse_indices(3)) == [0, 4, 2, 6, 1, 5, 3, 7]


class TestBatch:
    def test_batched_equals_rows(self, rng):
        a = gl64.random((5, 64), rng)
        out = N.ntt(a)
        for i in range(5):
            assert np.array_equal(out[i], N.ntt(a[i]))

    def test_batched_intt(self, rng):
        a = gl64.random((3, 32), rng)
        assert np.array_equal(N.intt(N.ntt(a)), a)


class TestCosetAndLde:
    def test_coset_evaluates_on_shifted_domain(self, rng):
        a = gl64.random(16, rng)
        p = Polynomial(a)
        out = N.coset_ntt(a)
        g = gl.coset_shift()
        w = gl.primitive_root_of_unity(4)
        for k in (0, 3, 15):
            assert int(out[k]) == p.eval(gl.mul(g, gl.pow_mod(w, k)))

    def test_coset_roundtrip(self, rng):
        a = gl64.random(64, rng)
        assert np.array_equal(N.coset_intt(N.coset_ntt(a)), a)

    def test_coset_custom_shift(self, rng):
        a = gl64.random(16, rng)
        assert np.array_equal(N.coset_intt(N.coset_ntt(a, 11), 11), a)

    def test_lde_preserves_polynomial(self, rng):
        values = N.ntt(gl64.random(16, rng))
        extended = N.lde(values, 3)
        assert len(extended) == 128
        coeffs = N.coset_intt(extended)
        assert np.array_equal(coeffs[:16], N.intt(values))
        assert not coeffs[16:].any()

    def test_lde_agrees_pointwise(self, rng):
        a = gl64.random(8, rng)
        values = N.ntt(a)
        extended = N.lde(values, 2)
        p = Polynomial(a)
        g = gl.coset_shift()
        w32 = gl.primitive_root_of_unity(5)
        for k in (0, 1, 17, 31):
            assert int(extended[k]) == p.eval(gl.mul(g, gl.pow_mod(w32, k)))

    def test_lde_batch(self, rng):
        vals = gl64.random((4, 16), rng)
        out = N.lde(vals, 1)
        assert out.shape == (4, 32)
        for i in range(4):
            assert np.array_equal(out[i], N.lde(vals[i], 1))


class TestLinearity:
    @given(st.integers(min_value=0, max_value=gl.P - 1))
    @settings(max_examples=15, deadline=None)
    def test_scaling(self, c):
        rng = np.random.default_rng(42)
        a = gl64.random(32, rng)
        lhs = N.ntt(gl64.mul(a, np.uint64(c)))
        rhs = gl64.mul(N.ntt(a), np.uint64(c))
        assert np.array_equal(lhs, rhs)

    def test_additivity(self, rng):
        a = gl64.random(64, rng)
        b = gl64.random(64, rng)
        assert np.array_equal(N.ntt(gl64.add(a, b)), gl64.add(N.ntt(a), N.ntt(b)))

    def test_convolution_theorem(self, rng):
        # intt(ntt(a) * ntt(b)) is the cyclic convolution of a and b.
        n = 16
        a = gl64.random(n, rng)
        b = gl64.random(n, rng)
        conv = N.intt(gl64.mul(N.ntt(a), N.ntt(b)))
        for k in (0, 5, n - 1):
            expect = sum(int(a[i]) * int(b[(k - i) % n]) for i in range(n)) % gl.P
            assert int(conv[k]) == expect


class TestExtensionTransforms:
    def test_coset_intt_ext(self, rng):
        a = np.stack([gl64.random(16, rng), gl64.random(16, rng)], axis=-1)
        fwd = np.stack([N.coset_ntt(a[..., 0]), N.coset_ntt(a[..., 1])], axis=-1)
        assert np.array_equal(N.coset_intt_ext(fwd), a)
