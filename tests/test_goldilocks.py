"""Unit and property tests for scalar Goldilocks arithmetic."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.field import gl64, goldilocks as gl

elements = st.integers(min_value=0, max_value=gl.P - 1)


class TestConstants:
    def test_prime_shape(self):
        assert gl.P == 2**64 - 2**32 + 1

    def test_epsilon_identity(self):
        assert (1 << 64) % gl.P == gl.EPSILON

    def test_two_pow_96_is_minus_one(self):
        assert pow(2, 96, gl.P) == gl.P - 1

    def test_prime_is_prime_fermat(self):
        # Fermat tests with several bases (P is a known prime).
        for a in (2, 3, 5, 7, 11):
            assert pow(a, gl.P - 1, gl.P) == 1

    def test_odd_factor_product(self):
        prod = 1
        for q in gl._ODD_FACTORS:
            prod *= q
        assert (1 << 32) * prod == gl.P - 1


class TestBasicOps:
    def test_add_wraps(self):
        assert gl.add(gl.P - 1, 1) == 0
        assert gl.add(gl.P - 1, gl.P - 1) == gl.P - 2

    def test_sub_wraps(self):
        assert gl.sub(0, 1) == gl.P - 1
        assert gl.sub(5, 7) == gl.P - 2

    def test_neg(self):
        assert gl.neg(0) == 0
        assert gl.neg(1) == gl.P - 1

    def test_mul_matches_python(self):
        r = random.Random(1)
        for _ in range(200):
            a, b = r.randrange(gl.P), r.randrange(gl.P)
            assert gl.mul(a, b) == a * b % gl.P

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            gl.inverse(0)

    def test_pow_mod_negative_exponent(self):
        x = 123456789
        assert gl.mul(gl.pow_mod(x, -3), gl.pow_mod(x, 3)) == 1

    def test_exp_power_of_2(self):
        assert gl.exp_power_of_2(3, 4) == pow(3, 16, gl.P)


class TestFieldAxioms:
    @given(elements, elements, elements)
    @settings(max_examples=50, deadline=None)
    def test_add_associative(self, a, b, c):
        assert gl.add(gl.add(a, b), c) == gl.add(a, gl.add(b, c))

    @given(elements, elements, elements)
    @settings(max_examples=50, deadline=None)
    def test_mul_associative(self, a, b, c):
        assert gl.mul(gl.mul(a, b), c) == gl.mul(a, gl.mul(b, c))

    @given(elements, elements, elements)
    @settings(max_examples=50, deadline=None)
    def test_distributive(self, a, b, c):
        assert gl.mul(a, gl.add(b, c)) == gl.add(gl.mul(a, b), gl.mul(a, c))

    @given(elements)
    @settings(max_examples=50, deadline=None)
    def test_additive_inverse(self, a):
        assert gl.add(a, gl.neg(a)) == 0

    @given(elements.filter(lambda x: x != 0))
    @settings(max_examples=50, deadline=None)
    def test_multiplicative_inverse(self, a):
        assert gl.mul(a, gl.inverse(a)) == 1

    @given(elements, elements)
    @settings(max_examples=50, deadline=None)
    def test_commutativity(self, a, b):
        assert gl.add(a, b) == gl.add(b, a)
        assert gl.mul(a, b) == gl.mul(b, a)


class TestGeneratorAndRoots:
    def test_generator_has_full_order(self):
        g = gl.multiplicative_generator()
        order = gl.P - 1
        assert pow(g, order, gl.P) == 1
        assert pow(g, order // 2, gl.P) != 1
        for q in gl._ODD_FACTORS:
            assert pow(g, order // q, gl.P) != 1

    def test_generator_is_seven(self):
        # Matches Plonky2's choice, a nice cross-validation.
        assert gl.multiplicative_generator() == 7

    @pytest.mark.parametrize("log_n", [0, 1, 2, 5, 10, 20, 32])
    def test_root_orders(self, log_n):
        w = gl.primitive_root_of_unity(log_n)
        assert gl.pow_mod(w, 1 << log_n) == 1
        if log_n > 0:
            assert gl.pow_mod(w, 1 << (log_n - 1)) == gl.P - 1

    def test_roots_are_compatible(self):
        # squaring the 2^k-th root gives the 2^(k-1)-th root
        for k in range(1, 12):
            assert gl.square(gl.primitive_root_of_unity(k)) == gl.primitive_root_of_unity(k - 1)

    def test_log_n_out_of_range(self):
        with pytest.raises(ValueError):
            gl.primitive_root_of_unity(33)
        with pytest.raises(ValueError):
            gl.primitive_root_of_unity(-1)

    def test_roots_of_unity_list(self):
        w = gl.primitive_root_of_unity(3)
        roots = [gl.pow_mod(w, i) for i in range(8)]
        assert len(roots) == 8
        assert len(set(roots)) == 8
        assert all(gl.pow_mod(r, 8) == 1 for r in roots)


class TestBatchInverse:
    """The shipped batch inversion, ``gl64.inv_fast`` (Montgomery's trick
    as a product tree), against scalar ``inverse``."""

    def test_matches_single(self):
        r = random.Random(2)
        vals = [r.randrange(1, gl.P) for _ in range(37)]
        out = gl64.inv_fast(np.array(vals, dtype=np.uint64))
        assert out.tolist() == [gl.inverse(v) for v in vals]

    def test_empty(self):
        assert gl64.inv_fast(np.zeros(0, dtype=np.uint64)).size == 0

    def test_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            gl64.inv_fast(np.array([1, 2, 0, 4], dtype=np.uint64))

    def test_single_element(self):
        assert int(gl64.inv_fast(np.array([2], dtype=np.uint64))[0]) == gl.inverse(2)
