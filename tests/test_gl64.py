"""Vectorised Goldilocks kernels versus the scalar reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.field import gl64, goldilocks as gl

elements = st.integers(min_value=0, max_value=gl.P - 1)

#: Values near every reduction boundary.
EDGE_VALUES = [
    0, 1, 2, gl.P - 1, gl.P - 2, gl.EPSILON, gl.EPSILON + 1,
    1 << 32, (1 << 32) - 1, gl.P >> 1, (gl.P >> 1) + 1, 0xDEADBEEF,
]


class TestEdgeCases:
    @pytest.mark.parametrize("a", EDGE_VALUES)
    @pytest.mark.parametrize("b", EDGE_VALUES)
    def test_mul_edges(self, a, b):
        assert int(gl64.mul(np.uint64(a), np.uint64(b))) == gl.mul(a, b)

    @pytest.mark.parametrize("a", EDGE_VALUES)
    @pytest.mark.parametrize("b", EDGE_VALUES)
    def test_add_sub_edges(self, a, b):
        assert int(gl64.add(np.uint64(a), np.uint64(b))) == gl.add(a, b)
        assert int(gl64.sub(np.uint64(a), np.uint64(b))) == gl.sub(a, b)

    def test_zero_dim_shapes(self):
        out = gl64.mul(np.uint64(3), np.uint64(5))
        assert out.shape == ()
        assert int(out) == 15


class TestAgainstScalar:
    @given(st.lists(st.tuples(elements, elements), min_size=1, max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_mul_batch(self, pairs):
        a = np.array([p[0] for p in pairs], dtype=np.uint64)
        b = np.array([p[1] for p in pairs], dtype=np.uint64)
        out = gl64.mul(a, b)
        assert [int(x) for x in out] == [gl.mul(x, y) for x, y in pairs]

    @given(st.lists(st.tuples(elements, elements), min_size=1, max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_add_sub_batch(self, pairs):
        a = np.array([p[0] for p in pairs], dtype=np.uint64)
        b = np.array([p[1] for p in pairs], dtype=np.uint64)
        assert [int(x) for x in gl64.add(a, b)] == [gl.add(x, y) for x, y in pairs]
        assert [int(x) for x in gl64.sub(a, b)] == [gl.sub(x, y) for x, y in pairs]

    @given(elements)
    @settings(max_examples=30, deadline=None)
    def test_pow7(self, a):
        assert int(gl64.pow7(np.uint64(a))) == gl.pow_mod(a, 7)


def _inverses(values):
    """``pow(x, p - 2, p)`` per element, as a nested list."""
    if isinstance(values, list):
        return [_inverses(v) for v in values]
    return pow(values, gl.P - 2, gl.P)


nonzero = st.integers(min_value=1, max_value=gl.P - 1)


class TestInversion:
    def test_inv_matches(self, rng):
        a = gl64.random(64, rng)
        a[a == 0] = np.uint64(1)
        out = gl64.inv_fast(a)
        assert all(int(x) == 1 for x in gl64.mul(a, out))

    def test_inv_fast_matches_inv(self, rng):
        # Non-canonical words too: every uint64 that is not 0 mod p.
        a = rng.integers(1, 1 << 64, size=64, dtype=np.uint64)
        a[a == np.uint64(gl.P)] = np.uint64(1)
        assert gl64.inv_fast(a).tolist() == _inverses(a.tolist())

    def test_inv_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            gl64.inv_fast(np.array([1, 0, 2], dtype=np.uint64))
        with pytest.raises(ZeroDivisionError):
            gl64.inv_fast(np.array([0], dtype=np.uint64))

    def test_inv_empty(self):
        out = gl64.inv_fast(np.zeros(0, dtype=np.uint64))
        assert out.size == 0

    def test_inv_preserves_shape(self, rng):
        a = gl64.random((3, 5), rng)
        a[a == 0] = np.uint64(1)
        assert gl64.inv_fast(a).shape == (3, 5)
        assert gl64.inv_fast(a[0, 0]).shape == ()

    @given(
        st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 31, 33, 100]).flatmap(
            lambda n: st.lists(st.one_of(nonzero, st.sampled_from(EDGE_VALUES[1:])), min_size=n, max_size=n)
        ),
        st.sampled_from(["flat", "2d", "strided", "readonly"]),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_inv_fast_equals_fermat_on_every_layout(self, values, layout, data):
        a = np.array(values, dtype=np.uint64)
        if layout == "2d" and a.size % 2 == 0:
            a = a.reshape(2, -1)
        elif layout == "strided":
            wide = np.zeros(2 * a.size, dtype=np.uint64)
            wide[::2] = a
            a = wide[::2]
        elif layout == "readonly":
            a.flags.writeable = False
        before = a.tolist()
        out = gl64.inv_fast(a)
        assert out.tolist() == _inverses(before)
        assert a.tolist() == before  # input left unmodified
        assert out.shape == a.shape and out.flags.writeable
        # A zero anywhere is an error, wherever it sits in the tree --
        # and the same-size call must not reach the result handed out.
        broken = np.array(a)
        broken.reshape(-1)[data.draw(st.integers(0, a.size - 1))] = 0
        with pytest.raises(ZeroDivisionError):
            gl64.inv_fast(broken)
        assert out.tolist() == _inverses(before)

    @pytest.mark.parametrize("n", [gl64._BLOCK - 1, gl64._BLOCK, gl64._BLOCK + 1, 2 * gl64._BLOCK + 3])
    def test_inv_fast_either_side_of_the_multiply_block(self, n, rng):
        a = gl64.random(n, rng) | np.uint64(1)
        out = gl64.inv_fast(a)
        assert bool((out < np.uint64(gl.P)).all())
        assert bool((gl64.mul(a, out) == np.uint64(1)).all())
        picks = rng.integers(0, n, size=16).tolist() + [0, n - 1]
        assert out[picks].tolist() == _inverses(a[picks].tolist())

    def test_inv_fast_scratch_is_reused(self, rng):
        ws = gl64.default_workspace()
        a = gl64.random(1000, rng) | np.uint64(1)
        gl64.inv_fast(a)
        held = ws.nbytes()
        gl64.inv_fast(a[::-1])
        assert ws.nbytes() == held


class TestHelpers:
    def test_powers(self):
        base = 123456789
        out = gl64.powers(base, 33)
        assert [int(x) for x in out] == [gl.pow_mod(base, i) for i in range(33)]

    def test_powers_empty_and_one(self):
        assert gl64.powers(5, 0).size == 0
        assert [int(x) for x in gl64.powers(5, 1)] == [1]

    def test_sum_array(self, rng):
        a = gl64.random(100, rng)
        assert int(gl64.sum_array(a)) == sum(int(x) for x in a) % gl.P

    def test_sum_array_empty(self):
        assert int(gl64.sum_array(np.zeros(0, dtype=np.uint64))) == 0

    def test_sum_along_axis(self, rng):
        a = gl64.random((4, 7), rng)
        out = gl64.sum_along_axis(a, axis=1)
        for i in range(4):
            assert int(out[i]) == sum(int(x) for x in a[i]) % gl.P
        out0 = gl64.sum_along_axis(a, axis=0)
        for j in range(7):
            assert int(out0[j]) == sum(int(a[i, j]) for i in range(4)) % gl.P

    def test_asarray_canonicalises(self):
        out = gl64.asarray([gl.P, gl.P + 5])
        assert [int(x) for x in out] == [0, 5]

    def test_random_is_canonical(self, rng):
        a = gl64.random(1000, rng)
        assert bool((a < np.uint64(gl.P)).all())
