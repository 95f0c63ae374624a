"""Field matrix algebra tests (the Poseidon MDS machinery)."""

import numpy as np
import pytest

from repro.field import gl64, goldilocks as gl, matrix as fm


def eye(n):
    return np.eye(n, dtype=np.uint64)


class TestBasics:
    def test_identity(self):
        i3 = eye(3)
        assert np.array_equal(fm.matmul(i3, i3), i3)

    def test_matmul_matches_int_math(self, rng):
        a = gl64.random((3, 4), rng)
        b = gl64.random((4, 5), rng)
        out = fm.matmul(a, b)
        for i in range(3):
            for j in range(5):
                expect = sum(int(a[i, k]) * int(b[k, j]) for k in range(4)) % gl.P
                assert int(out[i, j]) == expect

    def test_matmul_mismatch(self, rng):
        with pytest.raises(ValueError):
            fm.matmul(gl64.random((3, 4), rng), gl64.random((3, 4), rng))

    def test_matvec(self, rng):
        a = gl64.random((3, 3), rng)
        v = [1, 2, 3]
        out = fm.matvec(a, v)
        for i in range(3):
            assert out[i] == sum(int(a[i, k]) * v[k] for k in range(3)) % gl.P


class TestInverse:
    def test_inverse_roundtrip(self, rng):
        for n in (1, 2, 5, 12):
            a = gl64.random((n, n), rng)
            try:
                inv = fm.inverse(a)
            except ValueError:
                continue  # singular random matrix (negligible probability)
            assert np.array_equal(fm.matmul(a, inv), eye(n))
            assert np.array_equal(fm.matmul(inv, a), eye(n))

    def test_singular_raises(self):
        a = np.array([[1, 2], [2, 4]], dtype=np.uint64)
        with pytest.raises(ValueError):
            fm.inverse(a)

    def test_non_square_raises(self, rng):
        with pytest.raises(ValueError):
            fm.inverse(gl64.random((2, 3), rng))


class TestCauchyMds:
    def test_shape_and_invertibility(self):
        m = fm.cauchy_mds(12)
        assert m.shape == (12, 12)
        assert np.array_equal(fm.matmul(m, fm.inverse(m)), eye(12))

    def test_entries_formula(self):
        m = fm.cauchy_mds(4)
        for i in range(4):
            for j in range(4):
                assert int(m[i, j]) == gl.inverse(i + 4 + j)

    def test_mds_property_small_minors(self):
        import itertools

        m = fm.cauchy_mds(6)
        for rows in itertools.combinations(range(6), 2):
            for cols in itertools.combinations(range(6), 2):
                fm.inverse(m[np.ix_(rows, cols)])

    def test_all_submatrices_nonsingular_small(self):
        # Exhaustive 2x2 and 3x3 minor check for a small Cauchy matrix:
        # the MDS property (inverse raises on a singular minor).
        import itertools

        m = fm.cauchy_mds(5)
        for size in (2, 3):
            for rows in itertools.combinations(range(5), size):
                for cols in itertools.combinations(range(5), size):
                    fm.inverse(m[np.ix_(rows, cols)])
