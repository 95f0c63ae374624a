"""Quadratic extension field GF(p^2) tests."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.field import extension as ext, gl64, goldilocks as gl

limb = st.integers(min_value=0, max_value=gl.P - 1)
pairs = st.tuples(limb, limb)


def mk(p):
    return ext.make(p[0], p[1])


def conjugate(a):
    """``x -> x**p``: the Frobenius map negates limb 1."""
    return ext.make(a[..., 0], gl64.neg(a[..., 1]))


class TestConstruction:
    def test_non_residue_is_non_residue(self):
        w = ext.non_residue()
        assert pow(w, (gl.P - 1) // 2, gl.P) == gl.P - 1

    def test_from_base(self):
        e = ext.from_base(np.uint64(42))
        assert ext.to_pair(e) == (42, 0)

    def test_zero_one(self):
        assert ext.to_pair(ext.zero()) == (0, 0)
        assert ext.to_pair(ext.one()) == (1, 0)

    def test_is_zero(self):
        assert bool(ext.is_zero(ext.zero()))
        assert not bool(ext.is_zero(ext.one()))


class TestFieldAxioms:
    @given(pairs, pairs, pairs)
    @settings(max_examples=40, deadline=None)
    def test_mul_associative(self, a, b, c):
        x, y, z = mk(a), mk(b), mk(c)
        assert np.array_equal(ext.mul(ext.mul(x, y), z), ext.mul(x, ext.mul(y, z)))

    @given(pairs, pairs, pairs)
    @settings(max_examples=40, deadline=None)
    def test_distributive(self, a, b, c):
        x, y, z = mk(a), mk(b), mk(c)
        assert np.array_equal(
            ext.mul(x, ext.add(y, z)), ext.add(ext.mul(x, y), ext.mul(x, z))
        )

    @given(pairs.filter(lambda p: p != (0, 0)))
    @settings(max_examples=40, deadline=None)
    def test_inverse(self, a):
        x = mk(a)
        assert np.array_equal(ext.mul(x, ext.inv(x)), ext.one())

    @given(pairs, pairs)
    @settings(max_examples=40, deadline=None)
    def test_commutative(self, a, b):
        x, y = mk(a), mk(b)
        assert np.array_equal(ext.mul(x, y), ext.mul(y, x))

    @given(pairs)
    @settings(max_examples=40, deadline=None)
    def test_additive_inverse(self, a):
        x = mk(a)
        assert bool(ext.is_zero(ext.add(x, ext.sub(ext.zero(), x))))


class TestStructure:
    def test_mul_formula(self):
        w = ext.non_residue()
        x, y = ext.make(3, 4), ext.make(5, 6)
        c0 = gl.add(gl.mul(3, 5), gl.mul(w, gl.mul(4, 6)))
        c1 = gl.add(gl.mul(3, 6), gl.mul(4, 5))
        assert ext.to_pair(ext.mul(x, y)) == (c0, c1)

    def test_frobenius_is_automorphism(self, rng):
        a = ext.make(int(gl64.random((), rng)), int(gl64.random((), rng)))
        b = ext.make(int(gl64.random((), rng)), int(gl64.random((), rng)))
        assert np.array_equal(
            conjugate(ext.mul(a, b)), ext.mul(conjugate(a), conjugate(b))
        )
        assert np.array_equal(conjugate(conjugate(a)), a)

    def test_frobenius_fixes_base(self):
        a = ext.from_base(np.uint64(99))
        assert np.array_equal(conjugate(a), a)

    def test_frobenius_is_pth_power(self):
        a = ext.make(123, 456)
        assert np.array_equal(conjugate(a), ext.pow_scalar(a, gl.P))

    def test_norm_in_base_field(self):
        # x * conjugate(x) must land in the base field.
        x = ext.make(0xABCDEF, 0x123456)
        prod = ext.mul(x, conjugate(x))
        assert ext.to_pair(prod)[1] == 0

    def test_div(self):
        x, y = ext.make(7, 8), ext.make(9, 10)
        assert np.array_equal(ext.mul(ext.mul(x, ext.inv(y)), y), x)

    def test_inv_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            ext.inv(ext.zero())


class TestVectorised:
    def test_batch_ops(self, rng):
        a = np.stack([gl64.random(8, rng), gl64.random(8, rng)], axis=-1)
        b = np.stack([gl64.random(8, rng), gl64.random(8, rng)], axis=-1)
        prod = ext.mul(a, b)
        for i in range(8):
            assert np.array_equal(prod[i], ext.mul(a[i], b[i]).reshape(2))

    def test_batch_inv(self, rng):
        a = np.stack([gl64.random(8, rng), gl64.random(8, rng)], axis=-1)
        a[:, 0] |= np.uint64(1)  # avoid zeros
        out = ext.inv(a)
        prod = ext.mul(a, out)
        assert np.array_equal(prod, np.broadcast_to(ext.one(), (8, 2)))

    def test_scalar_mul(self, rng):
        a = ext.make(3, 4)
        out = ext.scalar_mul(a, np.uint64(5))
        assert ext.to_pair(out) == (15, 20)

    def test_powers(self):
        base = ext.make(3, 1)
        out = ext.powers(base, 6)
        acc = ext.one()
        for i in range(6):
            assert np.array_equal(out[i], acc.reshape(2))
            acc = ext.mul(acc, base)

    def test_pow_scalar_matches_powers(self):
        base = ext.make(17, 23)
        pw = ext.powers(base, 20)
        assert np.array_equal(ext.pow_scalar(base, 19).reshape(2), pw[19])


class TestPolynomialEval:
    def test_eval_poly_base_matches_horner(self, rng):
        for n in (0, 1, 2, 7, 64, 100):
            coeffs = gl64.random(n, rng)
            x = ext.make(12345, 67890)
            acc = ext.zero()
            for c in coeffs[::-1]:
                acc = ext.add(ext.mul(acc, x), ext.from_base(c))
            assert np.array_equal(ext.eval_poly_base(coeffs, x), acc)

    def test_eval_poly_ext(self, rng):
        coeffs = np.stack([gl64.random(9, rng), gl64.random(9, rng)], axis=-1)
        x = ext.make(5, 6)
        acc = ext.zero()
        for i in range(8, -1, -1):
            acc = ext.add(ext.mul(acc, x), coeffs[i])
        assert np.array_equal(ext.eval_poly_ext(coeffs, x), acc)


# -- the size rule: short operands in Python ints, the rest on gl64 ---------

W = ext.non_residue()
#: Words where carries, borrows and reductions change behaviour.
EDGE_WORDS = (0, 1, gl.P - 1, 2**32 - 1, 2**32, 2**63, W, gl.P - W)
CROSSOVER = ext._SHORT_ELEMS
LENGTHS = (1, CROSSOVER, CROSSOVER + 1)


def _on(path: str, op, *args):
    """``op(*args)`` with every operand forced onto one path; the result
    array, or the exception class it raised."""
    limit = {"python": 1 << 62, "gl64": -1}[path]
    with mock.patch.object(ext, "_SHORT_ELEMS", limit):
        try:
            return op(*args)
        except ZeroDivisionError as exc:
            return type(exc)


def _agree(op, *args):
    """The shipped dispatch and both forced paths give the same answer,
    as a canonical writeable array of one shape (or the same error)."""
    results = [_on("python", op, *args), _on("gl64", op, *args)]
    try:
        results.append(op(*args))
    except ZeroDivisionError as exc:
        results.append(type(exc))
    first = results[0]
    if first is ZeroDivisionError:
        assert results == [ZeroDivisionError] * 3
        return
    for got in results:
        assert isinstance(got, np.ndarray) and got.dtype == np.uint64
        assert got.flags.writeable
        assert got.shape == first.shape
        assert (got < np.uint64(gl.P)).all()
        assert np.array_equal(got, first)


@st.composite
def _elements(draw, length=None):
    """``(length, 2)`` words (``(2,)`` for one element): random canonical
    words with edge words mixed in at a drawn density."""
    length = draw(st.sampled_from(LENGTHS)) if length is None else length
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    words = gl64.random((length, 2), rng)
    edges = rng.random((length, 2)) < draw(st.sampled_from((0.0, 0.3, 1.0)))
    words[edges] = rng.choice(np.array(EDGE_WORDS, dtype=np.uint64), size=int(edges.sum()))
    return words.reshape(2) if length == 1 and draw(st.booleans()) else words


class TestShortPathDispatch:
    @given(_elements(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_binary_ops(self, a, data):
        b = data.draw(_elements(length=a.size // 2))
        for op in (ext.add, ext.sub, ext.mul):
            _agree(op, a, b)
        _agree(ext.square, a)

    @given(_elements())
    @settings(max_examples=30, deadline=None)
    def test_unary_ops(self, a):
        _agree(ext.inv, a)
        _agree(ext.scalar_mul, a, a.reshape(-1, 2)[:, 0].reshape(a.shape[:-1]))
        for e in (0, 1, 2, 3, 512, gl.P - 2, gl.P):
            _agree(ext.pow_scalar, a, e)

    @given(_elements(), st.integers(0, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_eval_poly_ext(self, x, degree, seed):
        coeffs = gl64.random((degree, 2), np.random.default_rng(seed))
        _agree(ext.eval_poly_ext, coeffs, x)

    @pytest.mark.parametrize("length", LENGTHS)
    def test_broadcasting(self, length, rng):
        one = gl64.random((2,), rng)
        many = gl64.random((length, 2), rng)
        column = gl64.random((length,), rng)
        view = np.broadcast_to(one, (length, 2))  # read-only, zero strides
        assert not view.flags.writeable
        for op in (ext.add, ext.sub, ext.mul):
            _agree(op, one, many)
            _agree(op, many, one)
            _agree(op, view, many)
        _agree(ext.scalar_mul, many, column)  # (m, 2) against an (m,) column
        _agree(ext.scalar_mul, one, column)
        _agree(ext.scalar_mul, view, column[0])
        _agree(ext.inv, view)
        _agree(ext.pow_scalar, view, 7)

    @pytest.mark.parametrize("length", LENGTHS)
    def test_zero_has_no_inverse_on_either_path(self, length, rng):
        a = gl64.random((length, 2), rng)
        a[length // 2] = 0
        _agree(ext.inv, a)
        assert _on("python", ext.inv, a) is ZeroDivisionError

    def test_empty_operands(self):
        empty = np.zeros((0, 2), dtype=np.uint64)
        for op in (ext.add, ext.sub, ext.mul):
            _agree(op, empty, empty)
        _agree(ext.inv, empty)
