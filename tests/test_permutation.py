"""Plonk permutation argument: sigma, partial products, Z accumulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.field import gl64, goldilocks as gl
from repro.plonk import CircuitBuilder
from repro.plonk.protocol import copy_product
from repro.field.algebra import BaseVecAlgebra
from repro.plonk.permutation import (
    CHUNK_SIZE,
    compute_z,
    coset_representatives,
    id_values,
    partial_products,
    quotient_chunk_products,
    sigma_values,
)


class TestLabels:
    def test_coset_representatives_distinct_cosets(self):
        ks = coset_representatives()
        assert len(ks) == 3 and ks[0] == 1
        # k_i / k_j must not be a root of unity of any relevant order.
        for n_bits in (4, 10, 20):
            n = 1 << n_bits
            for i in range(3):
                for j in range(i + 1, 3):
                    ratio = gl.mul(ks[i], gl.inverse(ks[j]))
                    assert gl.pow_mod(ratio, n) != 1

    def test_id_values_distinct(self):
        ids = id_values(16)
        flat = [int(x) for x in ids.reshape(-1)]
        assert len(set(flat)) == 48

    def test_sigma_is_permutation_of_ids(self):
        b = CircuitBuilder()
        x, y = b.add_variable(), b.add_variable()
        s = b.add(x, y)
        b.mul(s, s)
        c = b.build()
        ids = id_values(c.n).reshape(-1)
        sig = sigma_values(c).reshape(-1)
        assert sorted(int(v) for v in ids) == sorted(int(v) for v in sig)


class TestPartialProducts:
    def test_chunk_products(self, rng):
        q = gl64.random(64, rng)
        h = quotient_chunk_products(q)
        assert h.shape == (8,)
        for i in range(8):
            expect = 1
            for j in range(CHUNK_SIZE):
                expect = gl.mul(expect, int(q[8 * i + j]))
            assert int(h[i]) == expect

    def test_chunk_size_divisibility(self, rng):
        with pytest.raises(ValueError):
            quotient_chunk_products(gl64.random(10, rng))

    def test_partial_products_prefix(self, rng):
        h = gl64.random(16, rng)
        pp = partial_products(h)
        acc = 1
        for i in range(16):
            acc = gl.mul(acc, int(h[i]))
            assert int(pp[i]) == acc

    @given(st.lists(st.integers(min_value=1, max_value=gl.P - 1), min_size=8, max_size=64))
    @settings(max_examples=15, deadline=None)
    def test_equations_1_and_2_compose(self, vals):
        # h then PP equals the straight product of everything (Eq 1 + 2).
        q = np.array((vals * 8)[:64], dtype=np.uint64)
        h = quotient_chunk_products(q)
        pp = partial_products(h)
        total = 1
        for v in q:
            total = gl.mul(total, int(v))
        assert int(pp[-1]) == total


class TestZ:
    def _circuit(self):
        b = CircuitBuilder()
        x0, x1, x2, x3 = (b.add_variable() for _ in range(4))
        s = b.add(x0, x1)
        p = b.mul(x2, x3)
        out = b.mul(s, p)
        b.assert_constant(out, 99)
        c = b.build(min_rows=8)
        w = c.generate_witness({x0.index: 2, x1.index: 9, x2.index: 3, x3.index: 3})
        return c, w

    def test_z_starts_at_one(self):
        c, w = self._circuit()
        wires = c.wire_values(w)
        z, _, _ = compute_z(wires, id_values(c.n), sigma_values(c), 123, 456)
        assert int(z[0]) == 1

    def test_z_closes_cycle(self):
        # For a valid witness the total product equals 1: Z wraps around.
        c, w = self._circuit()
        wires = c.wire_values(w)
        z, f, g = compute_z(wires, id_values(c.n), sigma_values(c), 123, 456)
        total = 1
        for i in range(c.n):
            total = gl.mul(total, gl.mul(int(f[i]), gl.inverse(int(g[i]))))
        assert total == 1

    def test_z_recurrence(self):
        c, w = self._circuit()
        wires = c.wire_values(w)
        z, f, g = compute_z(wires, id_values(c.n), sigma_values(c), 77, 88)
        for i in range(c.n - 1):
            expect = gl.mul(int(z[i]), gl.mul(int(f[i]), gl.inverse(int(g[i]))))
            assert int(z[i + 1]) == expect

    def test_z_matches_direct_cumulative_product(self):
        c, w = self._circuit()
        wires = c.wire_values(w)
        ids, sig = id_values(c.n), sigma_values(c)
        z, f, g = compute_z(wires, ids, sig, 11, 22)
        # direct sequential computation
        acc = 1
        direct = [1]
        for i in range(c.n - 1):
            acc = gl.mul(acc, gl.mul(int(f[i]), gl.inverse(int(g[i]))))
            direct.append(acc)
        assert [int(v) for v in z] == direct

    def test_invalid_witness_breaks_cycle(self):
        c, w = self._circuit()
        # Corrupt a value that participates in a copy cycle (the c-wire of
        # gate 0 feeds gate 2): the permutation product will not close.
        # Fixed points of sigma (variables used once) would NOT break it.
        wires = c.wire_values(w).copy()
        pos = None
        for row in range(c.n):
            p = 2 * c.n + row  # column-major position of wire c at `row`
            if int(c.sigma[p]) != p:
                pos = row
                break
        assert pos is not None
        wires[2, pos] = np.uint64(int(wires[2, pos]) ^ 1)
        z, f, g = compute_z(wires, id_values(c.n), sigma_values(c), 123, 456)
        total = 1
        for i in range(c.n):
            total = gl.mul(total, gl.mul(int(f[i]), gl.inverse(int(g[i]))))
        assert total != 1

    def test_blend(self, rng):
        wires = gl64.random((3, 4), rng)
        labels = gl64.random((3, 4), rng)
        out = copy_product(BaseVecAlgebra(4), wires, labels, 5, 7)
        for i in range(4):
            expect = 1
            for j in range(3):
                term = gl.add(gl.add(int(wires[j, i]), gl.mul(5, int(labels[j, i]))), 7)
                expect = gl.mul(expect, term)
            assert int(out[i]) == expect
