"""NTT transforms: natural-order and coset variants versus the direct DFT."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ntt as N
from repro.field import gemm, gl64, goldilocks as gl
from repro.fri import prover as fri_prover
from repro.ntt import transforms

from . import reference_ntt
from .reference_oracles import Polynomial, inter_dim_twiddles


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
    """The oracle network's bit reversal (the engine has none)."""

    def test_bit_reverse_involution(self, rng):
        a = gl64.random(64, rng)
        assert np.array_equal(reference_ntt.bit_reverse(reference_ntt.bit_reverse(a)), a)

    def test_bit_reverse_indices(self):
        assert list(reference_ntt.bit_reverse_indices(3)) == [0, 4, 2, 6, 1, 5, 3, 7]


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


# ---------------------------------------------------------------------------
# The SAM-decomposed engine against the radix-2 oracle it replaced.
# ---------------------------------------------------------------------------

#: Leading axes every transform is checked on.
LEADS = [(), (2,), (2, 1)]


def _words(lead, n, rng):
    """Any 64-bit words, so non-canonical inputs are covered too."""
    return rng.integers(0, 2**64, size=lead + (n,), dtype=np.uint64)


@pytest.mark.parametrize("log_n", range(17))
def test_every_transform_equals_the_radix2_oracle(log_n, rng):
    """Every public transform at every size 2**0 .. 2**16 (so every
    decomposition shape runs), on 1-, 2- and 3-D leading axes, with the
    default and a random shift and non-canonical input words."""
    n = 1 << log_n
    shift = int(rng.integers(2, gl.P, dtype=np.uint64))
    for lead in LEADS if log_n <= 13 else LEADS[:2]:
        a = _words(lead, n, rng)
        for name in ("ntt", "intt"):
            assert np.array_equal(getattr(N, name)(a), getattr(reference_ntt, name)(a)), name
        for s in (None, shift):
            for name in ("coset_ntt", "coset_intt"):
                got = getattr(N, name)(a, s)
                assert np.array_equal(got, getattr(reference_ntt, name)(a, s)), (name, s)
            for rate in range(1, min(5, 16 - log_n) + 1):  # 4, 5: padded for real
                assert np.array_equal(N.lde_coeffs(a, rate, s), reference_ntt.lde_coeffs(a, rate, s))
                assert np.array_equal(N.lde(a, rate, s), reference_ntt.lde(a, rate, s))
            ext = _words(lead, 2 * n, rng).reshape(lead + (n, 2))
            assert np.array_equal(N.coset_intt_ext(ext, s), reference_ntt.coset_intt_ext(ext, s))


def test_out_buffers_and_aliasing(rng):
    """``out=`` receives the transform, strided or aliasing the input."""
    a = _words((3,), 1 << 9, rng)
    want = reference_ntt.coset_ntt(a)
    out = np.empty_like(a)
    assert N.coset_ntt(a, out=out) is out and np.array_equal(out, want)
    alias = a.copy()
    N.coset_ntt(alias, out=alias)
    assert np.array_equal(alias, want)
    wide = np.zeros((3, 2 << 9), dtype=np.uint64)
    N.coset_ntt(a, out=wide[:, ::2])
    assert np.array_equal(wide[:, ::2], want) and not wide[:, 1::2].any()


def test_decomposition_covers_every_size():
    """Each size splits into dimensions of at most ``2**_DIM_BITS``
    points whose sizes multiply to it, widest first."""
    for log_n in range(1, gl.TWO_ADICITY + 1):
        dims = transforms._dims(log_n)
        assert sum(dims) == log_n and max(dims) <= transforms._DIM_BITS
        assert list(dims) == sorted(dims, reverse=True) and max(dims) - min(dims) <= 1
        assert len(dims) == -(-log_n // transforms._DIM_BITS)


@pytest.mark.parametrize("log_n", [6, 9, 12, 14, 16])
def test_engine_twiddles_are_the_inter_dimension_twiddles(log_n):
    """Plain forward levels: the twiddle after each dimension is paper
    Fig. 4b's ``w_N'^(k1 j2)`` over the sub-transform it opens."""
    rest = 1 << log_n
    for level in transforms._levels(log_n, 1, False):
        if level.twiddle is not None:
            assert level.twiddle.shape == (level.m, level.n, 1)
            want = inter_dim_twiddles(rest.bit_length() - 1, level.n, level.m)
            assert np.array_equal(level.twiddle[:, :, 0].T, want)
        rest = level.m


def _chunk_bounds(chunks) -> tuple:
    """Largest ``|S0|`` and ``|S1|`` the ``int64`` sum of a pass's
    chunks can reach -- every operand limb at ``2**16 - 1`` -- checking
    each chunk's float64 sum stays below ``2**53`` on the way."""
    totals = None
    for chunk in chunks:
        assert np.array_equal(chunk, np.rint(chunk)) and float(np.abs(chunk).max()) <= 2.0**31
        cols = np.abs(chunk).sum(axis=0) * 0xFFFF
        assert float(cols.max()) < 2.0**53
        totals = cols if totals is None else totals + cols
    half = len(totals) // 2
    return int(totals[:half].max()), int(totals[half:].max())


def _assert_folds(s0: int, s1: int) -> None:
    """The fold term of the worst sums, offsets included (at most
    ``2**31`` a limb on top of the bias), stays inside the bias."""
    s0, s1 = s0 + (1 << 31), s1 + (1 << 31)
    assert s0 + ((s1 >> 32) + 1) * gl.EPSILON < gemm.FOLD_BIAS
    assert 2 * gemm.FOLD_BIAS < 1 << 63


def test_accumulators_stay_exact_for_the_dft_tables():
    """Every shipped DFT table -- every level of every size, plain and
    coset, both directions, the LDE's truncated first level included --
    sums exactly in float64 and folds inside the bias."""
    for log_n in range(1, 18):
        for shift in (1, gl.coset_shift()):
            for inverse in (False, True):
                for level in transforms._levels(log_n, shift, inverse):
                    _assert_folds(*_chunk_bounds(level.chunks))
                    for j in range(1, level.n):
                        _assert_folds(*_chunk_bounds(gemm.weight_chunks(level.table[: 4 * j])))


def test_accumulators_stay_exact_for_the_fold_tables():
    """The one-step fold's inverse-DFT tables, every arity it runs."""
    for bits in (2, 3):
        _assert_folds(*_chunk_bounds(fri_prover.fold_tables(bits + 6, gl.coset_shift(), bits)[0]))


def test_any_table_of_seven_chunks_is_exact():
    """The bound every per-call table (the fold's beta dot, the
    combine's alpha ladder) relies on: seven chunks of the largest
    weight limbs still sum exactly and fold inside the bias."""
    worst = np.full((4 * 7 * gemm.CHUNK_WORDS, 8), 2.0**31)
    _assert_folds(*_chunk_bounds(gemm.weight_chunks(worst)))


def test_no_gemm_call_wakes_openblas_threads():
    """Every limb GEMM the engine, the fold and the combine can run
    stays below ``gemm.GEMM_MACS`` multiply-adds a call."""
    tables = [
        chunk
        for log_n in range(1, 18)
        for inverse in (False, True)
        for level in transforms._levels(log_n, 1, inverse)
        for chunk in level.chunks
    ]
    tables.append(np.empty((4 * gemm.CHUNK_WORDS, 4)))  # the fold's beta dot
    tables.append(np.empty((4 * gemm.CHUNK_WORDS, 4 * 8)))  # a combine of 8 points
    for table in tables:
        operand = np.empty((1024, table.shape[0]))
        for rows, out in gemm.row_blocks(operand, np.empty((1024, table.shape[1]))):
            assert rows.shape[0] * table.shape[0] * table.shape[1] < gemm.GEMM_MACS
