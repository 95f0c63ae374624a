"""Property tests for the zero-copy data plane.

Every ``*_into`` kernel must be extensionally equal to its pure
counterpart (which is itself pinned to Python-int references elsewhere),
including when the output buffer exactly aliases an input, and the
in-place workspace NTT must match a straightforward Python-int radix-2
reference bit-for-bit across all layout variants.
"""

import numpy as np
import pytest

from repro.field import extension as fext, gl64, goldilocks as gl
from repro.ntt import transforms

RNG = np.random.default_rng(0xC0FFEE)


def _random_canonical(shape):
    return RNG.integers(0, gl.P, size=shape, dtype=np.uint64)


def _near_p(shape):
    """Values clustered at the canonical boundary (carry/borrow cases)."""
    offsets = RNG.integers(0, 4, size=shape, dtype=np.uint64)
    arr = (np.uint64(gl.P - 1) - offsets).astype(np.uint64)
    arr.flat[0] = 0
    if arr.size > 1:
        arr.flat[1] = np.uint64(gl.P - 1)
    return arr


def _inputs(shape):
    return [
        (_random_canonical(shape), _random_canonical(shape)),
        (_near_p(shape), _near_p(shape)),
        (_random_canonical(shape), _near_p(shape)),
    ]


@pytest.mark.parametrize("shape", [(1,), (7,), (64,), (3, 5), (2, 3, 4)])
@pytest.mark.parametrize(
    "into,pure",
    [
        (gl64.add_into, gl64.add),
        (gl64.sub_into, gl64.sub),
        (gl64.mul_into, gl64.mul),
    ],
)
def test_binary_into_matches_pure(shape, into, pure):
    ws = gl64.Workspace()
    for a, b in _inputs(shape):
        want = pure(a, b)
        out = np.empty(shape, dtype=np.uint64)
        got = into(a, b, out, ws)
        assert got is out
        assert np.array_equal(want, got)
        # Exact aliasing: out is a, then out is b.
        a2 = a.copy()
        into(a2, b, a2, ws)
        assert np.array_equal(want, a2)
        b2 = b.copy()
        into(a, b2, b2, ws)
        assert np.array_equal(want, b2)


@pytest.mark.parametrize("shape", [(1,), (13,), (4, 9)])
@pytest.mark.parametrize(
    "into,pure",
    [
        (gl64.neg_into, gl64.neg),
        (gl64.square_into, gl64.square),
        (gl64.pow7_into, gl64.pow7),
    ],
)
def test_unary_into_matches_pure(shape, into, pure):
    ws = gl64.Workspace()
    for a, _ in _inputs(shape):
        want = pure(a)
        out = np.empty(shape, dtype=np.uint64)
        assert np.array_equal(want, into(a, out, ws))
        a2 = a.copy()
        into(a2, a2, ws)  # exact alias
        assert np.array_equal(want, a2)


@pytest.mark.parametrize("dit", [False, True])
def test_butterfly_into_matches_pure(dit):
    ws = gl64.Workspace()
    for u, w in _inputs((32,)):
        tw = _random_canonical((32,))
        if dit:
            t = gl64.mul(w, tw)
            want_u, want_w = gl64.add(u, t), gl64.sub(u, t)
        else:
            want_u, want_w = gl64.add(u, w), gl64.mul(gl64.sub(u, w), tw)
        # The aliasing pattern the in-place NTT uses: out_u <- u, out_w <- w.
        u2, w2 = u.copy(), w.copy()
        gl64.butterfly_into(u2, w2, tw, u2, w2, dit=dit, ws=ws)
        assert np.array_equal(want_u, u2)
        assert np.array_equal(want_w, w2)


def test_into_kernels_accept_broadcast_operands():
    ws = gl64.Workspace()
    a = _random_canonical((6, 8))
    b = _random_canonical((8,))
    out = np.empty((6, 8), dtype=np.uint64)
    assert np.array_equal(gl64.add(a, b), gl64.add_into(a, b, out, ws))
    assert np.array_equal(gl64.mul(a, b), gl64.mul_into(a, b, out, ws))
    s = np.uint64(12345)
    assert np.array_equal(gl64.mul(a, s), gl64.mul_into(a, s, out, ws))


# ---------------------------------------------------------------------------
# NTT reference: recursive radix-2 with Python ints (exact by definition).
# ---------------------------------------------------------------------------


def _ref_ntt(values, omega):
    n = len(values)
    if n == 1:
        return list(values)
    even = _ref_ntt(values[0::2], omega * omega % gl.P)
    odd = _ref_ntt(values[1::2], omega * omega % gl.P)
    out = [0] * n
    w = 1
    for k in range(n // 2):
        t = w * odd[k] % gl.P
        out[k] = (even[k] + t) % gl.P
        out[k + n // 2] = (even[k] - t) % gl.P
        w = w * omega % gl.P
    return out


def _ref_forward(coeffs, shift=1):
    """Evaluations of the coefficient list on the coset shift * <omega>."""
    n = len(coeffs)
    omega = gl.primitive_root_of_unity(n.bit_length() - 1)
    scaled, s = [], 1
    for c in coeffs:
        scaled.append(c * s % gl.P)
        s = s * shift % gl.P
    return _ref_ntt(scaled, omega)


def _brev_perm(values, log_n):
    idx = transforms.bit_reverse_indices(log_n)
    return [values[i] for i in idx]


@pytest.mark.parametrize("log_n", range(1, 13))
def test_inplace_ntt_matches_reference(log_n):
    n = 1 << log_n
    a = _random_canonical((n,))
    ints = [int(v) for v in a]
    want_nn = _ref_forward(ints)
    assert [int(v) for v in transforms.ntt(a)] == want_nn
    assert [int(v) for v in transforms.ntt_nr(a)] == _brev_perm(want_nn, log_n)
    a_rev = np.asarray(_brev_perm(ints, log_n), dtype=np.uint64)
    assert [int(v) for v in transforms.ntt_rn(a_rev)] == want_nn


@pytest.mark.parametrize("log_n", [1, 2, 5, 9, 12])
def test_inplace_coset_and_inverse_round_trips(log_n):
    n = 1 << log_n
    shift = gl.coset_shift()
    a = _random_canonical((n,))
    ints = [int(v) for v in a]
    want_coset = _ref_forward(ints, shift)
    assert [int(v) for v in transforms.coset_ntt(a)] == want_coset
    assert [int(v) for v in transforms.coset_ntt_nr(a)] == _brev_perm(want_coset, log_n)
    # Inverses undo every layout variant bit-for-bit.
    assert np.array_equal(a, transforms.intt(transforms.ntt(a)))
    assert np.array_equal(a, transforms.intt_rn(transforms.ntt_nr(a)))
    assert np.array_equal(a, transforms.intt_nr(transforms.ntt_rn(a)))
    assert np.array_equal(a, transforms.coset_intt(transforms.coset_ntt(a)))


@pytest.mark.parametrize("batch", [1, 3, 8])
def test_batched_ntt_matches_rowwise(batch):
    n = 256
    a = _random_canonical((batch, n))
    batched = transforms.ntt(a)
    for k in range(batch):
        assert np.array_equal(batched[k], transforms.ntt(a[k]))
    # lde agrees with per-row coset evaluation of the zero-padded coeffs.
    ldes = transforms.lde(a, 1)
    for k in range(batch):
        coeffs = [int(v) for v in transforms.intt(a[k])] + [0] * n
        assert [int(v) for v in ldes[k]] == _ref_forward(coeffs, gl.coset_shift())


def test_workspace_reuse_is_deterministic():
    """Re-running transforms on one workspace never changes results."""
    ws = gl64.Workspace()
    a = _random_canonical((8, 512))
    first = transforms.coset_ntt_nr(a, ws=ws)
    for _ in range(3):
        transforms.ntt(_random_canonical((8, 512)), ws=ws)  # dirty the arena
        assert np.array_equal(first, transforms.coset_ntt_nr(a, ws=ws))
    assert ws.nbytes() > 0


def test_workspace_temp_is_keyed_by_dtype():
    """One slot and shape can hold a uint64 and a float64 scratch (the
    limb GEMM's float operands live in the arena too); each is stable
    across calls and ``nbytes`` counts both."""
    ws = gl64.Workspace()
    words = ws.temp((4, 6), "slot")
    floats = ws.temp((4, 6), "slot", np.float64)
    small = ws.temp((4, 6), "slot", np.uint16)
    assert words.dtype == np.uint64 and floats.dtype == np.float64
    assert small.dtype == np.uint16
    assert not np.shares_memory(words, floats)
    assert ws.temp((4, 6), "slot") is words
    assert ws.temp((4, 6), "slot", np.float64) is floats
    assert ws.nbytes() == 4 * 6 * (8 + 8 + 2)
    ws.clear()
    assert ws.nbytes() == 0


def test_out_buffers_are_caller_owned():
    a = _random_canonical((4, 64))
    out = np.empty_like(a)
    res = transforms.ntt(a, out=out)
    assert res is out
    again = transforms.ntt(_random_canonical((4, 64)))
    assert not np.shares_memory(out, again)


def test_eval_poly_base_matches_horner_reference():
    coeffs = _random_canonical((100,))
    x = _random_canonical((2,))
    w = fext.non_residue()
    a0 = a1 = 0
    for c in [int(v) for v in coeffs][::-1]:
        a0, a1 = (
            (a0 * int(x[0]) + w * a1 * int(x[1]) + c) % gl.P,
            (a0 * int(x[1]) + a1 * int(x[0])) % gl.P,
        )
    got = fext.eval_poly_base(coeffs, x)
    assert (int(got[0]), int(got[1])) == (a0, a1)
    batched = fext.eval_polys_base(np.stack([coeffs, coeffs]), x)
    assert np.array_equal(batched[0], got)
