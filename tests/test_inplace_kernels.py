"""Property tests for the zero-copy data plane.

Every ``*_into`` kernel must be extensionally equal to its pure
counterpart (which is itself pinned to Python-int references elsewhere),
including when the output buffer exactly aliases an input, and the
in-place workspace NTT must match a straightforward Python-int radix-2
reference bit-for-bit across all layout variants.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# ---------------------------------------------------------------------------
# Lazy representatives: the fused S-box and the kernels around it are
# exact for *any* uint64 word, not only canonical ones.
# ---------------------------------------------------------------------------

#: Words at every boundary the limb arithmetic has.
PINNED = [0, 1, gl.P - 1, gl.P, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
word_strategy = st.one_of(
    st.sampled_from(PINNED),
    st.integers(min_value=0, max_value=gl.P - 1),
    st.integers(min_value=0, max_value=2**64 - 1),
)


def _pow7_lazy(x, out):
    """``gl64.pow7_lazy_into`` on scratch of ``x``'s shape."""
    buf = np.empty((gl64.POW7_PLANES,) + x.shape, dtype=np.uint64)
    return gl64.pow7_lazy_into(x, out, gl64.pow7_lanes(buf))


@given(st.lists(word_strategy, min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_fused_sbox_matches_python_pow_on_any_word(words):
    x = np.array(PINNED + words, dtype=np.uint64)
    want = [pow(int(v), 7, gl.P) for v in x]
    lazy = _pow7_lazy(x, np.empty_like(x))
    assert lazy.dtype == np.uint64  # below 2**64 by construction
    assert [int(v) % gl.P for v in lazy] == want
    assert gl64.pow7_into(x, np.empty_like(x), gl64.Workspace()).tolist() == want
    aliased = x.copy()
    assert _pow7_lazy(aliased, aliased) is aliased  # exact alias: out is x
    assert [int(v) % gl.P for v in aliased] == want
    aliased = x.copy()
    gl64.pow7_into(aliased, aliased, gl64.Workspace())
    assert aliased.tolist() == want


@given(st.lists(st.tuples(word_strategy, word_strategy), min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_mul_and_square_into_accept_any_word(pairs):
    a = np.array([p[0] for p in pairs], dtype=np.uint64)
    b = np.array([p[1] for p in pairs], dtype=np.uint64)
    ws = gl64.Workspace()
    out = np.empty_like(a)
    assert gl64.mul_into(a, b, out, ws).tolist() == [x * y % gl.P for x, y in pairs]
    assert gl64.square_into(a, out, ws).tolist() == [x * x % gl.P for x, _ in pairs]


def test_fused_sbox_on_strided_lane_and_broadcast_input():
    states = RNG.integers(0, 2**64, size=(37, 12), dtype=np.uint64)
    states[: len(PINNED), 0] = PINNED
    want = [pow(int(v), 7, gl.P) for v in states[:, 0]]
    rest = states[:, 1:].copy()
    lane0 = states[:, 0]  # stride 96 bytes, in and out
    _pow7_lazy(lane0, lane0)
    assert [int(v) % gl.P for v in states[:, 0]] == want
    assert np.array_equal(states[:, 1:], rest)  # neighbours untouched
    # A broadcast (stride-0) input, as the public wrapper builds one.
    row = np.array(PINNED, dtype=np.uint64)
    out = np.empty((5, len(PINNED)), dtype=np.uint64)
    gl64.pow7_into(row, out, gl64.Workspace())
    assert out.tolist() == [[pow(v, 7, gl.P) for v in PINNED]] * 5


def test_lazy_add_and_canonical_into():
    a = np.array(PINNED * len(PINNED), dtype=np.uint64)
    b = np.repeat(np.array(PINNED, dtype=np.uint64), len(PINNED))
    keep = (b < np.uint64(gl.P)) | (b < np.uint64(2**63))  # the contract on b
    a, b = a[keep], b[keep]
    s = np.empty_like(a)
    got = gl64.add_lazy_into(a, b, np.empty_like(a), s)
    assert [int(v) % gl.P for v in got] == [(int(x) + int(y)) % gl.P for x, y in zip(a, b)]
    assert gl64.canonical_into(a, np.empty_like(a), s).tolist() == [int(v) % gl.P for v in a]
    aliased = a.copy()
    gl64.canonical_into(aliased, aliased, s)
    assert aliased.tolist() == [int(v) % gl.P for v in a]


def test_large_multiplies_run_in_blocks_with_bounded_scratch():
    """Past ``_BLOCK`` elements mul/square cut the leading axis; the
    result is the same and the scratch does not grow with the array."""
    ws = gl64.Workspace()
    for shape in [(3 * gl64._BLOCK + 5,), (70, 1000)]:
        a, b = _random_canonical(shape), _near_p(shape)
        want = (a.astype(object) * b.astype(object) % gl.P).astype(np.uint64)
        out = np.empty(shape, dtype=np.uint64)
        assert np.array_equal(gl64.mul_into(a, b, out, ws), want)
        a2 = a.copy()
        gl64.mul_into(a2, b, a2, ws)  # exact alias survives the blocking
        assert np.array_equal(a2, want)
        assert np.array_equal(
            gl64.square_into(a, out, ws), (a.astype(object) ** 2 % gl.P).astype(np.uint64)
        )
    # Both arrays together held less than one of them would need whole.
    assert ws.nbytes() < 8 * 8 * 3 * gl64._BLOCK
    # Rows longer than a block cannot be cut and run whole.
    a = _random_canonical((2, gl64._BLOCK + 1))
    assert np.array_equal(gl64.mul_into(a, a, np.empty_like(a), ws), gl64.square(a))


def test_single_element_inverse_and_scalars_take_python_ints():
    for value in (1, 2, gl.P - 1, 2**32):
        want = pow(value, gl.P - 2, gl.P)
        for arr in (np.uint64(value), np.array([value], dtype=np.uint64),
                    np.array([[value]], dtype=np.uint64)):
            got = gl64.inv_fast(arr)
            assert np.shape(got) == np.shape(arr) and int(np.ravel(got)[0]) == want
    for zero in (np.uint64(0), np.zeros(1, dtype=np.uint64)):
        with pytest.raises(ZeroDivisionError):
            gl64.inv_fast(zero)
    x, y = np.uint64(gl.P - 1), np.uint64(2**63)
    assert int(gl64.mul(x, y)) == (gl.P - 1) * 2**63 % gl.P
    assert int(gl64.add(x, y)) == (gl.P - 1 + 2**63) % gl.P
    assert int(gl64.sub(y, x)) == (2**63 - gl.P + 1) % gl.P
    assert int(gl64.pow7(x)) == pow(gl.P - 1, 7, gl.P)
    assert int(gl64.pow_scalar(y, 12345)) == pow(2**63, 12345, gl.P)
    ext = np.array([gl.P - 2, 7], dtype=np.uint64)
    assert np.array_equal(fext.mul(ext, fext.inv(ext)), fext.one())


#: Bytes held by every live ``Workspace`` after proving and verifying
#: the three bench shapes in turn (cumulative), at the commit before the
#: permutation's scratch became one arena and the multiply scratch was
#: keyed by size: the ceiling the data plane must stay under.
WORKSPACE_BYTES_BEFORE = {"stark": 31_978_488, "plonk": 64_188_136, "hyperplonk": 66_923_040}

_WORKSPACE_SCRIPT = """
import gc, json
from repro import protocols
from repro.field import gl64
from repro.workloads import by_name

held = {}
for name, workload, scale in (("stark", "Fibonacci", 12), ("plonk", "MVM", 11),
                              ("hyperplonk", "MVM", 45)):
    system = protocols.get(name)
    setup = system.setup(by_name(workload), scale, system.make_config())
    system.verify(setup, system.prove(setup))
    held[name] = sum(o.nbytes() for o in gc.get_objects() if isinstance(o, gl64.Workspace))
print(json.dumps(held))
"""


def test_workspaces_hold_no_more_than_before_at_bench_shapes():
    done = subprocess.run(
        [sys.executable, "-c", _WORKSPACE_SCRIPT],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )
    assert done.returncode == 0, done.stderr
    held = json.loads(done.stdout)
    assert set(held) == set(WORKSPACE_BYTES_BEFORE)
    for name, before in WORKSPACE_BYTES_BEFORE.items():
        assert 0 < held[name] <= before, (name, held[name], before)
