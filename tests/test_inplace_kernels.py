"""Property tests for the zero-copy data plane.

Every ``*_into`` kernel must be extensionally equal to its pure
counterpart (which is itself pinned to Python-int references elsewhere),
including when the output buffer exactly aliases an input, and the
in-place workspace NTT must match a straightforward Python-int radix-2
reference bit-for-bit across all layout variants.
"""

import gc
import json
import os
import subprocess
import sys
import weakref
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import protocols
from repro.context import RUN, scoped
from repro.field import extension as fext, gl64, goldilocks as gl
from repro.hashing import optimized
from repro.ntt import transforms
from repro.workloads import by_name

from . import reference_ntt

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
    for a, b in _inputs(shape):
        want = pure(a, b)
        with scoped("workspace", gl64.Workspace()):
            out = np.empty(shape, dtype=np.uint64)
            got = into(a, b, out)
            assert got is out
            assert np.array_equal(want, got)
            # Exact aliasing: out is a, then out is b.
            a2 = a.copy()
            into(a2, b, a2)
            assert np.array_equal(want, a2)
            b2 = b.copy()
            into(a, b2, b2)
            assert np.array_equal(want, b2)


def square(a):
    return gl64.mul(a, a)


@pytest.mark.parametrize("shape", [(1,), (13,), (4, 9)])
@pytest.mark.parametrize(
    "into,pure",
    [
        (gl64.square_into, square),
        (gl64.pow7_into, gl64.pow7),
    ],
)
def test_unary_into_matches_pure(shape, into, pure):
    for a, _ in _inputs(shape):
        want = pure(a)
        with scoped("workspace", gl64.Workspace()):
            out = np.empty(shape, dtype=np.uint64)
            assert np.array_equal(want, into(a, out))
            a2 = a.copy()
            into(a2, a2)  # exact alias
            assert np.array_equal(want, a2)


@pytest.mark.parametrize("dit", [False, True])
def test_butterfly_into_matches_pure(dit):
    for u, w in _inputs((32,)):
        tw = _random_canonical((32,))
        if dit:
            t = gl64.mul(w, tw)
            want_u, want_w = gl64.add(u, t), gl64.sub(u, t)
        else:
            want_u, want_w = gl64.add(u, w), gl64.mul(gl64.sub(u, w), tw)
        # The aliasing pattern the in-place NTT uses: out_u <- u, out_w <- w.
        u2, w2 = u.copy(), w.copy()
        with scoped("workspace", gl64.Workspace()):
            reference_ntt.butterfly_into(u2, w2, tw, u2, w2, dit=dit)
        assert np.array_equal(want_u, u2)
        assert np.array_equal(want_w, w2)


def test_into_kernels_accept_broadcast_operands():
    a = _random_canonical((6, 8))
    b = _random_canonical((8,))
    out = np.empty((6, 8), dtype=np.uint64)
    with scoped("workspace", gl64.Workspace()):
        assert np.array_equal(gl64.add(a, b), gl64.add_into(a, b, out))
        assert np.array_equal(gl64.mul(a, b), gl64.mul_into(a, b, out))
        s = np.uint64(12345)
        assert np.array_equal(gl64.mul(a, s), gl64.mul_into(a, s, out))


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
    idx = reference_ntt.bit_reverse_indices(log_n)
    return [values[i] for i in idx]


@pytest.mark.parametrize("log_n", range(1, 13))
def test_inplace_ntt_matches_reference(log_n):
    n = 1 << log_n
    a = _random_canonical((n,))
    ints = [int(v) for v in a]
    want_nn = _ref_forward(ints)
    assert [int(v) for v in transforms.ntt(a)] == want_nn
    assert [int(v) for v in reference_ntt.bit_reverse(a)] == _brev_perm(ints, log_n)


@pytest.mark.parametrize("log_n", [1, 2, 5, 9, 12])
def test_inplace_coset_and_inverse_round_trips(log_n):
    n = 1 << log_n
    shift = gl.coset_shift()
    a = _random_canonical((n,))
    ints = [int(v) for v in a]
    want_coset = _ref_forward(ints, shift)
    assert [int(v) for v in transforms.coset_ntt(a)] == want_coset
    # Inverses undo both transforms bit-for-bit.
    assert np.array_equal(a, transforms.intt(transforms.ntt(a)))
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
    a = _random_canonical((8, 512))
    with scoped("workspace", gl64.Workspace()) as ws:
        first = transforms.coset_ntt(a)
        for _ in range(3):
            transforms.ntt(_random_canonical((8, 512)))  # dirty the arena
            assert np.array_equal(first, transforms.coset_ntt(a))
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
    ws.close()
    assert ws.nbytes() == 0


def test_workspace_slot_is_one_buffer_whatever_its_shapes():
    """A ``(slot, dtype)`` holds one buffer, sized to its largest
    request; every shape is a cached contiguous view of its start, and
    only a larger request replaces it."""
    ws = gl64.Workspace()
    first = ws.temp((6, 6), "slot")
    shapes = [(36,), (2, 3, 6), (7,), (5, 7), (1,), (3, 4)]
    views = [ws.temp(shape, "slot") for shape in shapes]
    assert [v.shape for v in views] == shapes
    assert all(v.flags.c_contiguous and np.shares_memory(v, first) for v in views)
    assert all(ws.temp(shape, "slot") is v for shape, v in zip(shapes, views))
    assert ws.nbytes() == 8 * 36
    grown = ws.temp((40,), "slot")
    assert ws.nbytes() == 8 * 40  # the old buffer is no longer held
    assert not np.shares_memory(grown, first)
    again = ws.temp((6, 6), "slot")
    assert again is not first and np.shares_memory(again, grown)
    ws.temp((40,), "other")
    ws.temp((40,), "slot", np.float64)
    assert ws.nbytes() == 3 * 8 * 40


def test_nbytes_counts_each_buffer_once_and_plans_go_with_their_buffer():
    """Plans built on one slot share its buffer and count once; when a
    larger request replaces the buffer, the plans are dropped and the
    old memory is freed.  A buffer only a plan reaches counts like any
    other."""
    ws = gl64.Workspace()
    square = ws.plan("mul", (4, 8), gl64._mul_plan)
    assert ws.plan("mul", (4, 8), gl64._mul_plan) is square
    flat = ws.plan("mul", (32,), gl64._mul_plan)
    assert np.shares_memory(square[4], flat[4])
    assert ws.nbytes() == 8 * 8 * 32
    old = weakref.ref(square[4].base)
    del square, flat
    ws.temp((8, 64), "mul")  # replaces the buffer both plans were built on
    gc.collect()
    assert old() is None
    assert ws.nbytes() == 8 * 8 * 64
    rebuilt = ws.plan("mul", (4, 8), gl64._mul_plan)
    assert ws.nbytes() == 8 * 8 * 64 and rebuilt[4].base is ws.temp((8, 64), "mul").base
    scratch = ws.plan("permute", optimized._PERMUTE_ROWS, optimized._Scratch)
    held = sum(a.nbytes for a in (scratch.sbox, scratch.limbs, scratch.fed, scratch.acc, scratch.fold, scratch.bases))
    assert ws.nbytes() == 8 * 8 * 64 + held


def _live_workspace_bytes() -> int:
    gc.collect()
    return sum(o.nbytes() for o in gc.get_objects() if isinstance(o, gl64.Workspace))


def test_repeat_and_smaller_proves_add_no_workspace_bytes():
    """Neither a repeat prove nor a smaller one after it adds a byte to
    the thread's workspace, the one arena every kernel and stage buffer
    of a prove comes from; the smaller domain's plan holds tables only."""
    system = protocols.get("stark")
    config = system.make_config()
    with scoped("workspace", gl64.Workspace()), scoped("plans", OrderedDict()):
        big = system.setup(by_name("Fibonacci"), 10, config)
        system.verify(big, system.prove(big))
        held = [RUN.workspace]
        before = [w.nbytes() for w in held]
        system.verify(big, system.prove(big))
        assert [w.nbytes() for w in held] == before
        everywhere = _live_workspace_bytes()
        small = system.setup(by_name("Fibonacci"), 8, config)
        system.verify(small, system.prove(small))
        assert [w.nbytes() for w in held] == before
        assert _live_workspace_bytes() == everywhere  # no byte anywhere
        assert len(RUN.plans) == 2


_KERNELS = ("add", "sub", "mul", "square", "pow7", "dif", "dit")
_SHAPES = st.one_of(
    st.tuples(st.integers(1, 70)),
    st.tuples(st.integers(1, 5), st.integers(1, 20)),
    st.sampled_from([(2, 3, 4), (gl64._BLOCK + 7,), (2, gl64._BLOCK + 3)]),
)


def _run_kernel(name: str, ins: np.ndarray, ws: gl64.Workspace) -> list:
    a, b, c = ins
    out = np.empty_like(a)
    with scoped("workspace", ws):
        if name in ("add", "sub", "mul"):
            getattr(gl64, f"{name}_into")(a, b, out)
        elif name == "square":
            gl64.square_into(a, out)
        elif name == "pow7":
            gl64.pow7_into(a, out)
        else:
            out_w = np.empty_like(a)
            reference_ntt.butterfly_into(a, b, c, out, out_w, dit=name == "dit")
            return [out, out_w]
    return [out]


def _kernel_reference(name: str, ins: np.ndarray) -> list:
    a, b, c = ins.astype(object)
    want = {
        "add": lambda: [a + b],
        "sub": lambda: [a - b],
        "mul": lambda: [a * b],
        "square": lambda: [a * a],
        "pow7": lambda: [a**7],
        "dif": lambda: [a + b, (a - b) * c],
        "dit": lambda: [a + b * c, a - b * c],
    }[name]()
    return [(w % gl.P).astype(np.uint64) for w in want]


@given(st.lists(st.tuples(st.sampled_from(_KERNELS), _SHAPES, st.integers(0, 2**32)), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_one_workspace_matches_fresh_ones_on_mixed_shapes(calls):
    """Any sequence of kernels at mixed shapes on one workspace gives
    the Python-int reference, as each call does on a fresh workspace:
    no slot's reuse leaks into another call or aliases within one."""
    shared = gl64.Workspace()
    for name, shape, seed in calls:
        ins = np.random.default_rng(seed).integers(0, gl.P, size=(3,) + shape, dtype=np.uint64)
        want = _kernel_reference(name, ins)
        for ws in (shared, gl64.Workspace()):
            got = _run_kernel(name, ins, ws)
            assert all(np.array_equal(g, w) for g, w in zip(got, want)), (name, shape)


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
    with scoped("workspace", gl64.Workspace()):
        assert gl64.pow7_into(x, np.empty_like(x)).tolist() == want
    aliased = x.copy()
    assert _pow7_lazy(aliased, aliased) is aliased  # exact alias: out is x
    assert [int(v) % gl.P for v in aliased] == want
    aliased = x.copy()
    with scoped("workspace", gl64.Workspace()):
        gl64.pow7_into(aliased, aliased)
    assert aliased.tolist() == want


@given(st.lists(st.tuples(word_strategy, word_strategy), min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_mul_and_square_into_accept_any_word(pairs):
    a = np.array([p[0] for p in pairs], dtype=np.uint64)
    b = np.array([p[1] for p in pairs], dtype=np.uint64)
    out = np.empty_like(a)
    with scoped("workspace", gl64.Workspace()):
        assert gl64.mul_into(a, b, out).tolist() == [x * y % gl.P for x, y in pairs]
        assert gl64.square_into(a, out).tolist() == [x * x % gl.P for x, _ in pairs]


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
    with scoped("workspace", gl64.Workspace()):
        gl64.pow7_into(row, out)
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
    with scoped("workspace", gl64.Workspace()) as ws:
        for shape in [(3 * gl64._BLOCK + 5,), (70, 1000)]:
            a, b = _random_canonical(shape), _near_p(shape)
            want = (a.astype(object) * b.astype(object) % gl.P).astype(np.uint64)
            out = np.empty(shape, dtype=np.uint64)
            assert np.array_equal(gl64.mul_into(a, b, out), want)
            a2 = a.copy()
            gl64.mul_into(a2, b, a2)  # exact alias survives the blocking
            assert np.array_equal(a2, want)
            assert np.array_equal(
                gl64.square_into(a, out), (a.astype(object) ** 2 % gl.P).astype(np.uint64)
            )
        # Both arrays together held less than one of them would need whole.
        assert ws.nbytes() < 8 * 8 * 3 * gl64._BLOCK
    # Rows longer than a block run row by row, each cut along the row.
    a = _random_canonical((2, gl64._BLOCK + 1))
    with scoped("workspace", gl64.Workspace()):
        product = gl64.mul_into(a, a, np.empty_like(a))
    assert np.array_equal(product, gl64.square_into(a, np.empty_like(a)))


@pytest.mark.parametrize(
    "shape", [(1, 3 * gl64._BLOCK + 5), (2, 2 * gl64._BLOCK), (3, gl64._BLOCK + 1), (2, 2, gl64._BLOCK + 3)]
)
def test_short_leading_axis_multiplies_still_run_in_blocks(shape):
    """A leading axis shorter than the block count (the ``(2, 32768)``
    limb planes ``lde_coeffs`` multiplies) is cut row by row and then
    along the row: the result matches the reference and the multiply
    scratch stays at one block of 8 planes."""
    a, b = _random_canonical(shape), _near_p(shape)
    want = (a.astype(object) * b.astype(object) % gl.P).astype(np.uint64)
    square = (a.astype(object) ** 2 % gl.P).astype(np.uint64)
    with scoped("workspace", gl64.Workspace()) as ws:
        assert np.array_equal(gl64.mul_into(a, b, np.empty(shape, dtype=np.uint64)), want)
        a2 = a.copy()
        gl64.mul_into(a2, b, a2)  # exact alias survives the cut
        assert np.array_equal(a2, want)
        assert np.array_equal(gl64.square_into(a, np.empty(shape, dtype=np.uint64)), square)
    assert ws.nbytes() <= 8 * 8 * gl64._BLOCK


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
    ext = np.array([gl.P - 2, 7], dtype=np.uint64)
    assert np.array_equal(fext.mul(ext, fext.inv(ext)), fext.one())


#: Bytes held by every live ``Workspace`` after proving and verifying
#: the three bench shapes in turn (cumulative), at the commit before the
#: permutation's scratch became one arena and the multiply scratch was
#: keyed by size: the ceiling the data plane must stay under.
WORKSPACE_BYTES_BEFORE = {"stark": 31_978_488, "plonk": 64_188_136, "hyperplonk": 66_923_040}
#: The same bytes once a slot became one buffer whatever its shapes
#: (measured 7_081_408 / 9_582_656 / 10_238_016), plus 5 %.
WORKSPACE_BYTES_ONE_BUFFER_A_SLOT = {"stark": 7_435_478, "plonk": 10_061_789, "hyperplonk": 10_749_917}

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
        ceiling = WORKSPACE_BYTES_ONE_BUFFER_A_SLOT[name]
        assert held[name] <= ceiling, (name, held[name], ceiling)
