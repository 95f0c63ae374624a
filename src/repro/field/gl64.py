"""Vectorised Goldilocks arithmetic on NumPy ``uint64`` arrays.

Every protocol-side bulk computation (NTT butterflies, Poseidon rounds,
FRI folds, quotient evaluation) runs through these kernels.  All inputs
and outputs are canonical (``< p``) ``uint64`` arrays; the functions
broadcast like ordinary NumPy ufuncs.

The multiplication uses 32-bit limb decomposition so that every partial
product fits in a ``uint64``, followed by the standard Goldilocks
reduction based on ``2**64 = 2**32 - 1 (mod p)`` and
``2**96 = -1 (mod p)``.  NumPy's unsigned wrap-around semantics stand in
for hardware carries, which is exactly the arithmetic a UniZK PE
implements in silicon.

Lazy representatives: the kernels with ``lazy`` in their name
(:func:`pow7_lazy_into`, :func:`add_lazy_into`) accept and return *any*
``uint64`` congruent to the value mod p and skip the canonicalising
passes; only the batched Poseidon permutation chains them, and it ends
in :func:`canonical_into`.  Everything else returns canonical words.

Zero-copy data plane
--------------------

The prover hot path goes through the ``*_into`` kernels
(:func:`add_into`, :func:`sub_into`, :func:`mul_into`,
:func:`butterfly_into`, ...), which write into caller-provided output
buffers and draw every intermediate from the calling thread's
:class:`Workspace` arena (``RUN.workspace``; a caller isolates one with
``repro.context.scoped("workspace", Workspace())``) instead of
allocating ~8 fresh temporaries per multiply.  The
pure functions (:func:`add`, :func:`mul`, ...) are thin wrappers that
allocate only the output (a single element takes Python ints instead:
a 0-d NumPy call costs more than the arithmetic).

Aliasing rule: ``out`` may alias an input *exactly* (same array /
view), because every kernel reads its inputs before its first write to
``out``; partially overlapping views are undefined behaviour.  Scratch
buffers handed out by a :class:`Workspace` are only valid until the
next kernel call on the same workspace slot.
"""

from __future__ import annotations

import sys
from typing import Union

import numpy as np

from ..context import RUN, Workspace
from . import goldilocks as gl


def operand(value: int, dtype=np.uint64) -> np.ndarray:
    """``value`` as a read-only 0-d array, the cheapest constant a ufunc
    can take: 0.32-0.35 us a call against 0.48-0.50 us for a NumPy
    scalar (EXPERIMENTS.md "Poseidon at the dispatch floor")."""
    arr = np.array(value, dtype=dtype)
    arr.flags.writeable = False
    return arr


#: Goldilocks prime as a 0-d ``uint64`` array.
P = operand(gl.P)
#: ``2**64 mod p`` as a 0-d ``uint64`` array.
EPSILON = operand(gl.EPSILON)
_MASK32 = operand(0xFFFF_FFFF)
_U32 = operand(32)
_ZERO = operand(0)

GlArray = np.ndarray
ArrayLike = Union[np.ndarray, int]


def _bcast(a: np.ndarray, shape) -> np.ndarray:
    return a if a.shape == shape else np.broadcast_to(a, shape)


# ---------------------------------------------------------------------------
# Basic coercions
# ---------------------------------------------------------------------------


def asarray(values, trusted: bool = False) -> GlArray:
    """Coerce ``values`` (ints / lists / arrays) to a canonical GL array.

    ``trusted=True`` skips the full canonicality scan (``(arr >= P)``
    plus ``np.mod``) -- the hot paths pass arrays that are canonical by
    construction, and the scan costs two full passes over the data.
    """
    arr = np.asarray(values, dtype=np.uint64)
    if trusted:
        return arr
    if arr.size and bool((arr >= P).any()):
        arr = np.mod(arr, P)
    return arr


def all_canonical(*values) -> bool:
    """Whether every word of ``values`` -- arrays, ints, or sequences of
    them -- is a canonical field element: an integer in ``[0, p)``.

    The verifiers' canonical-word contract.  A word ``v + p`` reads as
    ``v`` to the Merkle leaf hash, the transcript and the arithmetic
    alike, so a verifier that took it would accept a second encoding of
    one proof; every protocol verifier refuses it first.  One
    concatenation and one compare for the lot; a value that is not an
    integer below ``2**64`` is not canonical either.
    """
    try:
        words = np.concatenate([np.asarray(v, dtype=np.uint64).reshape(-1) for v in values])
    except (TypeError, ValueError, OverflowError):
        return not values  # no values at all: vacuously canonical
    return not words.size or bool(words.max() < P)


def zeros(shape) -> GlArray:
    """Return a zero-filled GL array."""
    return np.zeros(shape, dtype=np.uint64)


def ones(shape) -> GlArray:
    """Return a one-filled GL array."""
    return np.ones(shape, dtype=np.uint64)


def freeze(*arrays: np.ndarray) -> None:
    """Flag shared arrays read-only, so a stray write raises
    ``ValueError`` instead of corrupting every later reader."""
    for arr in arrays:
        arr.flags.writeable = False


# ---------------------------------------------------------------------------
# In-place kernels
# ---------------------------------------------------------------------------


def add_into(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out <- a + b (mod p)`` for canonical inputs; ``out`` may alias."""
    shape = out.shape
    a = _bcast(np.asarray(a, dtype=np.uint64), shape)
    b = _bcast(np.asarray(b, dtype=np.uint64), shape)
    s = RUN.workspace.temp((2,) + shape, "add")
    s0, s1 = s[0], s[1]
    np.add(a, b, out=s0)
    np.less(s0, a, out=s1, casting="unsafe")  # wrapped past 2**64?
    np.multiply(s1, EPSILON, out=s1)
    np.add(s0, s1, out=s0)
    np.greater_equal(s0, P, out=s1, casting="unsafe")
    np.multiply(s1, P, out=s1)
    np.subtract(s0, s1, out=out)
    return out


def sub_into(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out <- a - b (mod p)`` for canonical inputs; ``out`` may alias."""
    shape = out.shape
    a = _bcast(np.asarray(a, dtype=np.uint64), shape)
    b = _bcast(np.asarray(b, dtype=np.uint64), shape)
    s0 = RUN.workspace.temp(shape, "sub")
    np.less(a, b, out=s0, casting="unsafe")  # borrow
    np.multiply(s0, EPSILON, out=s0)
    np.subtract(a, b, out=out)
    np.subtract(out, s0, out=out)
    return out


def _mul_lanes(a2: np.ndarray, b2: np.ndarray, prod: np.ndarray, sh: np.ndarray) -> tuple:
    """The views one :func:`_mul_lazy_into` runs on, sliced once.

    ``a2`` / ``b2`` are the operands' ``(lo, hi)`` limb planes, shaped
    ``(2, 1) + ...`` and ``(1, 2) + ...`` so that one broadcast multiply
    fills ``prod`` -- ``(2, 2) + shape``, ``[a limb, b limb]`` -- with
    all four limb products; ``sh`` is ``(2,) + shape`` scratch that may
    overlap the limb planes (they are dead once ``prod`` is written).
    """
    (ll, lh), (hl, hh) = prod
    return a2, b2, prod, prod[0], sh, sh[0], sh[1], ll, lh, hl, hh


def _mul_lazy_into(a: np.ndarray, b: np.ndarray, lanes: tuple, out: np.ndarray) -> None:
    """``out <- `` some ``uint64`` congruent to ``a * b`` (mod p), exact
    for any 64-bit ``a`` and ``b`` whose 32-bit limbs ``lanes``
    (:func:`_mul_lanes`) already holds; *not* canonical.

    The 128-bit product comes without a comparison (a compare into
    ``uint64`` costs ~2.5 plain passes): ``cross = (ll >> 32) +
    (lh & M) + hl`` cannot wrap (``(2**32-1)**2 + 2 * (2**32-1) <
    2**64``), the high word is ``hh + (lh >> 32) + (cross >> 32)`` and
    the low word is the wrapping ``a * b``.  With ``2**96 = -1`` and
    ``2**64 = EPSILON`` the value is ``lo - hi_hi + hi_lo * EPSILON``;
    both wrapping steps are fixed in one go, ``r + (carry - borrow) *
    EPSILON``, and neither fix can wrap again: a carried ``r`` is below
    ``2**64 - 2**33`` and a borrowed one at least ``2**64 - 2**32``.

    Aliasing: ``out`` may alias ``a`` or ``b`` exactly, or any scratch
    lane (it is written by the last pass).
    """
    a2, b2, prod, low, sh, cross, top, ll, lh, hl, hh = lanes
    np.multiply(a2, b2, prod)  # [[ll, lh], [hl, hh]]
    np.right_shift(low, _U32, sh)  # [cross, top] = [ll >> 32, lh >> 32]
    np.bitwise_and(lh, _MASK32, lh)
    np.add(cross, lh, cross)
    np.add(cross, hl, cross)
    np.right_shift(cross, _U32, cross)
    np.add(hh, top, hh)
    np.add(hh, cross, hh)  # high word
    np.multiply(a, b, ll)  # low word
    np.right_shift(hh, _U32, lh)  # hi_hi
    np.bitwise_and(hh, _MASK32, hh)
    np.multiply(hh, EPSILON, hh)  # t1 = hi_lo * EPSILON
    np.less(ll, lh, hl, casting="unsafe")  # borrow of lo - hi_hi
    np.subtract(ll, lh, ll)
    np.add(ll, hh, ll)  # r = lo - hi_hi + t1  (wraps)
    np.less(ll, hh, lh, casting="unsafe")  # carry
    np.subtract(lh, hl, lh)
    np.multiply(lh, EPSILON, lh)
    np.add(ll, lh, out)


def canonical_into(a: np.ndarray, out: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``out <- a mod p`` for any ``uint64`` ``a`` (one conditional
    subtraction: ``2**64 < 2 p``); ``s`` is a scratch array of the
    shape.  ``out`` may alias ``a`` exactly."""
    np.greater_equal(a, P, s, casting="unsafe")
    np.multiply(s, P, s)
    np.subtract(a, s, out)
    return out


def add_lazy_into(a: np.ndarray, b: np.ndarray, out: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``out <- `` some ``uint64`` congruent to ``a + b`` (mod p), for
    any ``a`` and a ``b`` that is canonical or below ``2**63``; ``s``
    is a scratch array of the shape.  A wrapped sum is then below
    ``2**64 - 2**32``, so adding ``EPSILON`` for the lost ``2**64``
    cannot wrap again.  ``out`` may alias ``a`` or ``b`` exactly."""
    np.add(a, b, s)
    np.less(s, b, out, casting="unsafe")
    np.multiply(out, EPSILON, out)
    np.add(s, out, out)
    return out


#: Elements per pass of :func:`mul_into` / :func:`square_into`: larger
#: outputs are cut into runs of leading rows -- or, when one row is
#: already larger, row by row and then along the row -- so the 8 scratch
#: planes stay inside L2 (1 MiB) whatever the array's size -- measured
#: 12-13 ns an element in 8k-32k blocks against 21 ns for 2**18 elements
#: whole.
_BLOCK = 1 << 14


def _mul_plan(ws: Workspace, shape: tuple) -> tuple:
    """``(a (lo, hi), b (lo, hi), mul lanes, square lanes, result,
    spare)`` over one 8-plane scratch block for :func:`mul_into` /
    :func:`square_into` on ``shape``."""
    buf = ws.temp((8,) + shape, "mul")
    a_limbs, b_limbs = buf[:2], buf[2:4]
    prod = buf[4:].reshape((2, 2) + shape)
    return (
        tuple(a_limbs),
        tuple(b_limbs),
        _mul_lanes(a_limbs[:, None], b_limbs[None], prod, a_limbs),
        _mul_lanes(a_limbs[:, None], a_limbs[None], prod, b_limbs),
        b_limbs[0],
        b_limbs[1],
    )


def mul_into(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out <- a * b (mod p)``, canonical, for any ``uint64`` inputs;
    ``out`` may alias an input exactly.  The limb decomposition runs
    inside one workspace scratch block (:func:`_mul_plan`)."""
    shape = out.shape
    a = _bcast(np.asarray(a, dtype=np.uint64), shape)
    b = _bcast(np.asarray(b, dtype=np.uint64), shape)
    if out.size > _BLOCK:
        step = _BLOCK * shape[0] // out.size
        for i in range(0, shape[0], step or 1):
            cut = slice(i, i + step) if step else i
            mul_into(a[cut], b[cut], out[cut])
        return out
    planned = RUN.workspace.plan("mul", shape, _mul_plan)
    (a_lo, a_hi), (b_lo, b_hi), lanes, _, res, spare = planned
    np.bitwise_and(a, _MASK32, a_lo)
    np.right_shift(a, _U32, a_hi)
    np.bitwise_and(b, _MASK32, b_lo)
    np.right_shift(b, _U32, b_hi)
    _mul_lazy_into(a, b, lanes, res)
    return canonical_into(res, out, spare)


def square_into(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out <- a**2 (mod p)``; saves two limb splits over mul.

    ``out`` may alias ``a`` exactly: ``a`` is consumed into workspace
    limb temps before the first write to ``out``.
    """
    shape = out.shape
    a = _bcast(np.asarray(a, dtype=np.uint64), shape)
    if out.size > _BLOCK:
        step = _BLOCK * shape[0] // out.size
        for i in range(0, shape[0], step or 1):
            cut = slice(i, i + step) if step else i
            square_into(a[cut], out[cut])
        return out
    planned = RUN.workspace.plan("mul", shape, _mul_plan)
    (a_lo, a_hi), _, _, lanes, res, spare = planned
    np.bitwise_and(a, _MASK32, a_lo)
    np.right_shift(a, _U32, a_hi)
    _mul_lazy_into(a, a, lanes, res)
    return canonical_into(res, out, spare)


#: Scratch planes (arrays of the operand's shape) of one fused S-box.
POW7_PLANES = 14


def pow7_lanes(buf: np.ndarray) -> tuple:
    """The views :func:`pow7_lazy_into` runs on, sliced once from a
    contiguous ``(POW7_PLANES,) + shape`` scratch array: 4 planes of limbs
    ``[operand, limb]``, 2 of words and 8 of limb products ``[a limb,
    b limb, operand]``.  Every view a pass writes is contiguous (NumPy
    runs a non-contiguous operand through its general iterator, at
    ~3x the cost of a call on small arrays), so the one-operand
    products use the first four product planes as their own block."""
    shape = buf.shape[1:]
    limbs = buf[:4].reshape((2, 2) + shape)
    words = buf[4:6]
    prod = buf[6:].reshape((2, 2, 2) + shape)
    prod1 = buf[6:10].reshape((2, 2) + shape)
    # The words' 32-bit halves as [operand, limb] planes: one casting
    # copy splits both limbs of both words.
    halves = np.moveaxis(words.view(np.uint32).reshape((2,) + shape + (2,)), -1, 1)
    if sys.byteorder != "little":
        halves = halves[:, ::-1]
    x_limbs, y_limbs = limbs
    return (
        x_limbs[0], x_limbs[1], words[0], words[1], words, y_limbs, halves[1], limbs, halves,
        _mul_lanes(x_limbs[:, None], x_limbs[None], prod1, y_limbs),
        _mul_lanes(y_limbs[:, None, None], np.moveaxis(limbs, 0, 1)[None], prod, limbs),
        _mul_lanes(x_limbs[:, None], y_limbs[None], prod1, y_limbs),
    )


def pow7_lazy_into(x: np.ndarray, out: np.ndarray, lanes: tuple) -> np.ndarray:
    """``out <- `` some ``uint64`` congruent to ``x**7`` (mod p), for
    any ``uint64`` ``x``: the Poseidon S-box as one kernel of three
    products -- ``x**2``; then ``[x**3, x**4] = x**2 * [x, x**2]`` as
    one stacked product; then ``x**7 = x**3 * x**4`` -- that split
    limbs once per word and never canonicalise
    (:func:`_mul_lazy_into`).

    ``lanes`` is :func:`pow7_lanes` of a ``(POW7_PLANES,) + x.shape`` scratch.
    ``out`` may alias ``x`` exactly (``x`` is read by the first product
    only, ``out`` written by the last pass) and either may be strided.
    """
    x_lo, x_hi, w0, w1, w, y_limbs, w1_halves, limbs, halves, first, second, third = lanes
    np.bitwise_and(x, _MASK32, x_lo)
    np.right_shift(x, _U32, x_hi)
    np.copyto(w0, x)
    _mul_lazy_into(x, x, first, w1)  # x^2
    np.copyto(y_limbs, w1_halves)
    _mul_lazy_into(w1, w, second, w)  # [x^3, x^4]
    np.copyto(limbs, halves)
    _mul_lazy_into(w0, w1, third, out)
    return out


def pow7_into(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out <- a**7 (mod p)`` (Poseidon S-box), canonical, for any
    ``uint64`` input; ``out`` may alias ``a`` exactly."""
    shape = out.shape
    a = _bcast(np.asarray(a, dtype=np.uint64), shape)
    lanes = RUN.workspace.plan("pow7", shape, _pow7_plan)
    pow7_lazy_into(a, out, lanes)
    return canonical_into(out, out, lanes[2])  # a word plane, dead by now


def _pow7_plan(ws: Workspace, shape: tuple) -> tuple:
    """:func:`pow7_lanes` over a workspace scratch block for ``shape``."""
    return pow7_lanes(ws.temp((POW7_PLANES,) + shape, "pow7"))


def butterfly_into(
    u: np.ndarray,
    w: np.ndarray,
    tw: np.ndarray,
    out_u: np.ndarray,
    out_w: np.ndarray,
    dit: bool = False,
) -> None:
    """One radix-2 NTT butterfly layer, written into caller buffers.

    DIF (``dit=False``): ``out_u <- u + w``, ``out_w <- (u - w) * tw``.
    DIT (``dit=True``):  ``t <- w * tw``; ``out_u <- u + t``,
    ``out_w <- u - t``.

    ``out_u`` may alias ``u`` and ``out_w`` may alias ``w`` (the
    in-place NTT passes exactly those views); other aliasings are
    undefined.
    """
    s0 = RUN.workspace.temp(out_w.shape, "bfly")
    if not dit:
        sub_into(u, w, s0)
        add_into(u, w, out_u)  # reads u/w fully before writing out_u
        mul_into(s0, tw, out_w)
    else:
        mul_into(w, tw, s0)  # t = w * tw
        sub_into(u, s0, out_w)  # u still intact (sub writes out_w only)
        add_into(u, s0, out_u)
    return None


# ---------------------------------------------------------------------------
# Pure (allocating) wrappers
# ---------------------------------------------------------------------------


def add(a: ArrayLike, b: ArrayLike) -> GlArray:
    """Elementwise ``a + b (mod p)`` for canonical inputs."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    shape = np.broadcast_shapes(a.shape, b.shape)
    if shape == ():  # one element: Python ints beat ~10 0-d NumPy calls
        return np.uint64(gl.add(int(a), int(b)))
    out = np.empty(shape, dtype=np.uint64)
    return add_into(a, b, out)


def sub(a: ArrayLike, b: ArrayLike) -> GlArray:
    """Elementwise ``a - b (mod p)`` for canonical inputs."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    shape = np.broadcast_shapes(a.shape, b.shape)
    if shape == ():
        return np.uint64(gl.sub(int(a), int(b)))
    out = np.empty(shape, dtype=np.uint64)
    return sub_into(a, b, out)


def neg(a: ArrayLike) -> GlArray:
    """Elementwise ``-a (mod p)``."""
    a = np.asarray(a, dtype=np.uint64)
    return np.where(a == _ZERO, _ZERO, P - a)


def mul(a: ArrayLike, b: ArrayLike) -> GlArray:
    """Elementwise ``a * b (mod p)``."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    shape = np.broadcast_shapes(a.shape, b.shape)
    if shape == ():
        return np.uint64(gl.mul(int(a), int(b)))
    out = np.empty(shape, dtype=np.uint64)
    return mul_into(a, b, out)


def pow7(a: ArrayLike) -> GlArray:
    """Elementwise ``a**7``, the Poseidon S-box (4 multiplications)."""
    a = np.asarray(a, dtype=np.uint64)
    if a.shape == ():
        return np.uint64(gl.pow_mod(int(a), 7))
    out = np.empty(a.shape, dtype=np.uint64)
    return pow7_into(a, out)


def inv_fast(a: ArrayLike) -> GlArray:
    """Elementwise inverse by Montgomery's trick as a vectorised product
    tree: ``3 n`` multiplies and one Python-int inverse for ``n``
    elements, where raising the array to ``p - 2`` took ~127 n.

    The elements, padded with ones to a power of two, are multiplied
    pairwise -- each level's first half by its second -- up to the one
    product of them all; that is inverted, and going back down a level's
    inverses are its parent's times the pair's other half.  Every level
    is contiguous in one workspace buffer, so each step is a
    :func:`mul_into`.  Any ``uint64`` representatives, any strides; the
    input is left unmodified and the result is a fresh canonical array
    of its shape.  Raises :class:`ZeroDivisionError` if any element is
    zero (the root is zero exactly then).
    """
    a = np.asarray(a, dtype=np.uint64)
    if a.size == 0:
        return a.copy()
    if a.size == 1:  # 12 us of Python-int pow against ~100 NumPy calls
        return np.full(a.shape, gl.inverse(int(a.reshape(()))), dtype=np.uint64)[()]
    size = 1 << (a.size - 1).bit_length()
    # Level k (size >> k products) starts at 2 * size - (2 * size >> k).
    up, down = RUN.workspace.temp((2, 2 * size), "inv")
    np.copyto(up[: a.size].reshape(a.shape), a)
    up[a.size : size] = 1
    lo, n = 0, size
    while n > 1:
        half = n // 2
        mul_into(up[lo : lo + half], up[lo + half : lo + n], up[lo + n : lo + n + half])
        lo, n = lo + n, half
    down[lo] = gl.inverse(int(up[lo]))
    while lo:
        parent = down[lo : lo + n]
        lo, n = lo - 2 * n, 2 * n
        half = n // 2
        mul_into(parent, up[lo + half : lo + n], down[lo : lo + half])
        mul_into(parent, up[lo : lo + half], down[lo + half : lo + n])
    return down[: a.size].reshape(a.shape).copy()


def powers(base: int, count: int) -> GlArray:
    """Return ``[1, base, base**2, ..., base**(count-1)]``.

    Built by doubling (log-steps of vectorised multiplies) rather than a
    Python loop, mirroring the on-chip twiddle generator's strategy.
    """
    if count <= 0:
        return zeros(0)
    out = np.empty(count, dtype=np.uint64)
    out[0] = np.uint64(1)
    filled = 1
    step = np.uint64(base % gl.P)
    while filled < count:
        take = min(filled, count - filled)
        mul_into(out[:take], step, out[filled : filled + take])
        filled += take
        step = np.uint64(gl.mul(int(step), int(step)))
    return out


def sum_along_axis(a: GlArray, axis: int = -1) -> GlArray:
    """Field-sum along one axis via pairwise tree reduction.

    Only ``O(log n)`` vectorised :func:`add` calls, so summing a
    ``(batch, 12, 12)`` tensor costs ~4 NumPy kernels -- this keeps the
    batched Poseidon MDS multiply fast.
    """
    a = np.asarray(a, dtype=np.uint64)
    a = np.moveaxis(a, axis, -1)
    while a.shape[-1] > 1:
        half = a.shape[-1] // 2
        merged = add(a[..., :half], a[..., half : 2 * half])
        if a.shape[-1] % 2:
            merged = np.concatenate([merged, a[..., -1:]], axis=-1)
        a = merged
    return a[..., 0]


def sum_array(a: GlArray) -> np.uint64:
    """Sum all elements of ``a`` in the field (tree reduction)."""
    flat = np.ascontiguousarray(a).reshape(-1)
    while flat.size > 1:
        half = flat.size // 2
        low = flat[:half]
        high = flat[half : 2 * half]
        merged = add(low, high)
        if flat.size % 2:
            merged = np.concatenate([merged, flat[-1:]])
        flat = merged
    return np.uint64(flat[0]) if flat.size else np.uint64(0)


def random(shape, rng) -> GlArray:
    """Uniform random canonical field elements (``rng``: numpy Generator)."""
    raw = rng.integers(0, gl.P, size=shape, dtype=np.uint64)
    return raw
