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

Zero-copy data plane
--------------------

The prover hot path goes through the ``*_into`` kernels
(:func:`add_into`, :func:`sub_into`, :func:`mul_into`,
:func:`butterfly_into`, ...), which write into caller-provided output
buffers and draw every intermediate from a reusable :class:`Workspace`
arena instead of allocating ~8 fresh temporaries per multiply.  The
pure functions (:func:`add`, :func:`mul`, ...) are thin wrappers that
allocate only the output.

Aliasing rule: ``out`` may alias an input *exactly* (same array /
view), because every kernel reads its inputs before its first write to
``out``; partially overlapping views are undefined behaviour.  Scratch
buffers handed out by a :class:`Workspace` are only valid until the
next kernel call on the same workspace slot.
"""

from __future__ import annotations

import threading
from typing import Tuple, Union

import numpy as np

from . import goldilocks as gl

#: Goldilocks prime as a ``uint64`` scalar.
P = np.uint64(gl.P)
#: ``2**64 mod p`` as a ``uint64`` scalar.
EPSILON = np.uint64(gl.EPSILON)
_MASK32 = np.uint64(0xFFFF_FFFF)
_U32 = np.uint64(32)
_ZERO = np.uint64(0)

GlArray = np.ndarray
ArrayLike = Union[np.ndarray, int]


# ---------------------------------------------------------------------------
# Workspace arena
# ---------------------------------------------------------------------------


class Workspace:
    """A pool of reusable scratch arrays for the in-place kernels.

    Buffers are keyed by ``(slot, shape, dtype)`` so each call site gets stable
    storage that is reused on the next call with the same shape -- the
    software analogue of the fixed SRAM scratchpads a UniZK PE cluster
    cycles through.  A workspace is *not* thread-safe; each proving
    thread uses its own (see :func:`default_workspace`).
    """

    __slots__ = ("_bufs",)

    def __init__(self) -> None:
        self._bufs: dict = {}

    def temp(self, shape, slot: str, dtype=np.uint64) -> np.ndarray:
        """Return a reusable scratch array of ``shape`` (uint64 unless
        ``dtype`` says otherwise -- the limb GEMM keeps float64 there).

        Contents are unspecified; the same ``(slot, shape, dtype)``
        always returns the same storage.
        """
        key = (slot, shape, dtype)
        buf = self._bufs.get(key)
        if buf is None:
            buf = self._bufs[key] = np.empty(shape, dtype=dtype)
        return buf

    def nbytes(self) -> int:
        """Total bytes currently held by the arena (for introspection)."""
        return sum(b.nbytes for b in self._bufs.values())

    def clear(self) -> None:
        """Drop every buffer (frees memory; next calls re-allocate)."""
        self._bufs.clear()


_TLS = threading.local()


def default_workspace() -> Workspace:
    """The calling thread's shared kernel workspace."""
    ws = getattr(_TLS, "ws", None)
    if ws is None:
        ws = _TLS.ws = Workspace()
    return ws


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


def zeros(shape) -> GlArray:
    """Return a zero-filled GL array."""
    return np.zeros(shape, dtype=np.uint64)


def ones(shape) -> GlArray:
    """Return a one-filled GL array."""
    return np.ones(shape, dtype=np.uint64)


# ---------------------------------------------------------------------------
# In-place kernels
# ---------------------------------------------------------------------------


def add_into(a: np.ndarray, b: np.ndarray, out: np.ndarray, ws: Workspace | None = None) -> np.ndarray:
    """``out <- a + b (mod p)`` for canonical inputs; ``out`` may alias."""
    ws = ws or default_workspace()
    shape = out.shape
    a = _bcast(np.asarray(a, dtype=np.uint64), shape)
    b = _bcast(np.asarray(b, dtype=np.uint64), shape)
    s = ws.temp((2,) + shape, "add")
    s0, s1 = s[0], s[1]
    np.add(a, b, out=s0)
    np.less(s0, a, out=s1, casting="unsafe")  # wrapped past 2**64?
    np.multiply(s1, EPSILON, out=s1)
    np.add(s0, s1, out=s0)
    np.greater_equal(s0, P, out=s1, casting="unsafe")
    np.multiply(s1, P, out=s1)
    np.subtract(s0, s1, out=out)
    return out


def sub_into(a: np.ndarray, b: np.ndarray, out: np.ndarray, ws: Workspace | None = None) -> np.ndarray:
    """``out <- a - b (mod p)`` for canonical inputs; ``out`` may alias."""
    ws = ws or default_workspace()
    shape = out.shape
    a = _bcast(np.asarray(a, dtype=np.uint64), shape)
    b = _bcast(np.asarray(b, dtype=np.uint64), shape)
    s0 = ws.temp(shape, "sub")
    np.less(a, b, out=s0, casting="unsafe")  # borrow
    np.multiply(s0, EPSILON, out=s0)
    np.subtract(a, b, out=out)
    np.subtract(out, s0, out=out)
    return out


def neg_into(a: np.ndarray, out: np.ndarray, ws: Workspace | None = None) -> np.ndarray:
    """``out <- -a (mod p)``; ``out`` may alias ``a``."""
    ws = ws or default_workspace()
    shape = out.shape
    a = _bcast(np.asarray(a, dtype=np.uint64), shape)
    s0 = ws.temp(shape, "neg")
    np.not_equal(a, _ZERO, out=s0, casting="unsafe")  # 1 where a != 0
    np.subtract(P, a, out=out)
    np.multiply(out, s0, out=out)  # -0 stays 0 instead of p
    return out


def mul_into(a: np.ndarray, b: np.ndarray, out: np.ndarray, ws: Workspace | None = None) -> np.ndarray:
    """``out <- a * b (mod p)``; ``out`` may alias an input exactly.

    The 32-bit limb decomposition runs entirely inside one workspace
    scratch block (5 lanes), replacing the ~8 fresh temporaries the
    pure :func:`mul` used to allocate per call.
    """
    ws = ws or default_workspace()
    shape = out.shape
    a = _bcast(np.asarray(a, dtype=np.uint64), shape)
    b = _bcast(np.asarray(b, dtype=np.uint64), shape)
    m = ws.temp((5,) + shape, "mul")
    m0, m1, m2, m3, m4 = m[0], m[1], m[2], m[3], m[4]

    np.right_shift(a, _U32, out=m0)  # a_hi
    np.bitwise_and(a, _MASK32, out=m1)  # a_lo
    np.right_shift(b, _U32, out=m2)  # b_hi
    np.bitwise_and(b, _MASK32, out=m3)  # b_lo
    # a and b are dead from here on, so an exactly-aliased `out` is safe.
    np.multiply(m0, m3, out=m4)  # hl = a_hi * b_lo
    np.multiply(m0, m2, out=m0)  # hh = a_hi * b_hi
    np.multiply(m1, m2, out=m2)  # lh = a_lo * b_hi
    np.multiply(m1, m3, out=m1)  # ll = a_lo * b_lo
    np.add(m2, m4, out=m3)  # mid = lh + hl  (wraps)
    np.less(m3, m2, out=m4, casting="unsafe")  # mid_carry
    np.left_shift(m4, _U32, out=m4)  # mid_carry << 32
    np.left_shift(m3, _U32, out=m2)  # (mid & MASK32) << 32
    np.add(m1, m2, out=m2)  # lo = ll + ...  (wraps)
    np.less(m2, m1, out=m1, casting="unsafe")  # lo_carry
    np.right_shift(m3, _U32, out=m3)  # mid >> 32
    np.add(m0, m3, out=m0)  # hi = hh + (mid >> 32)
    np.add(m0, m4, out=m0)  #    + (mid_carry << 32)
    np.add(m0, m1, out=m0)  #    + lo_carry
    # 128-bit reduction: hi = m0, lo = m2.
    np.right_shift(m0, _U32, out=m1)  # hi_hi
    np.bitwise_and(m0, _MASK32, out=m0)  # hi_lo
    np.less(m2, m1, out=m3, casting="unsafe")  # borrow of lo - hi_hi
    np.subtract(m2, m1, out=m2)  # t0 = lo - hi_hi  (wraps)
    np.multiply(m3, EPSILON, out=m3)
    np.subtract(m2, m3, out=m2)  # t0 -= borrow * EPSILON
    np.multiply(m0, EPSILON, out=m0)  # t1 = hi_lo * EPSILON
    np.add(m2, m0, out=out)  # res = t0 + t1  (wraps)
    np.less(out, m0, out=m2, casting="unsafe")
    np.multiply(m2, EPSILON, out=m2)
    np.add(out, m2, out=out)
    np.greater_equal(out, P, out=m2, casting="unsafe")
    np.multiply(m2, P, out=m2)
    np.subtract(out, m2, out=out)
    return out


def square_into(a: np.ndarray, out: np.ndarray, ws: Workspace | None = None) -> np.ndarray:
    """``out <- a**2 (mod p)``; saves two limb products over mul.

    ``out`` may alias ``a`` exactly: ``a`` is consumed into workspace
    limb temps before the first write to ``out``.
    """
    ws = ws or default_workspace()
    shape = out.shape
    a = _bcast(np.asarray(a, dtype=np.uint64), shape)
    m = ws.temp((4,) + shape, "sq")
    m0, m1, m2, m3 = m[0], m[1], m[2], m[3]

    np.right_shift(a, _U32, out=m0)  # a_hi
    np.bitwise_and(a, _MASK32, out=m1)  # a_lo
    np.multiply(m0, m1, out=m2)  # lh = hl = a_hi * a_lo
    np.multiply(m0, m0, out=m0)  # hh
    np.multiply(m1, m1, out=m1)  # ll
    np.add(m2, m2, out=m3)  # mid = 2 * lh  (wraps)
    np.less(m3, m2, out=m2, casting="unsafe")  # mid_carry
    np.left_shift(m2, _U32, out=m2)
    np.add(m0, m2, out=m0)  # hh + (mid_carry << 32)
    np.left_shift(m3, _U32, out=m2)  # (mid & MASK32) << 32
    np.add(m1, m2, out=m2)  # lo = ll + ...  (wraps)
    np.less(m2, m1, out=m1, casting="unsafe")  # lo_carry
    np.right_shift(m3, _U32, out=m3)
    np.add(m0, m3, out=m0)  # hi += mid >> 32
    np.add(m0, m1, out=m0)  # hi += lo_carry
    # reduction (hi = m0, lo = m2), identical to mul_into's tail.
    np.right_shift(m0, _U32, out=m1)
    np.bitwise_and(m0, _MASK32, out=m0)
    np.less(m2, m1, out=m3, casting="unsafe")
    np.subtract(m2, m1, out=m2)
    np.multiply(m3, EPSILON, out=m3)
    np.subtract(m2, m3, out=m2)
    np.multiply(m0, EPSILON, out=m0)
    np.add(m2, m0, out=out)
    np.less(out, m0, out=m2, casting="unsafe")
    np.multiply(m2, EPSILON, out=m2)
    np.add(out, m2, out=out)
    np.greater_equal(out, P, out=m2, casting="unsafe")
    np.multiply(m2, P, out=m2)
    np.subtract(out, m2, out=out)
    return out


def pow7_into(a: np.ndarray, out: np.ndarray, ws: Workspace | None = None) -> np.ndarray:
    """``out <- a**7 (mod p)`` (Poseidon S-box); ``out`` may alias ``a``."""
    ws = ws or default_workspace()
    shape = out.shape
    a = _bcast(np.asarray(a, dtype=np.uint64), shape)
    s = ws.temp((2,) + shape, "pow7")
    s0, s1 = s[0], s[1]
    square_into(a, s0, ws)  # a^2
    mul_into(s0, a, s1, ws)  # a^3
    square_into(s0, s0, ws)  # a^4
    mul_into(s0, s1, out, ws)  # a^7
    return out


def butterfly_into(
    u: np.ndarray,
    w: np.ndarray,
    tw: np.ndarray,
    out_u: np.ndarray,
    out_w: np.ndarray,
    dit: bool = False,
    ws: Workspace | None = None,
) -> None:
    """One radix-2 NTT butterfly layer, written into caller buffers.

    DIF (``dit=False``): ``out_u <- u + w``, ``out_w <- (u - w) * tw``.
    DIT (``dit=True``):  ``t <- w * tw``; ``out_u <- u + t``,
    ``out_w <- u - t``.

    ``out_u`` may alias ``u`` and ``out_w`` may alias ``w`` (the
    in-place NTT passes exactly those views); other aliasings are
    undefined.
    """
    ws = ws or default_workspace()
    s0 = ws.temp(out_w.shape, "bfly")
    if not dit:
        sub_into(u, w, s0, ws)
        add_into(u, w, out_u, ws)  # reads u/w fully before writing out_u
        mul_into(s0, tw, out_w, ws)
    else:
        mul_into(w, tw, s0, ws)  # t = w * tw
        sub_into(u, s0, out_w, ws)  # u still intact (sub writes out_w only)
        add_into(u, s0, out_u, ws)
    return None


# ---------------------------------------------------------------------------
# Pure (allocating) wrappers
# ---------------------------------------------------------------------------


def add(a: ArrayLike, b: ArrayLike) -> GlArray:
    """Elementwise ``a + b (mod p)`` for canonical inputs."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    shape = np.broadcast_shapes(a.shape, b.shape)
    if shape == ():
        with np.errstate(over="ignore"):
            s = a + b
            s = s + np.where(s < a, EPSILON, _ZERO)
            return s - np.where(s >= P, P, _ZERO)
    out = np.empty(shape, dtype=np.uint64)
    return add_into(a, b, out)


def sub(a: ArrayLike, b: ArrayLike) -> GlArray:
    """Elementwise ``a - b (mod p)`` for canonical inputs."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    shape = np.broadcast_shapes(a.shape, b.shape)
    if shape == ():
        with np.errstate(over="ignore"):
            d = a - b
            return d - np.where(a < b, EPSILON, _ZERO)
    out = np.empty(shape, dtype=np.uint64)
    return sub_into(a, b, out)


def neg(a: ArrayLike) -> GlArray:
    """Elementwise ``-a (mod p)``."""
    a = np.asarray(a, dtype=np.uint64)
    return np.where(a == _ZERO, _ZERO, P - a)


def _mul_wide(a: GlArray, b: GlArray) -> Tuple[GlArray, GlArray]:
    """Return the 128-bit product of ``a * b`` as ``(hi, lo)`` uint64 pairs."""
    a_lo = a & _MASK32
    a_hi = a >> _U32
    b_lo = b & _MASK32
    b_hi = b >> _U32

    with np.errstate(over="ignore"):
        ll = a_lo * b_lo
        lh = a_lo * b_hi
        hl = a_hi * b_lo
        hh = a_hi * b_hi

        mid = lh + hl
        mid_carry = (mid < lh).astype(np.uint64)

        lo = ll + ((mid & _MASK32) << _U32)
        lo_carry = (lo < ll).astype(np.uint64)

        hi = hh + (mid >> _U32) + (mid_carry << _U32) + lo_carry
    return hi, lo


def reduce128(hi: GlArray, lo: GlArray) -> GlArray:
    """Reduce a 128-bit value ``hi * 2**64 + lo`` modulo ``p``.

    Uses ``2**96 = -1`` (subtract the top 32 bits of ``hi``) and
    ``2**64 = 2**32 - 1`` (fold the bottom 32 bits of ``hi``).
    """
    hi_hi = hi >> _U32
    hi_lo = hi & _MASK32

    with np.errstate(over="ignore"):
        t0 = lo - hi_hi
        t0 = t0 - np.where(lo < hi_hi, EPSILON, _ZERO)

        t1 = hi_lo * EPSILON

        res = t0 + t1
        res = res + np.where(res < t1, EPSILON, _ZERO)
        return res - np.where(res >= P, P, _ZERO)


def mul(a: ArrayLike, b: ArrayLike) -> GlArray:
    """Elementwise ``a * b (mod p)``."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    shape = np.broadcast_shapes(a.shape, b.shape)
    if shape == ():
        hi, lo = _mul_wide(a, b)
        return reduce128(hi, lo)
    out = np.empty(shape, dtype=np.uint64)
    return mul_into(a, b, out)


def square(a: ArrayLike) -> GlArray:
    """Elementwise ``a**2 (mod p)``."""
    a = np.asarray(a, dtype=np.uint64)
    if a.shape == ():
        return mul(a, a)
    out = np.empty(a.shape, dtype=np.uint64)
    return square_into(a, out)


def mul_add(a: ArrayLike, b: ArrayLike, c: ArrayLike) -> GlArray:
    """Elementwise ``a * b + c (mod p)`` (the PE's chained op)."""
    return add(mul(a, b), c)


def pow7(a: ArrayLike) -> GlArray:
    """Elementwise ``a**7``, the Poseidon S-box (4 multiplications)."""
    a = np.asarray(a, dtype=np.uint64)
    if a.shape == ():
        a2 = mul(a, a)
        a3 = mul(a2, a)
        a4 = mul(a2, a2)
        return mul(a4, a3)
    out = np.empty(a.shape, dtype=np.uint64)
    return pow7_into(a, out)


def pow_scalar(a: ArrayLike, e: int) -> GlArray:
    """Elementwise ``a**e`` for a non-negative Python-int exponent."""
    if e < 0:
        raise ValueError("use inv() + pow_scalar for negative exponents")
    a = np.asarray(a, dtype=np.uint64)
    result = np.broadcast_to(np.uint64(1), a.shape).copy()
    base = a.copy()
    if a.shape == ():
        while e:
            if e & 1:
                result = mul(result, base)
            base = mul(base, base)
            e >>= 1
        return result
    ws = default_workspace()
    while e:
        if e & 1:
            mul_into(result, base, result, ws)
        e >>= 1
        if e:
            square_into(base, base, ws)
    return result


def inv(a: ArrayLike) -> GlArray:
    """Elementwise inverse via batch (Montgomery) inversion.

    One scalar modular exponentiation for the whole array.  Raises
    :class:`ZeroDivisionError` if any element is zero.
    """
    a = np.asarray(a, dtype=np.uint64)
    flat = a.reshape(-1)
    n = flat.size
    if n == 0:
        return a.copy()
    if bool((flat == _ZERO).any()):
        raise ZeroDivisionError("0 has no inverse in GF(p)")
    prefix = np.empty(n, dtype=np.uint64)
    acc = np.uint64(1)
    for i in range(n):
        prefix[i] = acc
        acc = mul(acc, flat[i])
    inv_acc = np.uint64(gl.inverse(int(acc)))
    out = np.empty(n, dtype=np.uint64)
    for i in range(n - 1, -1, -1):
        out[i] = mul(inv_acc, prefix[i])
        inv_acc = mul(inv_acc, flat[i])
    return out.reshape(a.shape)


def inv_fast(a: ArrayLike) -> GlArray:
    """Elementwise inverse via vectorised square-and-multiply.

    Computes ``a**(p-2)`` with ~64 vectorised squarings; much faster than
    :func:`inv` for large arrays despite the higher op count, because it
    avoids Python-level per-element loops.
    """
    a = np.asarray(a, dtype=np.uint64)
    if bool((a == _ZERO).any()):
        raise ZeroDivisionError("0 has no inverse in GF(p)")
    return pow_scalar(a, gl.P - 2)


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


def geometric(base: int, start: int, count: int) -> GlArray:
    """Return ``start * base**i`` for ``i in range(count)``."""
    return mul(powers(base, count), np.uint64(start % gl.P))


def dot(a: GlArray, b: GlArray) -> np.uint64:
    """Field dot-product of two 1-D arrays."""
    if a.shape != b.shape:
        raise ValueError("dot operands must have identical shapes")
    prods = mul(a, b)
    return sum_array(prods)


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


def matvec(matrix: GlArray, vec: GlArray) -> GlArray:
    """Field matrix-vector product; ``matrix`` is (m, n), ``vec`` is (n,)
    or a batch (..., n) -- the contraction is over the last axis."""
    m, n = matrix.shape
    if vec.shape[-1] != n:
        raise ValueError("matvec dimension mismatch")
    out = zeros(vec.shape[:-1] + (m,))
    for j in range(m):
        acc = zeros(vec.shape[:-1])
        for k in range(n):
            acc = add(acc, mul(vec[..., k], matrix[j, k]))
        out[..., j] = acc
    return out


def random(shape, rng) -> GlArray:
    """Uniform random canonical field elements (``rng``: numpy Generator)."""
    raw = rng.integers(0, gl.P, size=shape, dtype=np.uint64)
    return raw


def to_ints(a: GlArray):
    """Convert a GL array to a nested list of Python ints (for hashing /
    serialisation / reference checks)."""
    return np.asarray(a, dtype=np.uint64).tolist()
