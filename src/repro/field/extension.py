"""Quadratic extension field GF(p^2) = GF(p)[X] / (X^2 - W).

Plonky2 draws verifier challenges (beta, gamma, alpha, zeta, FRI betas)
from a degree-``D`` extension for soundness; the usual choice is the
quadratic extension (``D = 2``).  The paper notes (Section 4) that UniZK
executes extension arithmetic on the base-field units, treating each
64-bit limb separately -- which is exactly how this module is written:
an extension element is a length-2 vector of Goldilocks limbs, and all
operations decompose into base-field adds and multiplies.

Arrays of extension elements have a trailing axis of length 2; all
functions broadcast over the leading axes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Union

import numpy as np

from . import gl64, goldilocks as gl

#: Extension degree.
D = 2


@lru_cache(maxsize=1)
def non_residue() -> int:
    """Return the smallest quadratic non-residue ``W`` of GF(p).

    ``X**2 - W`` is then irreducible, making GF(p)[X]/(X^2 - W) a field.
    """
    for w in range(2, 100):
        if pow(w, (gl.P - 1) // 2, gl.P) == gl.P - 1:
            return w
    raise RuntimeError("no quadratic non-residue below 100 (unreachable)")


ExtArray = np.ndarray
ExtLike = Union[np.ndarray, int]


def from_base(a) -> ExtArray:
    """Embed base-field value(s) into the extension (second limb zero)."""
    a = np.asarray(a, dtype=np.uint64)
    out = gl64.zeros(a.shape + (D,))
    out[..., 0] = a
    return out


def make(c0, c1) -> ExtArray:
    """Build extension element(s) from the two limbs."""
    c0 = np.asarray(c0, dtype=np.uint64)
    c1 = np.asarray(c1, dtype=np.uint64)
    c0, c1 = np.broadcast_arrays(c0, c1)
    out = np.empty(c0.shape + (D,), dtype=np.uint64)
    out[..., 0] = c0
    out[..., 1] = c1
    return out


def zero(shape=()) -> ExtArray:
    """Extension zero(s)."""
    return gl64.zeros(tuple(np.atleast_1d(shape)) + (D,) if shape != () else (D,))


def one(shape=()) -> ExtArray:
    """Extension one(s)."""
    out = zero(shape)
    out[..., 0] = np.uint64(1)
    return out


def is_zero(a: ExtArray) -> np.ndarray:
    """Elementwise zero test (boolean array over the leading axes)."""
    return (a[..., 0] == 0) & (a[..., 1] == 0)


def add(a: ExtArray, b: ExtArray) -> ExtArray:
    """Extension addition (limb-wise)."""
    return gl64.add(a, b)


def sub(a: ExtArray, b: ExtArray) -> ExtArray:
    """Extension subtraction (limb-wise)."""
    return gl64.sub(a, b)


def mul(a: ExtArray, b: ExtArray) -> ExtArray:
    """Extension multiplication.

    ``(a0 + a1 X)(b0 + b1 X) = (a0 b0 + W a1 b1) + (a0 b1 + a1 b0) X``,
    computed with the Karatsuba trick (3 base multiplies per element).
    """
    a0, a1 = a[..., 0], a[..., 1]
    b0, b1 = b[..., 0], b[..., 1]
    w = np.uint64(non_residue())
    t0 = gl64.mul(a0, b0)
    t1 = gl64.mul(a1, b1)
    # (a0 + a1)(b0 + b1) - t0 - t1 == a0 b1 + a1 b0
    cross = gl64.sub(gl64.sub(gl64.mul(gl64.add(a0, a1), gl64.add(b0, b1)), t0), t1)
    c0 = gl64.add(t0, gl64.mul(t1, w))
    return make(c0, cross)


def scalar_mul(a: ExtArray, s) -> ExtArray:
    """Multiply extension element(s) by base-field scalar(s)."""
    s = np.asarray(s, dtype=np.uint64)
    return make(gl64.mul(a[..., 0], s), gl64.mul(a[..., 1], s))


def square(a: ExtArray) -> ExtArray:
    """Extension squaring."""
    return mul(a, a)


def inv(a: ExtArray) -> ExtArray:
    """Extension inverse via the norm map.

    ``(a0 + a1 X)^-1 = (a0 - a1 X) / (a0^2 - W a1^2)``.
    Raises :class:`ZeroDivisionError` if any element is zero.
    """
    a0, a1 = a[..., 0], a[..., 1]
    w = np.uint64(non_residue())
    norm = gl64.sub(gl64.mul(a0, a0), gl64.mul(w, gl64.mul(a1, a1)))
    norm_inv = gl64.inv_fast(norm)
    return make(gl64.mul(a0, norm_inv), gl64.mul(gl64.neg(a1), norm_inv))


def pow_scalar(a: ExtArray, e: int) -> ExtArray:
    """Extension exponentiation by a non-negative Python-int exponent."""
    if e < 0:
        raise ValueError("negative exponent; invert first")
    result = one(a.shape[:-1]) if a.ndim > 1 else one()
    result = np.broadcast_to(result, a.shape).copy()
    base = a.copy()
    while e:
        if e & 1:
            result = mul(result, base)
        base = mul(base, base)
        e >>= 1
    return result


def powers(base: ExtArray, count: int) -> ExtArray:
    """Return ``[1, base, base**2, ...]`` for a scalar extension ``base``;
    shape ``(count, 2)``.

    Doubling construction; the scalar step stays in Python ints (the 0-d
    NumPy path is far slower) while the block multiply is vectorised.
    """
    out = np.empty((count, D), dtype=np.uint64)
    if count == 0:
        return out
    out[0] = one()
    filled = 1
    flat = np.asarray(base, dtype=np.uint64).reshape(D)
    s0, s1 = int(flat[0]), int(flat[1])
    w, p = non_residue(), gl.P
    while filled < count:
        take = min(filled, count - filled)
        a0, a1 = out[:take, 0], out[:take, 1]
        dst = out[filled : filled + take]
        t0 = gl64.mul(a0, np.uint64(s0))
        t1 = gl64.mul(a1, np.uint64(s1))
        dst[:, 0] = gl64.add(t0, gl64.mul(t1, np.uint64(w)))
        dst[:, 1] = gl64.add(gl64.mul(a0, np.uint64(s1)), gl64.mul(a1, np.uint64(s0)))
        filled += take
        s0, s1 = (s0 * s0 + w * s1 * s1) % p, (2 * s0 * s1) % p
    return out


@lru_cache(maxsize=64)
def _powers_cached(x0: int, x1: int, count: int) -> ExtArray:
    """Read-only cached power table for a scalar extension point.

    Opening a proof evaluates many polynomial rows at the same handful
    of points (zeta, zeta * omega); the table is built once per point.
    """
    arr = powers(np.array([x0, x1], dtype=np.uint64), count)
    arr.flags.writeable = False
    return arr


def powers_cached(base: ExtArray, count: int) -> ExtArray:
    """Cached, read-only version of :func:`powers` for scalar points."""
    flat = np.asarray(base, dtype=np.uint64).reshape(D)
    return _powers_cached(int(flat[0]), int(flat[1]), count)


def dot_base(coeffs: np.ndarray, ext_points: ExtArray) -> ExtArray:
    """Sum ``coeffs[i] * ext_points[i]`` (base coeffs, extension points)."""
    coeffs = np.asarray(coeffs, dtype=np.uint64)
    return make(
        gl64.sum_array(gl64.mul(coeffs, ext_points[:, 0])),
        gl64.sum_array(gl64.mul(coeffs, ext_points[:, 1])),
    )


def eval_poly_base(coeffs: np.ndarray, x: ExtArray, pws: ExtArray | None = None) -> ExtArray:
    """Evaluate a base-field coefficient vector at an extension point.

    A full power table of ``x`` (built in ``O(log n)`` vectorised
    doubling steps, or passed in precomputed) turns the evaluation into
    two base-field dot products -- a handful of kernel launches instead
    of a Horner chain of tiny sequential ops.
    """
    n = len(coeffs)
    if n == 0:
        return zero()
    if pws is None:
        pws = powers_cached(x, n)
    return dot_base(coeffs, pws[:n])


def eval_polys_base(coeffs: np.ndarray, x: ExtArray, pws: ExtArray | None = None) -> ExtArray:
    """Evaluate base-coefficient rows (k, n) at one extension point.

    Returns (k, 2); one vectorised multiply + modular reduction per limb
    for the whole batch.
    """
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=np.uint64))
    n = coeffs.shape[1]
    if n == 0:
        return zero(coeffs.shape[0])
    if pws is None:
        pws = powers_cached(x, n)
    return make(
        gl64.sum_along_axis(gl64.mul(coeffs, pws[:n, 0]), axis=-1),
        gl64.sum_along_axis(gl64.mul(coeffs, pws[:n, 1]), axis=-1),
    )


def eval_poly_ext(coeffs: ExtArray, x: ExtArray) -> ExtArray:
    """Evaluate an extension coefficient vector (n, 2) at extension
    point(s) ``x`` (..., 2); one Horner chain over all points."""
    acc = gl64.zeros(x.shape)
    for i in range(coeffs.shape[0] - 1, -1, -1):
        acc = add(mul(acc, x), coeffs[i])
    return acc


def to_pair(a: ExtArray):
    """Return a scalar extension element as a ``(int, int)`` pair."""
    flat = np.asarray(a, dtype=np.uint64).reshape(D)
    return int(flat[0]), int(flat[1])
