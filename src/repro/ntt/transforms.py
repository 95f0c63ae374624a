"""Number theoretic transforms over the Goldilocks field.

The transforms the provers run (paper Section 5.1):

* forward/inverse transforms with natural input and output order
  (``NTT^NN`` / ``iNTT^NN``, the value<->coefficient conversions);
* **coset** (i)NTTs, used by low-degree extension and quotient-polynomial
  evaluation, where the evaluation domain is ``g * <omega>``;
* batched transforms over the last axis, mirroring how the hardware
  streams many polynomials through its MDC pipelines.

Internally every transform is the classic iterative radix-2 DIF
Cooley-Tukey network (natural in, bit-reversed out) followed by one
bit-reversal gather, vectorised with NumPy over batch *and* butterfly
axes.  The hardware model's MDC pipeline (``mapping.ntt_mapping``)
emits the bit-reversed ``NTT^NR`` order directly.

Zero-copy data plane
--------------------

The stages run truly in place on a workspace buffer through
:func:`repro.field.gl64.butterfly_into`: no per-stage copies, no fresh
temporaries.  Twiddles are pre-sliced contiguously per ``(log_n,
stage)`` and cached read-only; the final bit-reversal is one cached
``np.take`` gather into the output buffer.  Every public transform
accepts ``out=`` (the result buffer) and takes its scratch from the
calling thread's :class:`~repro.field.gl64.Workspace`
(``RUN.workspace``); without ``out=`` it returns a fresh array.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..context import RUN
from ..field import gl64, goldilocks as gl


@lru_cache(maxsize=None)
def bit_reverse_indices(log_n: int) -> np.ndarray:
    """Return the bit-reversal permutation for size ``2**log_n``."""
    n = 1 << log_n
    idx = np.arange(n, dtype=np.uint64)
    rev = np.zeros(n, dtype=np.uint64)
    for b in range(log_n):
        rev |= ((idx >> np.uint64(b)) & np.uint64(1)) << np.uint64(log_n - 1 - b)
    out = rev.astype(np.int64)
    out.flags.writeable = False
    return out


def bit_reverse(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Permute the last axis of ``a`` into bit-reversed order.

    With ``out=`` the cached permutation is gathered directly into the
    given buffer (which must not alias ``a``); otherwise a fresh array
    is returned.
    """
    a = np.asarray(a, dtype=np.uint64)
    n = a.shape[-1]
    log_n = _checked_log2(n)
    idx = bit_reverse_indices(log_n)
    if out is None:
        out = np.empty(a.shape, dtype=np.uint64)
    np.take(a, idx, axis=-1, out=out, mode="clip")
    return out


def _checked_log2(n: int) -> int:
    log_n = n.bit_length() - 1
    if n <= 0 or (1 << log_n) != n:
        raise ValueError(f"transform size must be a power of two, got {n}")
    if log_n > gl.TWO_ADICITY:
        raise ValueError(f"size 2**{log_n} exceeds the field's 2-adicity")
    return log_n


@lru_cache(maxsize=None)
def _omega_powers(log_n: int, inverse: bool) -> np.ndarray:
    """Powers ``omega**0 .. omega**(n/2 - 1)`` of the size-``2**log_n`` root."""
    omega = gl.primitive_root_of_unity(log_n)
    if inverse:
        omega = gl.inverse(omega)
    out = gl64.powers(omega, max(1, 1 << (log_n - 1)))
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _stage_twiddles(log_n: int, inverse: bool) -> tuple:
    """Contiguous twiddle slices per butterfly stage, cached read-only.

    Entry ``i`` serves the stage with half-block ``mh = 2**i`` (i.e.
    ``m = 2**(i + 1)``): ``omega**(0, n/m, 2n/m, ...)`` -- the stride
    slice the old code re-materialised from ``_omega_powers`` on every
    stage of every transform.
    """
    n = 1 << log_n
    tw_all = _omega_powers(log_n, inverse)
    stages = []
    for i in range(max(1, log_n)):
        m = 1 << (i + 1)
        tw = np.ascontiguousarray(tw_all[:: n // m][: m // 2])
        tw.flags.writeable = False
        stages.append(tw)
    return tuple(stages)


@lru_cache(maxsize=None)
def _coset_scale(shift: int, n: int, inverse: bool) -> np.ndarray:
    """Cached coset powers ``shift**i`` (or ``shift**-i``) for size ``n``."""
    base = gl.inverse(shift) if inverse else shift
    out = gl64.powers(base, n)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _n_inv(n: int) -> np.uint64:
    return np.uint64(gl.inverse(n))


def _count_transform(a: np.ndarray, log_n: int) -> None:
    batch = int(a.size >> log_n)
    counters = RUN.counters
    counters.ntt_transforms += batch
    counters.ntt_butterflies += batch * (1 << max(0, log_n - 1)) * log_n


def _dif_in_place(a: np.ndarray, log_n: int, inverse: bool) -> np.ndarray:
    """Decimation-in-frequency: natural input -> bit-reversed output.

    ``a`` must be a contiguous, writable uint64 array; it is transformed
    in place with zero allocations (scratch comes from ``RUN.workspace``).
    """
    _count_transform(a, log_n)
    stages = _stage_twiddles(log_n, inverse)
    n = 1 << log_n
    lead = a.shape[:-1]
    for i in range(log_n - 1, -1, -1):
        m = 1 << (i + 1)
        mh = m >> 1
        v = a.reshape(lead + (n // m, m))
        u = v[..., :mh]
        w = v[..., mh:]
        gl64.butterfly_into(u, w, stages[i], u, w)
    return a


def _workbuf(a: np.ndarray, slot: str) -> np.ndarray:
    """Copy ``a`` into a reusable transform buffer (never aliases ``a``)."""
    work = RUN.workspace.temp(a.shape, slot)
    np.copyto(work, a)
    return work


def ntt(a, out: np.ndarray | None = None) -> np.ndarray:
    """Forward NTT, natural input and output (``NTT^NN``)."""
    a = np.asarray(a, dtype=np.uint64)
    log_n = _checked_log2(a.shape[-1])
    work = _workbuf(a, "ntt:work")
    _dif_in_place(work, log_n, inverse=False)
    if out is None:
        out = np.empty(a.shape, dtype=np.uint64)
    return bit_reverse(work, out=out)


def intt(a, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse NTT, natural input and output (``iNTT^NN``).

    This is FRI's value->coefficient conversion (paper Figure 1, step 1).
    """
    a = np.asarray(a, dtype=np.uint64)
    log_n = _checked_log2(a.shape[-1])
    work = _workbuf(a, "intt:work")
    _dif_in_place(work, log_n, inverse=True)
    if out is None:
        out = np.empty(a.shape, dtype=np.uint64)
    bit_reverse(work, out=out)
    return gl64.mul_into(out, _n_inv(a.shape[-1]), out)


def coset_ntt(a, shift: int | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate coefficients on the coset ``shift * <omega>`` (natural order).

    Scales coefficient ``i`` by ``shift**i`` before the plain NTT -- the
    pre-NTT constant multiplication the paper fuses into the first (DIT)
    pipeline stage.
    """
    a = np.asarray(a, dtype=np.uint64)
    log_n = _checked_log2(a.shape[-1])
    shift = gl.coset_shift() if shift is None else shift
    work = RUN.workspace.temp(a.shape, "ntt:work")
    gl64.mul_into(a, _coset_scale(shift, a.shape[-1], False), work)
    _dif_in_place(work, log_n, inverse=False)
    if out is None:
        out = np.empty(a.shape, dtype=np.uint64)
    return bit_reverse(work, out=out)


def coset_intt(a, shift: int | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Recover coefficients from evaluations on ``shift * <omega>``.

    Post-multiplies by ``shift**-i`` -- the paper's ``N^-1 g^-i`` twiddle,
    fused into the idle last-round PEs of the DIF pipeline.
    """
    out = intt(a, out=out)
    shift = gl.coset_shift() if shift is None else shift
    return gl64.mul_into(out, _coset_scale(shift, out.shape[-1], True), out)


def lde(
    values,
    rate_bits: int,
    shift: int | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Low-degree extension of subgroup evaluations onto a larger coset.

    ``iNTT^NN`` -> zero-pad coefficients by ``2**rate_bits`` (the blowup
    factor ``k``; Plonky2 uses ``k = 8``, Starky ``k = 2``) ->
    ``coset-NTT``.  Natural output order.
    """
    values = np.asarray(values, dtype=np.uint64)
    coeffs = intt(values, out=RUN.workspace.temp(values.shape, "lde:coeffs"))
    return lde_coeffs(coeffs, rate_bits, shift, out=out)


def lde_coeffs(
    coeffs,
    rate_bits: int,
    shift: int | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """LDE starting from coefficients: zero-pad then coset-NTT."""
    coeffs = np.asarray(coeffs, dtype=np.uint64)
    n = coeffs.shape[-1]
    _checked_log2(n)
    padded = RUN.workspace.temp(coeffs.shape[:-1] + (n << rate_bits,), "lde:pad")
    np.copyto(padded[..., :n], coeffs)
    padded[..., n:] = 0
    return coset_ntt(padded, shift, out=out)


def coset_intt_ext(a: np.ndarray, shift: int | None = None) -> np.ndarray:
    """Coset inverse NTT of extension-field values: shape (..., n, 2).

    The extension is a 2-dimensional vector space over the base field and
    the NTT is GF(p)-linear, so transforming each limb independently is
    exact -- this is also how UniZK executes extension arithmetic on
    base-field PEs.
    """
    return np.stack(
        [coset_intt(a[..., 0], shift), coset_intt(a[..., 1], shift)], axis=-1
    )
