"""Number theoretic transforms over the Goldilocks field.

The transforms the provers run (paper Section 5.1):

* forward/inverse transforms with natural input and output order
  (``NTT^NN`` / ``iNTT^NN``, the value<->coefficient conversions);
* **coset** (i)NTTs, used by low-degree extension and quotient-polynomial
  evaluation, where the evaluation domain is ``g * <omega>``;
* batched transforms over the last axis, mirroring how the hardware
  streams many polynomials through its MDC pipelines.

One engine runs them all: UniZK's SAM multi-dimensional decomposition
(paper Fig. 4b) on the host's matrix unit.  A ``2**k``-point transform
is cut into dimensions of at most ``2**_DIM_BITS`` points
(:func:`_dims`); each dimension is one exact limb GEMM on its DFT
matrix (:func:`repro.field.gemm.contract_into`), whose output axis
lands where the natural output order wants it, and an elementwise
twiddle pass ``w_N'^(m k)`` joins consecutive dimensions.  The coset
powers and ``N^-1`` ride in the first and last dimensions' weights and
in the twiddles, so a transform is ``L`` GEMM levels and ``L - 1``
multiplies with no bit-reversal gather.  An LDE contracts only the
nonzero leading input digits of its zero-padded coefficients
(:func:`lde_coeffs`).  The hardware model's mapping of the same split
onto MDC pipelines is ``mapping.ntt_mapping``.

Every output is the canonical field element the radix-2 network gave
(``tests/reference_ntt.py`` keeps that network as the oracle), and the
operation counters charge radix-2-equivalent work: ``N/2 * log N``
butterflies a transform.

Zero-copy data plane
--------------------

The levels alternate between the output buffer and one workspace
buffer; the GEMM scratch is the workspace's shared limb slots
(:data:`repro.field.gemm.SLOTS`), cut into fixed passes, so a
transform of any size holds one buffer of its own shape.  The DFT
weights and twiddles are cached read-only per ``(log_n, shift,
direction)``.  Every public transform accepts ``out=`` (the result
buffer); without it, it returns a fresh array.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ..context import RUN
from ..field import gemm, gl64, goldilocks as gl

#: log2 of the largest dimension one GEMM level contracts: a 32-point
#: dimension runs as two K-chunks of 16 words (:data:`gemm.CHUNK_WORDS`).
#: Fewer levels mean fewer passes and twiddle multiplies, a wider one
#: twice the multiply-adds a word.  Measured (ms, 2-vCPU host, best
#: quartile of 40, one ``2**k``-point ``coset_ntt``, widest dimension
#: 16 / 32 points): 2**8 0.064 / 0.073, 2**10 0.18 / 0.15, 2**12
#: 0.47 / 0.47, 2**13 1.03 / 0.84, 2**14 2.12 / 1.76.
_DIM_BITS = 5


class _Level(NamedTuple):
    """One dimension of a decomposed transform: ``n`` points contracted
    over ``(B, n, m, kp)`` into ``(B, m, n, kp)`` -- ``m`` the later
    dimensions' size, ``kp`` the earlier ones' -- by ``table`` (the
    ``(4 n, 2 n)`` limb weights of its DFT matrix, as GEMM ``chunks``),
    then multiplied by ``twiddle`` (``(m, n, kp or 1)``; ``None`` on the
    last level)."""

    n: int
    m: int
    kp: int
    table: np.ndarray
    chunks: tuple
    twiddle: np.ndarray | None


def _checked_log2(n: int) -> int:
    log_n = n.bit_length() - 1
    if n <= 0 or (1 << log_n) != n:
        raise ValueError(f"transform size must be a power of two, got {n}")
    if log_n > gl.TWO_ADICITY:
        raise ValueError(f"size 2**{log_n} exceeds the field's 2-adicity")
    return log_n


def _dims(log_n: int) -> tuple:
    """log2 of each dimension, first contracted first: the fewest of at
    most ``_DIM_BITS`` bits, as even as they go, widest first."""
    if not log_n:
        return ()
    levels = -(-log_n // _DIM_BITS)
    base, extra = divmod(log_n, levels)
    return tuple(base + (i < extra) for i in range(levels))


@lru_cache(maxsize=None)
def _levels(log_n: int, shift: int, inverse: bool) -> tuple:
    """The levels of the size-``2**log_n`` transform, read-only.

    With input index ``x = j m_1 + r`` and output ``k = k_1 + n_1 k'``,
    level 1 is the ``n_1``-point DFT over ``j`` and the twiddle
    ``w_N^(r k_1)``; the rest is the size-``m_1`` transform of each
    ``k_1`` row, recursively.  A forward coset's ``g**x`` splits into
    ``g**(j m_1)`` (level 1's weight rows) and ``g**r`` (its twiddle);
    an inverse's ``N^-1 g**-k`` into the last level's weight columns
    (``g**(-k_L N / n_L)``) and the twiddle before it (``g**-k`` of the
    earlier output digits).
    """
    size = 1 << log_n
    omega = gl.primitive_root_of_unity(log_n)
    if inverse:
        omega, shift = gl.inverse(omega), gl.inverse(shift)
    bits = _dims(log_n)
    levels, kp, rest = [], 1, size
    for i, b in enumerate(bits):
        n, first, last = 1 << b, i == 0, i == len(bits) - 1
        m = rest // n
        w_rest = gl.pow_mod(omega, size // rest)  # a root of order `rest`
        roots = gl64.powers(w_rest, rest)
        grid = np.arange(n, dtype=np.int64)
        matrix = roots[(np.outer(grid, grid) * m) % rest]  # w_n^(j k)
        if first and not inverse:
            gl64.mul_into(matrix, gl64.powers(gl.pow_mod(shift, m), n)[:, None], matrix)
        if last and inverse:
            scale = gl64.powers(gl.pow_mod(shift, size // n), n)
            gl64.mul_into(scale, np.uint64(gl.inverse(size)), scale)
            gl64.mul_into(matrix, scale[None, :], matrix)
        table = gemm.limb_weights(matrix, None)
        twiddle = None
        if not last:
            twiddle = roots[np.outer(np.arange(m, dtype=np.int64), grid)][:, :, None]
            if first and not inverse:
                gl64.mul_into(twiddle, gl64.powers(shift, m)[:, None, None], twiddle)
            if i == len(bits) - 2 and inverse:
                coset = gl64.powers(shift, n * kp).reshape(1, n, kp)
                twiddle = gl64.mul(twiddle, coset)
            twiddle = np.ascontiguousarray(twiddle)
            gl64.freeze(twiddle)
        gl64.freeze(table)
        levels.append(_Level(n, m, kp, table, gemm.weight_chunks(table), twiddle))
        kp, rest = kp * n, m
    return tuple(levels)


def _count_transform(a: np.ndarray, log_n: int) -> None:
    batch = int(a.size >> log_n)
    counters = RUN.counters
    counters.ntt_transforms += batch
    counters.ntt_butterflies += batch * (1 << max(0, log_n - 1)) * log_n


def _ntt(src: np.ndarray, out, log_n: int, shift: int, inverse: bool) -> np.ndarray:
    """The engine: ``src`` holds the leading ``J`` digits of level 1's
    input (all of them but for an LDE's zero padding) as ``(..., J *
    m_1)``, any ``uint64`` words; the size-``2**log_n`` transform lands
    in ``out`` (fresh when ``None``; any view, the input's own memory
    included) in natural order, canonical.  The levels alternate
    between the output and the ``ntt:work`` buffer so that the last
    one writes the output."""
    size = 1 << log_n
    lead = src.shape[:-1]
    if out is None:
        out = np.empty(lead + (size,), dtype=np.uint64)
    dst = out if out.flags.c_contiguous else RUN.workspace.temp(out.shape, "ntt:out")
    _count_transform(dst, log_n)
    batch = dst.size >> log_n
    work = RUN.workspace.temp(dst.shape, "ntt:work")
    levels = _levels(log_n, shift, inverse)
    if not levels:
        gl64.canonical_into(src, dst, work)
    else:
        bufs = (dst, work) if len(levels) % 2 else (work, dst)
        src = np.ascontiguousarray(src)
        if np.may_share_memory(src, bufs[0]):  # level 1 would overwrite it
            staged = bufs[1].reshape(-1)[: src.size].reshape(src.shape)
            np.copyto(staged, src)
            src = staged
        first = levels[0]
        j = src.shape[-1] // first.m
        chunks = first.chunks if j == first.n else gemm.weight_chunks(first.table[: gemm.LIMBS * j])
        source = src.reshape(batch, j, first.m, 1)
        for i, level in enumerate(levels):
            if i:  # (B, m, n, kp) of the level before is (B, n', m', kp')
                source = bufs[1 - i % 2].reshape(batch, level.n, level.m, level.kp)
                chunks = level.chunks
            target = bufs[i % 2].reshape(batch, level.m, level.n, level.kp)
            gemm.contract_into(target, gemm.NO_ADDEND, (source, chunks))
            if level.twiddle is not None:
                gl64.mul_into(target, level.twiddle, target)
        gl64.canonical_into(dst, dst, work)
    if dst is not out:
        np.copyto(out, dst)
    return out


def _shift(shift: int | None) -> int:
    return gl.coset_shift() if shift is None else int(shift)


def ntt(a, out: np.ndarray | None = None) -> np.ndarray:
    """Forward NTT, natural input and output (``NTT^NN``)."""
    a = np.asarray(a, dtype=np.uint64)
    return _ntt(a, out, _checked_log2(a.shape[-1]), 1, False)


def intt(a, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse NTT, natural input and output (``iNTT^NN``).

    This is FRI's value->coefficient conversion (paper Figure 1, step 1).
    """
    a = np.asarray(a, dtype=np.uint64)
    return _ntt(a, out, _checked_log2(a.shape[-1]), 1, True)


def coset_ntt(a, shift: int | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate coefficients on the coset ``shift * <omega>`` (natural order).

    Coefficient ``i``'s ``shift**i`` -- the pre-NTT constant
    multiplication the paper fuses into the first (DIT) pipeline stage
    -- rides in the first dimension's weights and twiddle.
    """
    a = np.asarray(a, dtype=np.uint64)
    return _ntt(a, out, _checked_log2(a.shape[-1]), _shift(shift), False)


def coset_intt(a, shift: int | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Recover coefficients from evaluations on ``shift * <omega>``.

    The paper's ``N^-1 g^-i`` post-multiplication rides in the last
    dimension's weights and the twiddle before it.
    """
    a = np.asarray(a, dtype=np.uint64)
    return _ntt(a, out, _checked_log2(a.shape[-1]), _shift(shift), True)


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
    """LDE starting from coefficients: the coset-NTT of the coefficients
    zero-padded by ``2**rate_bits``.

    The padding is never written: input ``x = j m_1 + r`` is nonzero
    only for the first ``n_1 >> rate_bits`` digits ``j``, so level 1
    contracts those alone -- unless the first dimension is narrower
    than the blowup, when the coefficients are padded for real.
    """
    coeffs = np.asarray(coeffs, dtype=np.uint64)
    n = coeffs.shape[-1]
    _checked_log2(n)
    log_size = _checked_log2(n << rate_bits)
    shift = _shift(shift)
    levels = _levels(log_size, shift, False)
    if levels and levels[0].n < 1 << rate_bits:
        padded = RUN.workspace.temp(coeffs.shape[:-1] + (n << rate_bits,), "lde:pad")
        np.copyto(padded[..., :n], coeffs)
        padded[..., n:] = 0
        coeffs = padded
    return _ntt(coeffs, out, log_size, shift, False)


def coset_intt_ext(a: np.ndarray, shift: int | None = None) -> np.ndarray:
    """Coset inverse NTT of extension-field values: shape (..., n, 2).

    The extension is a 2-dimensional vector space over the base field and
    the NTT is GF(p)-linear, so transforming each limb independently is
    exact -- this is also how UniZK executes extension arithmetic on
    base-field PEs.  Both limbs run as one ``(..., 2, n)`` batch.
    """
    limbs = np.moveaxis(np.asarray(a, dtype=np.uint64), -1, -2)
    return np.moveaxis(coset_intt(limbs, shift), -2, -1)
