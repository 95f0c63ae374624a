"""The radix-2 NTT network the engine replaced, kept as its oracle.

``repro.ntt`` runs every transform as a SAM-decomposed set of exact
limb GEMMs.  This module keeps the iterative radix-2 DIF Cooley-Tukey
network it replaced -- natural in, bit-reversed out, one bit-reversal
gather, one butterfly layer per stage on the ``gl64`` kernels -- with
the same public transforms, so the tests can hold the engine to it
bit for bit (``tests/test_ntt.py``), as ``tests/reference_codec.py``
keeps the old codec.  Nothing here is fast or planned; everything
allocates.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.field import gl64, goldilocks as gl


@lru_cache(maxsize=None)
def bit_reverse_indices(log_n: int) -> np.ndarray:
    """The bit-reversal permutation for size ``2**log_n``."""
    n = 1 << log_n
    idx = np.arange(n, dtype=np.uint64)
    rev = np.zeros(n, dtype=np.uint64)
    for b in range(log_n):
        rev |= ((idx >> np.uint64(b)) & np.uint64(1)) << np.uint64(log_n - 1 - b)
    return rev.astype(np.int64)


def bit_reverse(a: np.ndarray) -> np.ndarray:
    """``a`` with its last axis in bit-reversed order."""
    a = np.asarray(a, dtype=np.uint64)
    return np.take(a, bit_reverse_indices(a.shape[-1].bit_length() - 1), axis=-1)


def butterfly_into(u, w, tw, out_u, out_w, dit: bool = False) -> None:
    """One radix-2 butterfly layer.  DIF: ``out_u <- u + w``, ``out_w
    <- (u - w) * tw``; DIT: ``t <- w * tw``, ``out_u <- u + t``,
    ``out_w <- u - t``.  Aliasing: ``out_u`` may alias ``u`` and
    ``out_w`` may alias ``w``."""
    if dit:
        t = gl64.mul(w, tw)
        diff = gl64.sub(u, t)
        gl64.add_into(u, t, out_u)
        np.copyto(out_w, diff)
    else:
        diff = gl64.sub(u, w)
        gl64.add_into(u, w, out_u)
        gl64.mul_into(diff, tw, out_w)


def _dif(a: np.ndarray, inverse: bool) -> np.ndarray:
    """Decimation in frequency: natural input, bit-reversed output."""
    a = np.array(a, dtype=np.uint64, copy=True)
    n = a.shape[-1]
    log_n = n.bit_length() - 1
    omega = gl.primitive_root_of_unity(log_n)
    if inverse:
        omega = gl.inverse(omega)
    powers = gl64.powers(omega, max(1, n // 2))
    lead = a.shape[:-1]
    for i in range(log_n - 1, -1, -1):
        m = 1 << (i + 1)
        v = a.reshape(lead + (n // m, m))
        u, w = v[..., : m // 2], v[..., m // 2 :]
        butterfly_into(u, w, powers[:: n // m][: m // 2], u, w)
    return a


def ntt(a) -> np.ndarray:
    """Forward NTT, natural order on both sides."""
    return bit_reverse(_dif(gl64.asarray(a), False))


def intt(a) -> np.ndarray:
    """Inverse NTT, natural order on both sides."""
    a = gl64.asarray(a)
    return gl64.mul(bit_reverse(_dif(a, True)), np.uint64(gl.inverse(a.shape[-1])))


def coset_ntt(a, shift: int | None = None) -> np.ndarray:
    """Evaluations of coefficient rows on ``shift * <omega>``."""
    a = gl64.asarray(a)
    shift = gl.coset_shift() if shift is None else shift
    return ntt(gl64.mul(a, gl64.powers(shift, a.shape[-1])))


def coset_intt(a, shift: int | None = None) -> np.ndarray:
    """Coefficients of evaluation rows on ``shift * <omega>``."""
    a = gl64.asarray(a)
    shift = gl.coset_shift() if shift is None else shift
    return gl64.mul(intt(a), gl64.powers(gl.inverse(shift), a.shape[-1]))


def lde_coeffs(coeffs, rate_bits: int, shift: int | None = None) -> np.ndarray:
    """Zero-pad coefficient rows by ``2**rate_bits``, then coset-NTT."""
    coeffs = gl64.asarray(coeffs)
    n = coeffs.shape[-1]
    padded = np.zeros(coeffs.shape[:-1] + (n << rate_bits,), dtype=np.uint64)
    padded[..., :n] = coeffs
    return coset_ntt(padded, shift)


def lde(values, rate_bits: int, shift: int | None = None) -> np.ndarray:
    """Low-degree extension of subgroup evaluation rows."""
    return lde_coeffs(intt(values), rate_bits, shift)


def coset_intt_ext(a, shift: int | None = None) -> np.ndarray:
    """:func:`coset_intt` of each extension limb of ``(..., n, 2)``."""
    a = np.asarray(a, dtype=np.uint64)
    return np.stack([coset_intt(a[..., 0], shift), coset_intt(a[..., 1], shift)], axis=-1)
