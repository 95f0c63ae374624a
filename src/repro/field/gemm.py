"""Exact float64 limb GEMMs over the Goldilocks field.

The one matrix primitive every bulk linear map runs on: Poseidon's
layers (:mod:`repro.hashing.optimized`), the NTT's decomposed
dimensions (:mod:`repro.ntt.transforms`), FRI's arity-``2**a`` fold
and its combined-quotient alpha ladder (:mod:`repro.fri.prover`).  It
is the software analogue of the VSA matrix product with the reduction
at the array edge (paper Fig. 5a).

A 64-bit word -- *any* ``uint64`` representative of its value -- is
viewed as four 16-bit limbs and multiplied, in float64, by a table of
signed 32-bit weight limbs (:func:`limb_weights`): the power of two a
limb stands for is folded into its weight row, so every product is
below ``2**47`` in magnitude and a column that contracts at most
:data:`CHUNK_WORDS` words (64 limbs) sums to an integer below ``2**53``
whatever order BLAS adds in.  Each output word leaves the GEMM as two
such sums ``S0 + S1 * 2**32``; wider contractions run as several
chunks whose sums are added as ``int64``.  :func:`fold_into` reduces a
pair once, to a lazy ``uint64`` representative.

:func:`contract_into` is the whole pass for one axis of a
``(B, J, M, Kp)`` array: limbs gathered with the axis last, GEMMs in
:data:`GEMM_ROWS`-row calls, sums gathered as ``int64`` planes with the
output axis moved to where the caller wants it, one fold -- in blocks
of :data:`PASS_WORDS` output words on the calling thread's workspace
slots, which Poseidon's permutation sizes first (:data:`SLOTS`), so a
contraction of any size adds no workspace bytes.
"""

from __future__ import annotations

import sys

import numpy as np

from ..context import RUN
from . import gl64, goldilocks as gl

#: 16-bit limbs per 64-bit word (what a float64 GEMM can carry exactly).
LIMBS = 4
#: Most words one GEMM contracts: 64 limbs, each product of a 16-bit
#: limb and a signed 32-bit weight limb below ``2**47`` in magnitude, so
#: a column sum stays below ``2**53`` (a table with a constant-one row
#: -- Poseidon's -- contracts one word fewer).
CHUNK_WORDS = 16
#: Rows per ``np.matmul`` call.  One GEMM over >= 1024 rows wakes
#: OpenBLAS's thread pool (measured 7.4 ms for 4096 rows against 0.26 ms
#: as sixteen 256-row calls on a 2-vCPU host); small blocks stay on the
#: calling thread, which also keeps a proof's CPU seconds honest.
GEMM_ROWS = 256
#: Multiply-adds below which one ``np.matmul`` call stays on the calling
#: thread: a 256-row call on a 32-point DFT table (``2**20``) woke
#: OpenBLAS 0.3.31's threads, which then spin beside every later NumPy
#: call -- ``bench/run.py`` read ``cpu_s_per_proof`` ×2.1 and
#: ``proofs_per_s`` ×0.55 on ``stark_fib_4k`` -- while Poseidon's
#: largest call (256 x 49 x 68, 853 k) does not.
GEMM_MACS = 1 << 20
#: Most chunks one :func:`contract_into` sums: ``7 * 2**53`` keeps the
#: fold term inside the bias (``tests/test_ntt.py`` derives it).
MAX_CHUNKS = 7
#: Output words per :func:`contract_into` pass.  A pass's scratch --
#: ``4 * PASS_WORDS`` float64 limbs, up to ``4 * PASS_WORDS`` float64
#: sums and ``6 * PASS_WORDS`` ``int64`` planes -- fits inside the
#: slots Poseidon's 1024-row permutation scratch already holds, and a
#: pass stays inside this host's 2 MiB-a-core L2.
PASS_WORDS = 1 << 13
#: Every sum pair is gathered with ``S0 + 2**57`` (and a table's addend
#: stored less ``2**57``), which keeps the signed fold term
#: non-negative (see :func:`fold_into`).
FOLD_BIAS = 1 << 57
#: Workspace slots of the limb scratch, shared by every GEMM user: the
#: float64 operand limbs, the float64 sums, and two ``int64`` planes
#: slots.  One user runs at a time on a thread, so they never overlap.
SLOTS = ("gemm:limbs", "gemm:acc", "gemm:sums", "gemm:spare")

_I32 = gl64.operand(32, np.int64)
_U32 = gl64.operand(32)
_EPSILON_I64 = gl64.operand(gl.EPSILON, np.int64)
_FOLD_BIAS_U64 = gl64.operand(FOLD_BIAS)
_HALF = gl64.operand(1 << 63)
_LOW32 = gl64.operand(0xFFFF_FFFF, np.int64)
_HALF32 = gl64.operand(1 << 31, np.int64)
_TWO32 = gl64.operand(1 << 32, np.int64)


def signed_limbs(values: np.ndarray) -> tuple:
    """``(lo, hi)``, ``int64`` arrays with ``lo + hi * 2**32 = v (mod
    p)`` and both limbs in ``[-2**31, 2**31]`` for every canonical ``v``
    of ``values``: the balanced representative of ``v`` split at bit 32
    with a balanced low half.  ``hi`` is ``v >> 32`` plus the low half's
    borrow, because ``(v - lo) >> 32`` overflows ``int64`` at
    ``v = 2**63 - 1``."""
    v = np.where(values >= _HALF, values + gl64.EPSILON, values).view(np.int64)
    low = v & _LOW32
    borrow = low >= _HALF32
    return np.where(borrow, low - _TWO32, low), (v >> _I32) + borrow


def limb_weights(matrix, addend, out: np.ndarray | None = None) -> np.ndarray:
    """Fill ``out`` -- a float64 table -- with the limb-GEMM weights of
    ``x -> x @ matrix + addend``, for ``matrix`` rows of field elements
    (Python ints or a ``uint64`` array; one row per 64-bit input word,
    ``n`` columns).

    Row ``4 * i + a`` holds, for every output ``j``, the signed 32-bit
    limbs of ``matrix[i][j] * 2**(16 a) mod p`` (low limbs in columns
    ``[:n]``, high limbs in ``[n:]``): the power of two that limb ``a``
    of word ``i`` stands for is folded into the constant, so the product
    needs only two output limbs per column.  The last row holds ``addend
    - 2**57`` the same way, to meet a constant-one operand column; with
    ``addend`` ``None`` the table has no such row (its sums take the
    bias from :func:`offsets`, or join a biased one).  ``out`` may be
    any view, a transposed one included; without it the table is a
    fresh ``(4 * rows (+ 1), 2 * n)`` array.
    """
    n = len(matrix[0])
    if out is None:
        out = np.empty((LIMBS * len(matrix) + (addend is not None), 2 * n))
    words = gl64.asarray(matrix)
    little = sys.byteorder == "little"  # limb order of the uint16 view
    for a in range(LIMBS):
        rows = out[(a if little else LIMBS - 1 - a) : LIMBS * len(matrix) : LIMBS]
        rows[:, :n], rows[:, n:] = signed_limbs(gl64.mul(words, gl64.operand(1 << (16 * a))))
    if addend is not None:
        out[-1, :n], out[-1, n:] = signed_limbs(gl64.sub(gl64.asarray(addend), _FOLD_BIAS_U64))
    return out


def offsets(addend, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` -- an ``int64`` ``(2, n)`` view -- with what a
    table without a constant row adds to its gathered ``[S0, S1]``
    planes: the signed limbs of ``addend - 2**57`` (``None``: of
    ``-2**57``) with ``2**57`` added to the low one, so the pair is
    biased for :func:`fold_into` and still sums to ``addend``."""
    n = out.shape[-1]
    words = gl64.zeros(n) if addend is None else gl64.asarray(addend)
    out[0], out[1] = signed_limbs(gl64.sub(words, _FOLD_BIAS_U64))
    out[0] += FOLD_BIAS
    return out


def _bias() -> np.ndarray:
    """:func:`offsets` of no addend, shaped to broadcast over the
    ``(2, B, M, n, Kp)`` planes of :func:`contract_into`."""
    out = offsets(None, np.empty((2, 1, 1, 1, 1), dtype=np.int64))
    gl64.freeze(out)
    return out


#: The offset of a table with no addend: the bias, taken back.
NO_ADDEND = _bias()


def row_blocks(operand: np.ndarray, out: np.ndarray) -> tuple:
    """``(operand rows, out rows)`` per block of :data:`GEMM_ROWS`
    rows, or the power of two fewer that keeps a call below
    :data:`GEMM_MACS` multiply-adds."""
    macs = operand.shape[1] * out.shape[1]
    step = min(GEMM_ROWS, 1 << max(0, ((GEMM_MACS - 1) // macs).bit_length() - 1))
    return tuple((operand[i : i + step], out[i : i + step]) for i in range(0, len(out), step))


def gemm(blocks: tuple, table: np.ndarray) -> None:
    """``out rows <- operand rows @ table`` per :func:`row_blocks` pair."""
    for rows, out in blocks:
        np.matmul(rows, table, out)


def fold_views(sums: np.ndarray, small: np.ndarray, word: np.ndarray) -> tuple:
    """:func:`fold_into`'s operands: ``sums`` the ``[S0, S1]`` ``int64``
    planes, ``small`` and ``word`` two ``int64`` scratch planes."""
    s0, s1 = sums
    return s0, s1, s1.view(np.uint64), small, small.view(np.uint64), word.view(np.uint64)


def fold_into(fold: tuple, out: np.ndarray) -> None:
    """``out <- `` a ``uint64`` representative of ``S0 + S1 * 2**32``
    (mod p) for the biased ``int64`` planes of :func:`fold_views` (``S0``
    carries ``2**57``, which the table's addend or :func:`offsets` took
    back), with a single lazy reduction.

    Writing ``S1 = h * 2**32 + l`` and using ``2**64 = 2**32 - 1 (mod
    p)`` the value is ``(l << 32) + (S0 + h * (2**32 - 1))``: a
    canonical word plus a term that the bias in ``S0`` makes
    non-negative (and keeps below ``2**58``), so one ``add_lazy_into``
    finishes it.  Aliasing: ``out`` must not alias the planes, which
    are left clobbered; it may be any strided view.
    """
    s0, s1, s1u, small, smallu, word = fold
    np.right_shift(s1, _I32, small)  # h = floor(S1 / 2**32), signed
    np.multiply(small, _EPSILON_I64, small)
    np.add(small, s0, small)  # now in [0, 2**58)
    np.left_shift(s1u, _U32, word)  # l << 32 <= p - 1
    gl64.add_lazy_into(smallu, word, out, s1u)


def weight_chunks(table: np.ndarray) -> tuple:
    """A ``(4 J, 2 n)`` table as its row chunks of at most
    :data:`CHUNK_WORDS` words, each summed exactly by one GEMM."""
    step = LIMBS * CHUNK_WORDS
    return tuple(table[i : i + step] for i in range(0, table.shape[0], step))


def _blocks(batch: int, m: int, kp: int, rows: int) -> list:
    """``(b, m, kp)`` slices cutting ``batch * m * kp`` operand rows into
    passes of at most ``rows`` (all sizes but ``batch`` powers of two)."""
    every = slice(None)
    if m * kp <= rows:
        step = rows // (m * kp)
        return [(slice(b, b + step), every, every) for b in range(0, batch, step)]
    if kp <= rows:
        step = rows // kp
        return [
            (slice(b, b + 1), slice(i, i + step), every)
            for b in range(batch)
            for i in range(0, m, step)
        ]
    return [
        (slice(b, b + 1), slice(i, i + 1), slice(k, k + rows))
        for b in range(batch)
        for i in range(m)
        for k in range(0, kp, rows)
    ]


def _pass_plan(ws, shape: tuple) -> tuple:
    """The scratch views of one :func:`contract_into` pass over a
    ``(bb, mm, kk)`` block contracting ``j`` words into ``n`` outputs
    with ``chunks`` weight chunks: the limb operand (flat and as
    ``(bb, mm, kk, j, 4)``), per chunk its GEMM blocks and its sums as
    ``(2, bb, mm, n, kk)``, the ``int64`` planes and the fold views."""
    bb, mm, kk, j, n, chunks = shape
    rows = bb * mm * kk
    limbs_slot, acc_slot, sums_slot, spare_slot = SLOTS
    limbs = ws.temp((rows, LIMBS * j), limbs_slot, np.float64)
    acc = ws.temp((chunks, rows, 2 * n), acc_slot, np.float64)
    planes = ws.temp((4, bb, mm, n, kk), sums_slot, np.int64)
    part = ws.temp((2, bb, mm, n, kk), spare_slot, np.int64)
    step = LIMBS * CHUNK_WORDS
    per_chunk = tuple(
        (
            row_blocks(limbs[:, c * step : (c + 1) * step], acc[c]),
            acc[c].reshape(bb, mm, kk, 2, n).transpose(3, 0, 1, 4, 2),
        )
        for c in range(chunks)
    )
    return (
        limbs.reshape(bb, mm, kk, j, LIMBS),
        per_chunk,
        planes[:2],
        part,
        fold_views(planes[:2], planes[2], planes[3]),
    )


def contract_into(dst: np.ndarray, offset: np.ndarray, *sources) -> None:
    """``dst[b, m, :, k] <- `` lazy ``uint64`` representatives of
    ``addend + sum_s src_s[b, :, m, k] @ W_s``: exact limb GEMMs along
    axis 1 of ``(B, J_s, M, Kp)`` arrays, summed, the output axis
    landing as axis 2 of a ``(B, M, n, Kp)`` one.

    Each source is a pair ``(src, tables)``: ``tables`` is ``W``'s
    :func:`weight_chunks` (:func:`limb_weights` with no addend row);
    ``src`` holds any ``uint64`` representatives and its last axis must
    be contiguous.  ``offset`` is the :func:`offsets` pair of the
    addend, broadcastable to ``(2, B, M, n, Kp)``.  A chunk's float64
    sum is below ``2**53`` and the chunks of all sources add as
    ``int64``; at most :data:`MAX_CHUNKS` of them keep the fold inside
    the bias.  The work runs in passes of at most :data:`PASS_WORDS`
    output and input words on the :data:`SLOTS` scratch.

    Aliasing: ``dst`` may be any writable view, but must not overlap a
    source.
    """
    if sum(len(tables) for _, tables in sources) > MAX_CHUNKS:
        raise ValueError(f"more than {MAX_CHUNKS} limb chunks in one contraction")
    batch, m, n, kp = dst.shape
    widest = max(src.shape[1] for src, _ in sources)
    rows = 1 << max(0, (PASS_WORDS // max(n, widest)).bit_length() - 1)
    views = [
        (src.view(np.uint16).reshape(batch, src.shape[1], m, kp, LIMBS), tables)
        for src, tables in sources
    ]
    ws = RUN.workspace
    for bs, ms, ks in _blocks(batch, m, kp, rows):
        first = True
        for limbs16, tables in views:
            block = limbs16[bs, :, ms, ks]
            bb, j, mm, kk, _ = block.shape
            limbs, per_chunk, planes, part, fold = ws.plan(
                "gemm:pass", (bb, mm, kk, j, n, len(tables)), _pass_plan
            )
            np.copyto(limbs, block.transpose(0, 2, 3, 1, 4))
            for (blocks, sums), table in zip(per_chunk, tables):
                gemm(blocks, table)
                if first:
                    np.copyto(planes, sums, casting="unsafe")
                    first = False
                else:
                    np.copyto(part, sums, casting="unsafe")
                    np.add(planes, part, planes)
        np.add(planes, offset, planes)
        fold_into(fold, dst[bs, ms, :, ks])
