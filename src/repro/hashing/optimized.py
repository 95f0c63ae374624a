"""Optimised Poseidon: the permutation on the lane-0 chain.

The naive permutation (:mod:`.poseidon`) multiplies by the dense MDS
matrix in every one of the 22 partial rounds although only lane 0
passes through an S-box there.  This module runs that block as a chain
around its 22 S-box outputs, on both software paths; equivalence with
the naive permutation is property-tested.  (The sparse HADES form of
the same block, for the Poseidon AIR and the in-circuit gadget, is
:mod:`.sparse`.)

The scalar path (:func:`permute_scalar`) runs it in Python ints with
every accumulator packed into one big int.  In the batched path
(:func:`permute_into`) the unit of cost is a NumPy call and a matrix
product runs on the host's matrix unit as one exact float64 limb GEMM
with a single reduction per output (:func:`_matmul_into`, the software
analogue of the VSA matrix product with the reduction at the array
edge, paper Fig. 5a).  A dense layer per partial round would spend a
full 12x12 GEMM on one non-linear lane; instead the block is unrolled
around its 22 S-box outputs (:func:`_chain_matrices`): one GEMM takes
the state entering the block to every S-box-input *base* and to the
linear part of the block's output, each round adds the earlier S-box
outputs' feedback to its base with a skinny dot, S-boxes a
``(batch,)`` vector, and one closing GEMM adds the outputs' share of
the final state (:func:`_partial_block_into`) -- 28 % of the dense
layers' multiply-adds, and no ``(batch, 12)`` pass between the block's
two ends.  It is what paper Algorithm 1 does in hardware: a 12x3 PE
region for a partial round, because only lane 0 is non-linear.
"""

from __future__ import annotations

import sys
from functools import lru_cache

import numpy as np

from ..context import RUN
from ..field import gl64, goldilocks as gl
from .constants import PARTIAL_ROUNDS, WIDTH, mds_matrix, round_constants
from .poseidon import FULL_ROUNDS, HALF_FULL


#: Bits per slot of a packed (Kronecker-substituted) accumulator: a
#: slot sums at most 34 products of two canonical words and a constant,
#: below ``35 * 2**128`` (see :func:`permute_scalar`).
_SLOT = 136
_SLOT_MASK = (1 << _SLOT) - 1
#: Bit offset of lane ``j`` in a packed row or accumulator.
_LANE_SHIFTS = tuple(_SLOT * j for j in range(WIDTH))
#: Bit offset of output lane ``j`` in the Hankel product of
#: :func:`_times_m0`.
_OUT_SHIFTS = tuple(_SLOT * (WIDTH - 1 + j) for j in range(WIDTH))


def _pack(values) -> int:
    """``values`` as one big int, entry ``k`` in slot ``k``."""
    return sum(v << (_SLOT * k) for k, v in enumerate(values))


@lru_cache(maxsize=1)
def _mds_hankel() -> int:
    """The MDS matrix packed for one big-int product.

    The Cauchy MDS matrix is Hankel -- ``M[i][j] = 1 / (i + j + 12) =
    h[i + j]`` -- so ``x @ M`` is a polynomial product: with ``x``
    packed high lane first (lane ``i`` in slot ``11 - i``) and ``h``
    packed low entry first, slot ``11 + j`` of the product is ``sum_i
    x[i] * h[i + j]``.
    """
    mds = mds_matrix().tolist()
    h = mds[0] + mds[-1][1:]
    assert all(mds[i][j] == h[i + j] for i in range(WIDTH) for j in range(WIDTH))
    return _pack(h)


def _times_m0(vec: list[int], hankel: int) -> list[int]:
    """``vec @ M0`` (mod p) for canonical ``vec``, ``M0`` the MDS matrix
    with row 0 zeroed, as one product with :func:`_mds_hankel`: lane 0
    is left out of the packing."""
    packed = 0
    for v in vec[1:]:
        packed = packed << _SLOT | v
    packed *= hankel
    return [gl.canonical(packed >> k & _SLOT_MASK) for k in _OUT_SHIFTS]


@lru_cache(maxsize=1)
def _scalar_tables():
    """``(rc0, rows, starts, base_rows, base_start, feeds)``: the
    batched path's layers and lane-0 chain (:func:`_fused_tables`) as
    packed Python ints for :func:`permute_scalar`, entry ``k`` of a
    vector in slot ``k`` (:func:`_pack`).

    ``rows[i]`` is MDS row ``i``; ``starts[l]`` is full layer ``l``'s
    addend (the next round's constants).  ``base_rows[i]`` is row ``i``
    of ``[B | A]`` and ``base_start`` is ``[ku | kx]``, 34 slots;
    ``feeds[r]`` is row ``r`` of ``[C | W]`` without the ``r + 1``
    slots the chain has consumed when round ``r``'s output feeds back.
    """
    b, c, a, w, ku, kx = _chain_matrices()
    rows = tuple(_pack(row) for row in mds_matrix().tolist())
    starts = tuple(_pack(addend) for addend in _layer_addends())
    base_rows = tuple(_pack(bi + ai) for bi, ai in zip(b, a))
    feeds = tuple(_pack(c[r][r + 1 :] + w[r]) for r in range(PARTIAL_ROUNDS))
    rc0 = tuple(round_constants()[0][0].tolist())
    return rc0, rows, starts, base_rows, _pack(ku + kx), feeds


def permute_scalar(state: list[int]) -> list[int]:
    """Scalar (Python-int) permutation for single states: the batched
    path's layers and lane-0 chain (:func:`_chain_matrices`) with every
    accumulator packed into ``_SLOT``-bit slots of one big int.

    A full layer is 12 S-boxes and 12 ``s_i * row_i`` products on packed
    MDS rows, started from the next round's packed constants: a slot
    sums 12 products and a constant, below ``13 * 2**128``, and the next
    S-box's ``pow`` reduces it.  The fourth layer's outputs are reduced
    mod p before the partial block, whose 34-slot accumulator starts as
    ``[ku | kx]`` plus 12 products on the rows of ``[B | A]``.  Round
    ``r`` S-boxes slot 0, shifts it out and adds its output times
    :func:`_scalar_tables`' ``feeds[r]``; a slot then sums at most 34
    products and a constant, below ``35 * 2**128``.  The 12 slots left
    are the block's output, already carrying the next round's constants.

    NumPy's per-call overhead dominates on 12-element arrays, so the
    duplex challenger -- one state at a time by construction -- runs
    here, as does any :func:`permute_into` batch of at most
    ``_SCALAR_ROWS`` states.  The verifiers batch their Merkle checks by
    level (:func:`repro.merkle.verify_paths`) and reach this path only
    where a level has that few nodes left.  Lanes may be any
    non-negative ints; the output is canonical.
    """
    p = gl.P
    rc0, rows, starts, base_rows, base_start, feeds = _scalar_tables()

    def full_layers(x, starts):
        for acc in starts:
            for v, row in zip(x, rows):
                acc += pow(v, 7, p) * row
            x = [acc >> k & _SLOT_MASK for k in _LANE_SHIFTS]
        return x

    x = full_layers([v + c for v, c in zip(state, rc0)], starts[:HALF_FULL])
    acc = base_start
    for v, row in zip(x, base_rows):
        acc += v % p * row
    for feed in feeds:
        acc = (acc >> _SLOT) + pow(acc & _SLOT_MASK, 7, p) * feed
    x = full_layers([acc >> k & _SLOT_MASK for k in _LANE_SHIFTS], starts[HALF_FULL:])
    return [v % p for v in x]


#: 16-bit limbs per 64-bit word (what a float64 GEMM can carry exactly).
_LIMBS = 4
#: GEMM depth of a state operand: every lane limb plus the constant-one
#: column whose weight row carries the map's addend.
_GEMM_DEPTH = _LIMBS * WIDTH + 1
#: Most 64-bit words one limb GEMM contracts.  A 16-bit limb times a
#: signed 32-bit weight limb is below ``2**47``, so a float64 sum is
#: exact up to 63 terms: a state is 48 and a constant, and the partial
#: block's 22 S-box outputs feed back 15 words (60 limbs) a GEMM, the
#: GEMMs' sums added as ``int64``.
_CHUNK_LANES = 15
#: Rows per ``np.matmul`` call.  One GEMM over >= 1024 rows wakes
#: OpenBLAS's thread pool (measured 7.4 ms for 4096 rows against 0.26 ms
#: as sixteen 256-row calls on a 2-vCPU host); small blocks stay on the
#: calling thread, which also keeps a proof's CPU seconds honest.
_GEMM_ROWS = 256
#: Rows per pass of the whole permutation, and of the one scratch arena
#: (:class:`_Scratch`, ~3.7 KB a row).  Rows are independent, so
#: blocking is bit-exact.  Measured on 8192 states, best quartile us a
#: state at 256 / 512 / 1024 / 2048 / 4096 rows: 10.3 / 8.3 / 6.9 /
#: 7.4 / 8.4 -- below 1024 the ~2 250 calls a block show, above it the
#: scratch leaves this host's 2 MiB-a-core L2 (EXPERIMENTS.md
#: "Poseidon's partial block as a lane-0 chain").
_PERMUTE_ROWS = 1024
#: Batch size at or below which :func:`permute_into` runs the Python-int
#: scalar permutation per state.  Measured (ms, scalar vs vectorised,
#: best quartile of 4 x 100 interleaved calls, 2-vCPU host): 1 state
#: 0.169 vs 0.668, 2 states 0.328 vs 0.667, 3 states 0.477 vs 0.622, 4
#: states 0.660 vs 0.668, 6 states 1.043 vs 0.768 -- the scalar path is
#: 0.17 ms a state, the vectorised pass a flat ~0.65 ms up to a few
#: states (EXPERIMENTS.md "Cold start").
_SCALAR_ROWS = 3
#: Batch size at or below which the partial block's lane-0 S-box is a
#: Python ``pow(x, 7, p)`` per row instead of the 62-call fused kernel
#: on a ``(b,)`` vector.  Measured (a whole permutation, ms, kernel vs
#: ``pow``, best quartile of 400 interleaved calls): 16 rows 1.13 vs
#: 0.79, 32 rows 1.19 vs 1.09, 40 rows 1.39 vs 1.40, 48 rows 1.62 vs
#: 1.79, 64 rows 1.58 vs 1.95 -- a ``pow`` is 0.55 us a row, the kernel
#: ~26 us whatever it carries up to a few hundred rows.
_SBOX_SCALAR_ROWS = 32
#: Every table's addend row is stored as ``addend - 2**57`` and the bias
#: is added back as a plain integer once the sums are ``int64``, which
#: keeps the signed fold term non-negative (see :func:`_fold_into`).
_FOLD_BIAS = 1 << 57

_I32 = gl64.operand(32, np.int64)
_U32 = gl64.operand(32)
_EPSILON_I64 = gl64.operand(gl.EPSILON, np.int64)
_FOLD_BIAS_I64 = gl64.operand(_FOLD_BIAS, np.int64)
_FOLD_BIAS_U64 = gl64.operand(_FOLD_BIAS)
_HALF = gl64.operand(1 << 63)
_LOW32 = gl64.operand(0xFFFF_FFFF, np.int64)
_HALF32 = gl64.operand(1 << 31, np.int64)
_TWO32 = gl64.operand(1 << 32, np.int64)


def _signed_limbs(values: np.ndarray) -> tuple:
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


def _limb_weights(matrix, addend, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` -- a float64 table -- with the limb-GEMM weights of
    ``x -> x @ matrix + addend``, for ``matrix`` a list of rows of
    Python ints (one row per 64-bit input word, ``n`` columns).

    Row ``4 * i + a`` holds, for every output ``j``, the signed 32-bit
    limbs of ``matrix[i][j] * 2**(16 a) mod p`` (low limbs in columns
    ``[:n]``, high limbs in ``[n:]``): the power of two that limb ``a``
    of word ``i`` stands for is folded into the constant, so the product
    needs only two output limbs per column.  The last row holds ``addend
    - 2**57`` the same way, to meet a constant-one operand column; with
    ``addend`` ``None`` the table has no such row (a feedback map, whose
    sums join a biased one).  ``out`` may be any view, a transposed one
    included.
    """
    n = len(matrix[0])
    words = gl64.asarray(matrix)
    little = sys.byteorder == "little"  # limb order of the uint16 view
    for a in range(_LIMBS):
        rows = out[(a if little else _LIMBS - 1 - a) : _LIMBS * len(matrix) : _LIMBS]
        rows[:, :n], rows[:, n:] = _signed_limbs(gl64.mul(words, gl64.operand(1 << (16 * a))))
    if addend is not None:
        out[-1, :n], out[-1, n:] = _signed_limbs(gl64.sub(gl64.asarray(addend), _FOLD_BIAS_U64))
    return out


def _layer_addends() -> list:
    """Full layer ``l``'s addend: the constants of the round after it
    (``(state @ M) + rc`` is exactly the next round's input; the last
    layer adds nothing)."""
    full_rc, partial_rc = round_constants()
    nexts = (*full_rc[1:HALF_FULL], partial_rc[0], *full_rc[HALF_FULL + 1 :])
    return [c.tolist() for c in nexts] + [[0] * WIDTH]


@lru_cache(maxsize=1)
def _chain_matrices() -> tuple:
    """The partial block as a *lane-0 chain*: ``(B, C, A, W, ku, kx)``,
    lists of Python ints.

    Let ``x_0`` be the state entering the block (the first partial
    round's constants already added), ``y_r = x_r[0]**7`` the one
    non-linear value of round ``r``, ``M0`` the MDS matrix with row 0
    zeroed and ``c_r`` the next round's constants.  A partial round is
    ``x_{r+1} = x_r @ M0 + y_r * M[0, :] + c_r`` -- affine in ``x_0``
    and the ``y`` -- so by unrolling

    * ``x_r[0] = x_0 @ B[:, r] + sum_j y_j * C[j][r] + ku[r]`` with
      ``C[j][r] = 0`` for ``j >= r`` (an S-box input depends on earlier
      S-box outputs only), and
    * ``x_22 = x_0 @ A + y @ W + kx``.

    ``B`` is ``12 x 22``, ``C`` ``22 x 22``, ``A`` ``12 x 12`` and ``W``
    ``22 x 12``.  Only lane 0 is ever materialised between the block's
    two ends: the software form of UniZK's 12x3 partial-round region
    (paper Algorithm 1), where only lane 0 meets an S-box.
    """
    full_rc, partial_rc = round_constants()
    addends = [*partial_rc[1:].tolist(), full_rc[HALF_FULL].tolist()]
    hankel = _mds_hankel()
    power = [[int(i == j) for j in range(WIDTH)] for i in range(WIDTH)]  # M0**r
    feed = mds_matrix()[0].tolist()  # M[0, :] @ M0**t
    offset = [0] * WIDTH
    columns, feeds, ku = [], [], []
    for addend in addends:
        columns.append([row[0] for row in power])
        feeds.append(feed)
        ku.append(offset[0])
        power = [_times_m0(row, hankel) for row in power]
        feed = _times_m0(feed, hankel)
        offset = [gl.add(v, c) for v, c in zip(_times_m0(offset, hankel), addend)]
    rounds = range(PARTIAL_ROUNDS)
    b = [list(row) for row in zip(*columns)]
    c = [[feeds[r - 1 - j][0] if j < r else 0 for r in rounds] for j in rounds]
    w = [feeds[PARTIAL_ROUNDS - 1 - j] for j in rounds]
    return b, c, power, w, ku, offset


def _chunks(lanes: int) -> list:
    """Limb-column ranges ``(lo, hi)`` that cut the first ``lanes``
    S-box outputs into GEMM operands of at most ``_CHUNK_LANES``."""
    return [
        (_LIMBS * lo, _LIMBS * min(lo + _CHUNK_LANES, lanes))
        for lo in range(0, lanes, _CHUNK_LANES)
    ]


@lru_cache(maxsize=1)
def _fused_tables():
    """``(rc0, full, base, feedback, closing)``: every constant of the
    batched permutation, in :func:`_limb_weights` form.

    The batched path runs ``state += rc0``, four layers of *S-box, then
    one affine map*, the partial block, and four more such layers.
    ``full[l]`` is full layer ``l``'s map: the MDS matrix plus the
    *next* round's pre-S-box constants (``(state @ M) + rc`` is exactly
    the next round's input; the last layer adds nothing).  The partial
    block is :func:`_chain_matrices` as three kinds of table:

    * ``base`` -- ``(49, 2 * 34)``, the state entering the block to all
      22 S-box-input bases and ``x_0 @ A + kx``, ``[B | A]`` with addend
      ``[ku | kx]``;
    * ``feedback[r]`` -- per operand of :func:`_chunks`, ``(lo, hi,
      table)`` with ``table`` the ``(hi - lo, 2)`` map from limbs
      ``[lo, hi)`` of the earlier S-box outputs to round ``r``'s input;
    * ``closing`` -- the same triples for ``y @ W``, tables ``(hi - lo,
      2 * 12)``.

    The sparse factorisation (:mod:`.sparse`) serves the Poseidon AIR
    and the in-circuit gadget, where multiplies are what cost; here a
    GEMM's cost is its size, and the chain's are 28 % of the dense
    layers'.
    """
    b, c, a, w, ku, kx = _chain_matrices()
    mds = mds_matrix().tolist()
    y_limbs = _LIMBS * PARTIAL_ROUNDS
    full, base, fed, closing = (
        np.empty(shape, dtype=np.float64)
        for shape in (
            (FULL_ROUNDS, _GEMM_DEPTH, 2 * WIDTH),
            (_GEMM_DEPTH, 2 * (PARTIAL_ROUNDS + WIDTH)),
            (2, PARTIAL_ROUNDS, y_limbs),
            (y_limbs, 2 * WIDTH),
        )
    )
    for table, addend in zip(full, _layer_addends()):
        _limb_weights(mds, addend, table)
    _limb_weights([bi + ai for bi, ai in zip(b, a)], ku + kx, base)
    # Filled through its (limb, [S0 | S1] x round) view, so that a
    # round's two weight columns are two contiguous rows.
    _limb_weights(c, None, fed.reshape(2 * PARTIAL_ROUNDS, y_limbs).T)
    _limb_weights(w, None, closing)
    rc0 = np.ascontiguousarray(round_constants()[0][0])
    for arr in (rc0, full, base, fed, closing):
        arr.flags.writeable = False
    return (
        rc0,
        full,
        base,
        tuple(
            tuple((lo, hi, fed[:, r, lo:hi].T) for lo, hi in _chunks(r))
            for r in range(PARTIAL_ROUNDS)
        ),
        tuple((lo, hi, closing[lo:hi]) for lo, hi in _chunks(PARTIAL_ROUNDS)),
    )


def _row_blocks(operand: np.ndarray, out: np.ndarray) -> tuple:
    """``(operand rows, out rows)`` per ``_GEMM_ROWS`` block."""
    return tuple(
        (operand[i : i + _GEMM_ROWS], out[i : i + _GEMM_ROWS])
        for i in range(0, len(out), _GEMM_ROWS)
    )


def _fold_views(sums: np.ndarray, small: np.ndarray, word: np.ndarray) -> tuple:
    """:func:`_fold_into`'s operands: ``sums`` the ``[S0, S1]`` ``int64``
    planes, ``small`` and ``word`` two ``int64`` scratch planes."""
    s0, s1 = sums
    return s0, s1, s1.view(np.uint64), small, small.view(np.uint64), word.view(np.uint64)


class _Scratch:
    """The batched permutation's scratch on one workspace: one arena
    sized for ``_PERMUTE_ROWS`` rows, and per batch size the views of
    it that a pass runs on (:meth:`block`), sliced once so a layer is a
    straight run of ufunc calls on contiguous operands.  Every batch
    size carves the same memory from the start, so nothing in the arena
    outlives a pass: even the limb buffer's constant-one column, which
    no pass writes, is written afresh by every :meth:`block` call.
    """

    def __init__(self, ws: gl64.Workspace, rows: int) -> None:
        self.sbox = ws.temp((gl64.POW7_PLANES * rows * WIDTH,), "permute:sbox")
        self.limbs = ws.temp((rows, _GEMM_DEPTH), "permute:limbs", np.float64)
        self.fed = ws.temp((rows, _LIMBS * PARTIAL_ROUNDS), "permute:fed", np.float64)
        self.acc = ws.temp((2 * rows * (PARTIAL_ROUNDS + WIDTH),), "permute:acc", np.float64)
        self.fold = ws.temp((4 * rows * WIDTH,), "permute:fold", np.int64)
        self.bases = ws.temp((2 * PARTIAL_ROUNDS * rows,), "permute:bases", np.int64)
        self._blocks: dict = {}

    def block(self, b: int) -> tuple:
        """``(full-state S-box lanes, full-layer views, partial-block
        plan, a spare (b, 12) plane)`` for ``b <= _PERMUTE_ROWS``
        states; the middle two are what :func:`_matmul_into` and
        :func:`_partial_block_into` run on."""
        self.limbs[:b, -1] = 1.0
        blk = self._blocks.get(b)
        if blk is None:
            planes = gl64.POW7_PLANES
            limbs = self.limbs[:b]
            # A full layer's GEMM lands as (b, [S0 | S1]) columns and is
            # gathered into two contiguous (b, 12) planes, with two more
            # for the fold.
            acc = self.acc[: 2 * b * WIDTH].reshape(b, 2, WIDTH)
            sums = self.fold[: 2 * b * WIDTH].reshape(2, b, WIDTH)
            spare = self.fold[2 * b * WIDTH :]
            parts = spare[: 2 * b * WIDTH].reshape(2, b, WIDTH)
            halves = np.moveaxis(acc, 1, 0)
            fold = _fold_views(sums, *parts)
            acc_rows = acc.reshape(b, -1)
            affine = (limbs[:, :-1], _row_blocks(limbs, acc_rows), (sums, halves, sums[0]), fold)

            # The partial block.  The base GEMM's (b, [S0 | S1], [22
            # rounds | 12 lanes]) columns are gathered round-major (a
            # round's [S0, S1] are two contiguous (b,) vectors) and into
            # the full layers' planes; a round's vectors live in the
            # spare planes, as do the closing GEMMs' int64 parts.
            _, _, base_table, feedback, closing = _fused_tables()
            base_acc = self.acc[: 2 * b * (PARTIAL_ROUNDS + WIDTH)].reshape(b, 2, -1)
            bases = self.bases[: 2 * PARTIAL_ROUNDS * b].reshape(2, PARTIAL_ROUNDS, b)
            fed = self.fed[:b]
            dot = self.acc[: 2 * b].reshape(b, 2)
            part, small, word, lane0 = np.split(spare[: 5 * b], (2 * b, 3 * b, 4 * b))
            part, lane0 = part.reshape(2, b), lane0.view(np.uint64)
            rounds = tuple(
                (
                    tuple(
                        (_row_blocks(fed[:, lo:hi], dot), table, part, dot.T, bases[:, r])
                        for lo, hi, table in chunks
                    ),
                    _fold_views(bases[:, r], small, word),
                    fed[:, _LIMBS * r : _LIMBS * (r + 1)],
                )
                for r, chunks in enumerate(feedback)
            )
            chain = (
                limbs[:, :-1],
                (_row_blocks(limbs, base_acc.reshape(b, -1)), base_table),
                (
                    (bases, np.moveaxis(base_acc[:, :, :PARTIAL_ROUNDS], 0, 2), bases[0]),
                    (sums, np.moveaxis(base_acc[:, :, PARTIAL_ROUNDS:], 1, 0), sums[0]),
                ),
                rounds,
                lane0,
                lane0.view(np.uint16).reshape(b, _LIMBS),
                None
                if b <= _SBOX_SCALAR_ROWS
                else gl64.pow7_lanes(self.sbox[: planes * b].reshape(planes, b)),
                tuple(
                    (_row_blocks(fed[:, lo:hi], acc_rows), table, parts, halves, sums)
                    for lo, hi, table in closing
                ),
                fold,
            )
            blk = self._blocks[b] = (
                gl64.pow7_lanes(self.sbox[: planes * b * WIDTH].reshape(planes, b, WIDTH)),
                affine,
                chain,
                fold[-1],
            )
        return blk


def _gemm(blocks: tuple, table: np.ndarray) -> None:
    """``out rows <- operand rows @ table`` per :func:`_row_blocks` pair."""
    for rows, out in blocks:
        np.matmul(rows, table, out)


def _gather_into(planes: np.ndarray, columns: np.ndarray, s0: np.ndarray) -> None:
    """``planes <- columns``, a GEMM's exact float64 sums as ``int64``
    ``[S0, S1]`` planes; ``s0`` (``planes[0]``) gets the bias its table
    left out."""
    np.copyto(planes, columns, casting="unsafe")
    np.add(s0, _FOLD_BIAS_I64, s0)


def _feed_into(feeds: tuple) -> None:
    """``sums += operand @ table`` per ``(GEMM blocks, table, int64
    scratch, the GEMM's output as [S0, S1] planes, sums)``: each GEMM is
    exact on its own and the ``int64`` sums take any number of them."""
    for blocks, table, part, columns, sums in feeds:
        _gemm(blocks, table)
        np.copyto(part, columns, casting="unsafe")
        np.add(sums, part, sums)


def _fold_into(fold: tuple, out: np.ndarray) -> None:
    """``out <- `` a ``uint64`` representative of ``S0 + S1 * 2**32 -
    2**57`` (mod p) for the biased ``int64`` planes of
    :func:`_fold_views`, with a single lazy reduction.

    Writing ``S1 = h * 2**32 + l`` and using ``2**64 = 2**32 - 1 (mod
    p)`` the value is ``(l << 32) + (S0 + h * (2**32 - 1))``: a
    canonical word plus a term that the bias in ``S0`` makes
    non-negative (and keeps below ``2**58``), so one ``add_lazy_into``
    finishes it.  Aliasing: ``out`` must not alias the planes, which
    are left clobbered.
    """
    s0, s1, s1u, small, smallu, word = fold
    np.right_shift(s1, _I32, small)  # h = floor(S1 / 2**32), signed
    np.multiply(small, _EPSILON_I64, small)
    np.add(small, s0, small)  # now in [0, 2**58)
    np.left_shift(s1u, _U32, word)  # l << 32 <= p - 1
    gl64.add_lazy_into(smallu, word, out, s1u)


def _matmul_into(states: np.ndarray, weights: np.ndarray, affine: tuple) -> None:
    """``states <- `` a ``uint64`` representative of ``states @ M + c``
    (mod p) per lane, in place on a ``(B, 12)`` buffer of *any*
    ``uint64`` representatives, as one exact float64 GEMM with a single
    lazy reduction per lane.  ``affine`` is the second item of
    :meth:`_Scratch.block` for ``B`` rows.

    ``weights`` is the :func:`_limb_weights` table of ``(M, c)``.  The
    state is viewed as ``4 * 12`` 16-bit limbs -- of whatever 64-bit
    word represents each lane, the table's rows carry the limbs' powers
    of two mod p -- and multiplied, in float64, by signed 32-bit weight
    limbs: every product is below ``2**47`` in magnitude and an output
    limb sums 48 of them plus one constant, so every partial sum is an
    integer below ``2**53`` and the GEMM is exact whatever order BLAS
    adds in.  That leaves ``S0 + S1 * 2**32`` per lane, which
    :func:`_fold_into` reduces.

    Aliasing: ``states`` is both input and output (it is fully consumed
    into the limb scratch before the final write) and must have
    contiguous rows; ``weights`` must not overlap it.
    """
    limbs, blocks, gather, fold = affine
    np.copyto(limbs, states.view(np.uint16))
    _gemm(blocks, weights)
    _gather_into(*gather)
    _fold_into(fold, states)


def _partial_block_into(states: np.ndarray, chain: tuple) -> None:
    """The 22 partial rounds as the lane-0 chain of
    :func:`_chain_matrices`, in place on the ``(B, 12)`` state entering
    them (any ``uint64`` representatives in and out).  ``chain`` is the
    third item of :meth:`_Scratch.block` for ``B`` rows.

    One base GEMM on the state's limbs yields every round's S-box-input
    base and ``x_0 @ A + kx``, gathered as biased ``int64`` sums.  Round
    ``r`` adds to its base the feedback of the earlier S-box outputs --
    a ``(4 r -> 2)`` limb GEMM, exact because an operand stops at 60
    limbs, a second operand's sums joining as ``int64`` -- folds once,
    S-boxes the ``(B,)`` lane-0 vector (at most ``_SBOX_SCALAR_ROWS``
    rows: a Python ``pow`` each) and files the result's four limbs for
    the rounds after it.  The closing GEMMs take all 88 filed limbs to
    the 12 output lanes the same way.  A sum is at most 133 products
    and a constant, below ``2**55``, and its fold term stays inside the
    bias (``tests/test_poseidon.py`` derives both from the tables).

    Aliasing: as :func:`_matmul_into`; a state never leaves its row of
    any buffer, so row blocking stays bit-exact.
    """
    limbs, base, gathers, rounds, lane0, lane0_limbs, lanes, closing, fold = chain
    np.copyto(limbs, states.view(np.uint16))
    _gemm(*base)
    for gather in gathers:
        _gather_into(*gather)
    p = gl.P
    for feeds, lane0_fold, filed in rounds:
        _feed_into(feeds)
        _fold_into(lane0_fold, lane0)
        if lanes is None:
            lane0[:] = [pow(v, 7, p) for v in lane0.tolist()]
        else:
            gl64.pow7_lazy_into(lane0, lane0, lanes)
        np.copyto(filed, lane0_limbs)
    _feed_into(closing)
    _fold_into(fold, states)


def permute_into(states: np.ndarray) -> np.ndarray:
    """The Poseidon permutation, in place on a writable (..., 12) buffer
    of canonical states with contiguous rows.

    This is the zero-copy engine behind :func:`permute` and the fused
    Merkle level sweep: four full layers -- an S-box on every lane,
    then one :func:`_matmul_into` -- the partial block as one
    :func:`_partial_block_into`, and four more full layers, with all
    round constants folded into the tables, on scratch views planned
    once per batch size (:class:`_Scratch`).  Between layers a lane is
    *any* ``uint64`` congruent to its value -- the S-box multiplies and
    the limb GEMMs are exact for every 64-bit representative -- and the
    state is canonicalised once, after the last layer.  Small batches
    dispatch to the Python-int scalar path (extensionally equal).
    """
    if states.shape[-1] != WIDTH:
        raise ValueError(f"state width must be {WIDTH}, got {states.shape[-1]}")
    flat = states.reshape(-1, WIDTH)
    if flat.shape[0] <= _SCALAR_ROWS:
        for i in range(flat.shape[0]):
            flat[i] = permute_scalar(flat[i].tolist())
        return states
    if flat.shape[0] > _PERMUTE_ROWS:
        for start in range(0, flat.shape[0], _PERMUTE_ROWS):
            permute_into(flat[start : start + _PERMUTE_ROWS])
        return states
    scratch = RUN.workspace.plan("permute", _PERMUTE_ROWS, _Scratch)
    full, affine, chain, spare = scratch.block(flat.shape[0])
    rc0, weights = _fused_tables()[:2]
    gl64.add_lazy_into(flat, rc0, flat, spare)
    for table in weights[:HALF_FULL]:
        gl64.pow7_lazy_into(flat, flat, full)
        _matmul_into(flat, table, affine)
    _partial_block_into(flat, chain)
    for table in weights[HALF_FULL:]:
        gl64.pow7_lazy_into(flat, flat, full)
        _matmul_into(flat, table, affine)
    gl64.canonical_into(flat, flat, spare)
    return states


def permute(states: np.ndarray) -> np.ndarray:
    """The Poseidon permutation, optimised form (default for the sponge).

    Extensionally equal to :func:`repro.hashing.poseidon.permute_naive`.
    Allocates a fresh output; the hot paths call :func:`permute_into`
    on a reused buffer.
    """
    states = np.array(states, dtype=np.uint64, copy=True)
    return permute_into(states)
