"""HADES-optimised Poseidon: sparse partial rounds (paper Algorithm 1).

The naive partial round multiplies by the dense MDS matrix every round.
Because only lane 0 passes through an S-box, the 22 dense multiplies can
be refactored into one dense *pre-matrix* (``PreMDSMatrix``) followed by
22 *sparse* matrices (``SparseMDSMatrix``) whose non-zeros sit only in
the first row, first column, and diagonal -- precisely the structure
UniZK's partial-round mapping exploits with its ``u`` / ``v`` / diagonal
decomposition and reverse links (Figure 5b).

Derivation (row-vector convention, ``state <- state @ M``):

* Matrices.  Factor ``M = M' @ M''`` with ``M' = [[1, 0], [0, Hat]]``
  (lane-0-preserving) and ``M'' = [[m00, r], [Hat^-1 c, I]]`` (sparse).
  ``M'`` commutes with the lane-0 S-box, so peeling from the last round
  backwards and absorbing each ``M'`` into the previous round's matrix
  (``M_{k-1} = M @ M'_k``) leaves one dense lane-0-preserving pre-matrix
  in front and a sparse matrix per round.
* Constants.  The naive per-round constant vectors are replaced by one
  pre-constant vector plus one post-S-box scalar per round.  Both chains
  present identical lane-0 values to each S-box, so the unknown
  constants satisfy a *linear* system: match the constant offset at
  every S-box input and at the block output.  We build the 34x34 system
  by evaluating the transformed chain on unit vectors and solve it
  exactly over GF(p).

Equivalence with the naive permutation is property-tested.

The sparse form is what the scalar path (:func:`permute_scalar`) and the
hardware mapping run: there a multiply is the unit of cost.  The batched
path (:func:`permute_into`) maps every layer's linear part onto the
host's matrix unit instead, as one exact float64 limb GEMM with a single
reduction per output lane (:func:`_matmul_into`, the software analogue of
the VSA matrix product with the reduction at the array edge, paper
Fig. 5a); a GEMM costs the same for a sparse matrix as for a dense one,
so that path keeps the plain round structure.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..field import gl64, goldilocks as gl, matrix as fm
from .constants import PARTIAL_ROUNDS, WIDTH, mds_matrix, round_constants
from .poseidon import FULL_ROUNDS, HALF_FULL, full_round


@dataclass(frozen=True)
class SparseRound:
    """One optimised partial round: S-box lane 0, add ``post_constant`` to
    lane 0, then multiply by the sparse matrix ``(m00, row, col_hat)``.

    ``row`` feeds lane 0 into every output lane (the paper's ``u``);
    ``col_hat`` is dotted against the state to form output lane 0 (the
    paper's ``v``); the diagonal is the identity (the paper's ``E``).
    """

    m00: int
    row: np.ndarray  # (WIDTH-1,)  first row beyond [0,0]
    col_hat: np.ndarray  # (WIDTH-1,)  first column beyond [0,0]
    post_constant: int


@dataclass(frozen=True)
class OptimizedParams:
    """All derived tensors of the optimised permutation."""

    pre_constants: np.ndarray  # (WIDTH,) added before the pre-matrix
    pre_matrix: np.ndarray  # (WIDTH, WIDTH) lane-0-preserving dense matrix
    rounds: tuple[SparseRound, ...]


def _vec_mat(vec: list[int], matrix: np.ndarray) -> list[int]:
    """Row vector times matrix with Python-int accumulation."""
    m = matrix.tolist()
    n = len(m)
    cols = len(m[0])
    return [gl.canonical(sum(vec[i] * m[i][j] for i in range(n))) for j in range(cols)]


def _derive_matrices() -> tuple[np.ndarray, list[tuple[int, np.ndarray, np.ndarray]]]:
    """Peel the sparse factors; returns (pre_matrix, sparse descriptors).

    Descriptors are ordered first-round-first.
    """
    mds = mds_matrix()
    sparse: list[tuple[int, np.ndarray, np.ndarray]] = []
    m_k = mds.copy()  # M_R
    pre = None
    for k in range(PARTIAL_ROUNDS, 0, -1):
        hat = m_k[1:, 1:].copy()
        row = m_k[0, 1:].copy()
        col = m_k[1:, 0]
        m00 = int(m_k[0, 0])
        col_hat = np.array(fm.matvec(fm.inverse(hat), col.tolist()), dtype=np.uint64)
        sparse.append((m00, row, col_hat))
        m_prime = np.zeros((WIDTH, WIDTH), dtype=np.uint64)
        m_prime[0, 0] = 1
        m_prime[1:, 1:] = hat
        if k > 1:
            # Absorb the lane-0-preserving factor into the previous round.
            m_k = fm.matmul(mds, m_prime)
        else:
            # Nothing precedes round 1: its M' survives as the pre-matrix.
            pre = m_prime
    sparse.reverse()  # appended last-round-first; return first-round-first
    return pre, sparse


def _transformed_offsets(
    pre_c: list[int],
    post_c: list[int],
    pre_matrix: np.ndarray,
    sparse: list[tuple[int, np.ndarray, np.ndarray]],
) -> list[int]:
    """Constant offsets of the transformed chain: lane-0 offset at each
    S-box input followed by the WIDTH output offsets."""
    state = _vec_mat(pre_c, pre_matrix)
    offsets: list[int] = []
    for k in range(PARTIAL_ROUNDS):
        offsets.append(state[0])
        state[0] = post_c[k]  # S-box output is a fresh variable; then + d_k
        m00, row, col_hat = sparse[k]
        out0 = gl.canonical(state[0] * m00 + sum(int(c) * s for c, s in zip(col_hat, state[1:])))
        rest = [gl.canonical(state[0] * int(r) + state[j + 1]) for j, r in enumerate(row)]
        state = [out0] + rest
    return offsets + state


def _naive_offsets() -> list[int]:
    """Constant offsets of the naive chain (same observable positions)."""
    _, partial_rc = round_constants()
    mds = mds_matrix()
    state = [0] * WIDTH
    offsets: list[int] = []
    for k in range(PARTIAL_ROUNDS):
        state = [gl.canonical(s + int(c)) for s, c in zip(state, partial_rc[k])]
        offsets.append(state[0])
        state[0] = 0  # S-box output becomes a fresh variable
        state = _vec_mat(state, mds)
    return offsets + state


def _derive_constants(
    pre_matrix: np.ndarray, sparse: list[tuple[int, np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, list[int]]:
    """Solve the linear system matching the naive chain's offsets."""
    n_unknowns = WIDTH + PARTIAL_ROUNDS

    def apply(z: list[int]) -> list[int]:
        return _transformed_offsets(z[:WIDTH], z[WIDTH:], pre_matrix, sparse)

    # Build the system column by column (the map is linear in z).
    cols = []
    for i in range(n_unknowns):
        unit = [0] * n_unknowns
        unit[i] = 1
        cols.append(apply(unit))
    a = np.array(cols, dtype=np.uint64).T  # (n_eq, n_unknowns)
    target = _naive_offsets()
    a_inv = fm.inverse(a)
    solution = fm.matvec(a_inv, target)
    pre_constants = np.array(solution[:WIDTH], dtype=np.uint64)
    post_constants = [int(v) for v in solution[WIDTH:]]
    return pre_constants, post_constants


@lru_cache(maxsize=1)
def optimized_params() -> OptimizedParams:
    """Derive (and cache) the optimised Poseidon parameters."""
    pre_matrix, sparse = _derive_matrices()
    pre_constants, post_constants = _derive_constants(pre_matrix, sparse)
    rounds = tuple(
        SparseRound(m00=m00, row=row, col_hat=col_hat, post_constant=post)
        for (m00, row, col_hat), post in zip(sparse, post_constants)
    )
    return OptimizedParams(
        pre_constants=pre_constants, pre_matrix=pre_matrix, rounds=rounds
    )


def sparse_round_apply(states: np.ndarray, rnd: SparseRound) -> np.ndarray:
    """Apply one sparse partial round to a batch of states.

    Mirrors the Figure 5b dataflow: lane 0 is S-boxed and shifted by the
    post-constant (first PE column), output lane 0 is the ``v`` dot
    product (second column, accumulated via reverse links), and the other
    lanes get ``state[0] * u[j] + state[j]`` (third column).
    """
    lane0 = gl64.add(gl64.pow7(states[..., 0]), np.uint64(rnd.post_constant))
    out = np.empty_like(states)
    rest = states[..., 1:]
    dot = gl64.sum_along_axis(gl64.mul(rest, rnd.col_hat), axis=-1)
    out[..., 0] = gl64.add(gl64.mul(lane0, np.uint64(rnd.m00)), dot)
    out[..., 1:] = gl64.add(gl64.mul(lane0[..., None], rnd.row), rest)
    return out


#: Bits per slot of the packed (Kronecker-substituted) MDS product: a
#: slot sums ``WIDTH`` products of two 64-bit words, below ``2**132``.
_SLOT = 136
_SLOT_MASK = (1 << _SLOT) - 1
#: Bit offset of output lane ``j`` in the packed product.
_OUT_SHIFTS = tuple(_SLOT * (WIDTH - 1 + j) for j in range(WIDTH))


@lru_cache(maxsize=1)
def _scalar_tables():
    """Python-int copies of all round tensors for the scalar fast path.

    The Cauchy MDS matrix is Hankel -- ``M[i][j] = 1 / (i + j + 12) =
    h[i + j]`` -- so ``state @ M`` is a polynomial product: with the
    state packed high lane first (lane ``i`` in slot ``11 - i``) and
    ``h`` packed low entry first, slot ``11 + j`` of the big-int product
    is ``sum_i state[i] * h[i + j]``.  The pre-matrix is stored
    transposed (column tuples) for the row-vector dot products.
    """
    params = optimized_params()
    full_rc, _ = round_constants()
    mds = mds_matrix().tolist()
    h = mds[0] + mds[-1][1:]
    assert all(mds[i][j] == h[i + j] for i in range(WIDTH) for j in range(WIDTH))
    hankel = sum(v << (_SLOT * k) for k, v in enumerate(h))
    pre_t = tuple(tuple(int(v) for v in col) for col in zip(*params.pre_matrix.tolist()))
    full = [tuple(int(v) for v in row) for row in full_rc.tolist()]
    pre_c = tuple(int(v) for v in params.pre_constants)
    rounds = [
        (r.m00, tuple(int(v) for v in r.row), tuple(int(v) for v in r.col_hat), r.post_constant)
        for r in params.rounds
    ]
    return hankel, pre_t, full, pre_c, rounds


def permute_scalar(state: list[int]) -> list[int]:
    """Scalar (Python-int) permutation for single states.

    NumPy's per-call overhead dominates on 12-element arrays, so the
    duplex challenger -- one state at a time by construction -- runs
    here (~4x faster for batch size 1), as does any
    :func:`permute_into` batch of at most ``_SCALAR_ROWS`` states.  The
    verifiers batch their Merkle checks by level
    (:func:`repro.merkle.verify_paths`) and reach this path only where a
    level has that few nodes left.  Also the differential oracles'
    reference.
    """
    p = gl.P
    hankel, pre_t, full, pre_c, rounds = _scalar_tables()
    mul = operator.mul

    def full_rounds(s, lo, hi):
        for rc in full[lo:hi]:
            packed = 0
            for v, c in zip(s, rc):
                packed = packed << _SLOT | pow(v + c, 7, p)
            packed *= hankel
            s = [(packed >> k & _SLOT_MASK) % p for k in _OUT_SHIFTS]
        return s

    state = full_rounds(state, 0, HALF_FULL)
    state = [v + c for v, c in zip(state, pre_c)]
    state = [sum(map(mul, state, col)) % p for col in pre_t]
    for m00, row, col_hat, post in rounds:
        lane0 = pow(state[0], 7, p) + post
        rest = state[1:]
        state = [(lane0 * m00 + sum(map(mul, rest, col_hat))) % p]
        state += [(lane0 * r + v) % p for r, v in zip(row, rest)]
    return full_rounds(state, HALF_FULL, FULL_ROUNDS)


#: 16-bit limbs per state lane (what a float64 GEMM can carry exactly).
_LIMBS = 4
#: GEMM depth: every lane limb plus the constant-one column whose weight
#: row carries the layer's addend.
_GEMM_DEPTH = _LIMBS * WIDTH + 1
#: Rows per ``np.matmul`` call.  One GEMM over >= 1024 rows wakes
#: OpenBLAS's thread pool (measured 7.4 ms for 4096 rows against 0.26 ms
#: as sixteen 256-row calls on a 2-vCPU host); small blocks stay on the
#: calling thread, which also keeps a proof's CPU seconds honest.
_GEMM_ROWS = 256
#: Rows per pass of the whole permutation, and of the one scratch arena
#: (:class:`_Scratch`, ~2.3 KB a row).  Rows are independent, so
#: blocking is bit-exact.  Measured on 8192 states, best quartile us a
#: state at 256 / 512 / 1024 / 2048 / 4096 rows: 12.7 / 9.8 / 9.4 /
#: 10.3 / 12.4 -- below 512 the ~2 300 calls a block show, above 2048
#: the scratch leaves this host's 2 MiB-a-core L2; 512 to 2048 tie
#: within noise and 1024 keeps the arena at 2.3 MiB (EXPERIMENTS.md
#: "Poseidon at the dispatch floor").
_PERMUTE_ROWS = 1024
#: Batch size at or below which :func:`permute_into` runs the Python-int
#: scalar permutation per state.  Measured: the scalar path costs 215 us
#: a state, the vectorised pass a flat ~0.90 ms for 2 to 8 states -- 4
#: states 0.86 vs 0.93 ms, 5 states 1.08 vs 0.91 ms (EXPERIMENTS.md
#: "Poseidon at the dispatch floor").
_SCALAR_ROWS = 4
#: The addend row is stored as ``addend - 2**54`` and the bias is added
#: back as a plain integer after the fold, which keeps the signed fold
#: term non-negative (see :func:`_matmul_into`).
_FOLD_BIAS = 1 << 54
#: Layers of one permutation, each an S-box step and one affine map.
_LAYERS = FULL_ROUNDS + PARTIAL_ROUNDS

_I32 = gl64.operand(32, np.int64)
_U32 = gl64.operand(32)
_EPSILON_I64 = gl64.operand(gl.EPSILON, np.int64)
_FOLD_BIAS_I64 = gl64.operand(_FOLD_BIAS, np.int64)


def _signed_limbs(value: int) -> tuple[int, int]:
    """``(lo, hi)`` with ``lo + hi * 2**32 = value (mod p)`` and both
    limbs in ``[-2**31, 2**31]``: the balanced representative of
    ``value`` split at bit 32 with a balanced low half."""
    v = gl.canonical(value)
    if v >= 1 << 63:
        v -= gl.P
    lo = ((v + (1 << 31)) & 0xFFFF_FFFF) - (1 << 31)
    return lo, (v - lo) >> 32


def _limb_weights(matrix, addend, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` -- a ``(_GEMM_DEPTH, 2 * WIDTH)`` float64 table --
    with the limb-GEMM weights of ``state -> state @ matrix + addend``.

    Row ``4 * i + a`` holds, for every output lane ``j``, the signed
    32-bit limbs of ``matrix[i][j] * 2**(16 a) mod p`` (low limbs in
    columns ``[:WIDTH]``, high limbs in ``[WIDTH:]``): the power of two
    that limb ``a`` of lane ``i`` stands for is folded into the constant,
    so the product needs only two output limbs per lane.  The last row
    holds ``addend - 2**54`` the same way.  ``matrix`` is ``WIDTH`` rows
    of Python ints, ``addend`` ``WIDTH`` Python ints.
    """
    little = sys.byteorder == "little"  # limb order of the uint16 view
    for i, row in enumerate(matrix):
        for a in range(_LIMBS):
            r = _LIMBS * i + (a if little else _LIMBS - 1 - a)
            for j, m in enumerate(row):
                out[r, j], out[r, WIDTH + j] = _signed_limbs(m << (16 * a))
    for j, c in enumerate(addend):
        out[-1, j], out[-1, WIDTH + j] = _signed_limbs(c - _FOLD_BIAS)
    return out


@lru_cache(maxsize=1)
def _fused_tables():
    """``(rc0, weights)`` for the batched permutation.

    The batched path runs the permutation as ``state += rc0`` followed
    by ``_LAYERS`` layers of *S-box, then one affine map*, and
    ``weights[l]`` is layer ``l``'s map in :func:`_limb_weights` form:
    the MDS matrix plus the *next* round's pre-S-box constants
    (``(state @ M) + rc`` is exactly the next round's input; the last
    layer adds nothing).  A GEMM costs the same whatever the matrix's
    sparsity, so the partial rounds here are the plain ones -- lane-0
    S-box, dense MDS -- and the sparse factorisation above serves the
    scalar path and the hardware mapping, where multiplies are what
    cost.
    """
    full_rc, partial_rc = round_constants()
    consts = [*full_rc[:HALF_FULL], *partial_rc, *full_rc[HALF_FULL:]]
    addends = [c.tolist() for c in consts[1:]] + [[0] * WIDTH]
    mds = mds_matrix().tolist()
    weights = np.empty((_LAYERS, _GEMM_DEPTH, 2 * WIDTH), dtype=np.float64)
    for table, addend in zip(weights, addends):
        _limb_weights(mds, addend, table)
    rc0 = np.ascontiguousarray(consts[0])
    for arr in (rc0, weights):
        arr.flags.writeable = False
    return rc0, weights


class _Scratch:
    """The batched permutation's scratch on one workspace: one arena
    sized for ``_PERMUTE_ROWS`` rows, and per batch size the views of
    it that a pass runs on (:meth:`block`), sliced once so a layer is a
    straight run of ufunc calls on contiguous operands.  Every batch
    size carves the same memory from the start, so nothing in the arena
    outlives a pass -- except the limb buffer's constant-one column,
    which no pass writes.
    """

    def __init__(self, ws: gl64.Workspace, rows: int) -> None:
        self.sbox = ws.temp((gl64.POW7_PLANES * rows * WIDTH,), "permute:sbox")
        self.limbs = ws.temp((rows, _GEMM_DEPTH), "permute:limbs", np.float64)
        self.acc = ws.temp((rows, 2 * WIDTH), "permute:acc", np.float64)
        self.fold = ws.temp((4 * rows * WIDTH,), "permute:fold", np.int64)
        self.ones = 0  # rows whose constant-one limb is written
        _, weights = _fused_tables()
        partial = range(HALF_FULL, HALF_FULL + PARTIAL_ROUNDS)
        #: ``(lane-0 S-box only?, limb-GEMM table)`` per layer.
        self.layers = tuple((i in partial, w) for i, w in enumerate(weights))
        self._blocks: dict = {}

    def block(self, b: int) -> tuple:
        """``(full-state S-box lanes, lane-0 S-box lanes, affine views,
        a spare (b, 12) plane)`` for ``b <= _PERMUTE_ROWS`` states."""
        blk = self._blocks.get(b)
        if blk is None:
            if b > self.ones:
                self.limbs[self.ones : b, -1] = 1.0
                self.ones = b
            limbs, acc = self.limbs[:b], self.acc[:b]
            gemms = tuple(
                (limbs[i : i + _GEMM_ROWS], acc[i : i + _GEMM_ROWS])
                for i in range(0, b, _GEMM_ROWS)
            )
            # The GEMM's (b, [S0 | S1]) columns land as two contiguous
            # (b, 12) planes, with two more for the fold.
            sums = self.fold[: 2 * b * WIDTH].reshape(2, b, WIDTH)
            small, word = self.fold[2 * b * WIDTH : 4 * b * WIDTH].reshape(2, b, WIDTH)
            affine = (
                limbs[:, :-1], gemms, sums, np.moveaxis(acc.reshape(b, 2, WIDTH), 1, 0),
                sums[0], sums[1], sums[1].view(np.uint64),
                small, small.view(np.uint64), word.view(np.uint64),
            )
            planes = gl64.POW7_PLANES
            blk = self._blocks[b] = (
                gl64.pow7_lanes(self.sbox[: planes * b * WIDTH].reshape(planes, b, WIDTH)),
                gl64.pow7_lanes(self.sbox[: planes * b].reshape(planes, b)),
                affine,
                affine[-1],
            )
        return blk


def _matmul_into(states: np.ndarray, weights: np.ndarray, affine: tuple) -> None:
    """``states <- `` a ``uint64`` representative of ``states @ M + c``
    (mod p) per lane, in place on a ``(B, 12)`` buffer of *any*
    ``uint64`` representatives, as one exact float64 GEMM with a single
    lazy reduction per lane.  ``affine`` is the third item of
    :meth:`_Scratch.block` for ``B`` rows.

    ``weights`` is the :func:`_limb_weights` table of ``(M, c)``.  The
    state is viewed as ``4 * 12`` 16-bit limbs -- of whatever 64-bit
    word represents each lane, the table's rows carry the limbs' powers
    of two mod p -- and multiplied, in float64, by signed 32-bit weight
    limbs: every product is below ``2**47`` in magnitude and an output
    limb sums 48 of them plus one constant, so every partial sum is an
    integer below ``2**53`` and the GEMM is exact whatever order BLAS
    adds in.  That leaves ``S0 + S1 * 2**32`` per lane; writing ``S1 =
    h * 2**32 + l`` and using ``2**64 = 2**32 - 1 (mod p)`` it equals
    ``(l << 32) + (S0 + h * (2**32 - 1))``: a canonical word plus a term
    of magnitude below ``2**54``, made non-negative by the bias the table
    builder subtracted, so one ``add_lazy_into`` finishes the lane.

    Aliasing: ``states`` is both input and output (it is fully consumed
    into the limb scratch before the final write) and must have
    contiguous rows; ``weights`` must not overlap it.
    """
    limbs, gemms, sums, halves, s0, s1, s1u, small, smallu, word = affine
    np.copyto(limbs, states.view(np.uint16))
    for rows, out in gemms:
        np.matmul(rows, weights, out)
    np.copyto(sums, halves, casting="unsafe")  # [S0, S1] as planes
    np.right_shift(s1, _I32, small)  # h = floor(S1 / 2**32), signed
    np.multiply(small, _EPSILON_I64, small)
    np.add(small, s0, small)
    np.add(small, _FOLD_BIAS_I64, small)  # now in [0, 2**55)
    np.left_shift(s1u, _U32, word)  # l << 32 <= p - 1
    gl64.add_lazy_into(smallu, word, states, s1u)


def permute_into(states: np.ndarray, ws: gl64.Workspace | None = None) -> np.ndarray:
    """The Poseidon permutation, in place on a writable (..., 12) buffer
    of canonical states with contiguous rows.

    This is the zero-copy engine behind :func:`permute` and the fused
    Merkle level sweep: every layer is an S-box (all lanes in the full
    rounds, lane 0 in the partial block) followed by one
    :func:`_matmul_into`, with all round constants folded into the
    layer tables, on scratch views planned once per batch size
    (:class:`_Scratch`).  Between layers a lane is *any* ``uint64``
    congruent to its value -- the S-box multiplies and the limb GEMM
    are exact for every 64-bit representative -- and the state is
    canonicalised once, after the last layer.  Small batches dispatch
    to the Python-int scalar path (extensionally equal).
    """
    if states.shape[-1] != WIDTH:
        raise ValueError(f"state width must be {WIDTH}, got {states.shape[-1]}")
    flat = states.reshape(-1, WIDTH)
    if flat.shape[0] <= _SCALAR_ROWS:
        for i in range(flat.shape[0]):
            flat[i] = permute_scalar(flat[i].tolist())
        return states
    ws = ws or gl64.default_workspace()
    if flat.shape[0] > _PERMUTE_ROWS:
        for start in range(0, flat.shape[0], _PERMUTE_ROWS):
            permute_into(flat[start : start + _PERMUTE_ROWS], ws)
        return states
    scratch = ws.plan("permute", _PERMUTE_ROWS, _Scratch)
    full, lane0_lanes, affine, spare = scratch.block(flat.shape[0])
    lane0 = flat[:, 0]
    gl64.add_lazy_into(flat, _fused_tables()[0], flat, spare)
    for partial, weights in scratch.layers:
        if partial:
            gl64.pow7_lazy_into(lane0, lane0, lane0_lanes)
        else:
            gl64.pow7_lazy_into(flat, flat, full)
        _matmul_into(flat, weights, affine)
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
