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


@lru_cache(maxsize=1)
def _scalar_tables():
    """Python-int copies of all round tensors for the scalar fast path.

    Matrices are stored transposed (column-major tuples) so the row
    vector x matrix products index them directly.
    """
    params = optimized_params()
    full_rc, _ = round_constants()
    mds_t = tuple(tuple(int(v) for v in col) for col in zip(*mds_matrix().tolist()))
    pre_t = tuple(tuple(int(v) for v in col) for col in zip(*params.pre_matrix.tolist()))
    full = [tuple(int(v) for v in row) for row in full_rc.tolist()]
    pre_c = tuple(int(v) for v in params.pre_constants)
    rounds = [
        (r.m00, tuple(int(v) for v in r.row), tuple(int(v) for v in r.col_hat), r.post_constant)
        for r in params.rounds
    ]
    return mds_t, pre_t, full, pre_c, rounds


def permute_scalar(state: list[int]) -> list[int]:
    """Scalar (Python-int) permutation for single states.

    NumPy's per-call overhead dominates on 12-element arrays, so the
    duplex challenger -- one state at a time by construction -- runs
    here (~20x faster for batch size 1), as does any
    :func:`permute_into` batch of at most ``_SCALAR_ROWS`` states.  The
    verifiers batch their Merkle checks by level
    (:func:`repro.merkle.verify_paths`) and reach this path only where a
    level has that few nodes left.  Also the differential oracles'
    reference.
    """
    p = gl.P
    mds_t, pre_t, full, pre_c, rounds = _scalar_tables()
    rng = range(WIDTH)

    def full_rounds(s, lo, hi):
        for r in range(lo, hi):
            rc = full[r]
            s = [pow((v + c) % p, 7, p) for v, c in zip(s, rc)]
            s = [sum(s[i] * col[i] for i in rng) % p for col in mds_t]
        return s

    state = full_rounds(list(state), 0, HALF_FULL)
    state = [(v + c) % p for v, c in zip(state, pre_c)]
    state = [sum(state[i] * col[i] for i in rng) % p for col in pre_t]
    for m00, row, col_hat, post in rounds:
        lane0 = (pow(state[0], 7, p) + post) % p
        out0 = (lane0 * m00 + sum(state[i + 1] * col_hat[i] for i in range(WIDTH - 1))) % p
        state = [out0] + [(lane0 * row[j] + state[j + 1]) % p for j in range(WIDTH - 1)]
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
#: Rows per pass of the whole permutation.  Rows are independent, so
#: blocking is bit-exact; a layer's scratch is ~2.3 KB a row, so past
#: ~8k rows an unblocked pass streams tens of MB through every kernel
#: (measured 19-26 us a permutation at 8k-32k rows unblocked, 15-16 in
#: 2048-row blocks; at or below 2048 rows there is only one block).
_PERMUTE_ROWS = 2048
#: Batch size at or below which :func:`permute_into` runs the Python-int
#: scalar permutation per state: the vectorised pass costs the same flat
#: dispatch overhead for 1 to 16 states, and the two tie at 8 (measured,
#: EXPERIMENTS.md "Poseidon dense layers as limb GEMMs").
_SCALAR_ROWS = 8
#: The addend row is stored as ``addend - 2**54`` and the bias is added
#: back as a plain integer after the fold, which keeps the signed fold
#: term non-negative (see :func:`_matmul_into`).
_FOLD_BIAS = 1 << 54
#: Layers of one permutation, each an S-box step and one affine map.
_LAYERS = FULL_ROUNDS + PARTIAL_ROUNDS

_I32 = np.int64(32)
_U32 = np.uint64(32)
_EPSILON_I64 = np.int64(gl.EPSILON)
_FOLD_BIAS_I64 = np.int64(_FOLD_BIAS)


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


def _matmul_into(states: np.ndarray, weights: np.ndarray, ws: gl64.Workspace) -> None:
    """``states <- states @ M + c`` in place on a canonical ``(B, 12)``
    buffer, as one exact float64 GEMM with a single reduction per lane.

    ``weights`` is the :func:`_limb_weights` table of ``(M, c)``.  The
    state is viewed as ``4 * 12`` 16-bit limbs and multiplied, in
    float64, by signed 32-bit weight limbs: every product is below
    ``2**47`` in magnitude and an output limb sums 48 of them plus one
    constant, so every partial sum is an integer below ``2**53`` and the
    GEMM is exact whatever order BLAS adds in.  That leaves
    ``S0 + S1 * 2**32`` per lane; writing ``S1 = h * 2**32 + l`` and
    using ``2**64 = 2**32 - 1 (mod p)`` it equals
    ``(l << 32) + (S0 + h * (2**32 - 1))``: a canonical word plus a term
    of magnitude below ``2**54``, made non-negative by the bias the table
    builder subtracted, so one ``add_into`` finishes the lane.

    Aliasing: ``states`` is both input and output (it is fully consumed
    into the limb scratch before the final write) and must have
    contiguous rows; ``weights`` must not overlap it.
    """
    b = states.shape[0]
    limbs = ws.temp((b, _GEMM_DEPTH), "pm:limbs", np.float64)
    np.copyto(limbs[:, :-1], states.view(np.uint16))
    limbs[:, -1] = 1.0
    acc = ws.temp((b, 2 * WIDTH), "pm:acc", np.float64)
    for start in range(0, b, _GEMM_ROWS):
        stop = start + _GEMM_ROWS
        np.matmul(limbs[start:stop], weights, out=acc[start:stop])
    sums = ws.temp((b, 2 * WIDTH), "pm:sums", np.int64)
    np.copyto(sums, acc, casting="unsafe")
    s0, s1 = sums[:, :WIDTH], sums[:, WIDTH:]
    fold = ws.temp((2, b, WIDTH), "pm:fold", np.int64)
    small, word = fold[0], fold[1].view(np.uint64)
    np.right_shift(s1, _I32, out=small)  # h = floor(S1 / 2**32), signed
    np.multiply(small, _EPSILON_I64, out=small)
    np.add(small, s0, out=small)
    np.add(small, _FOLD_BIAS_I64, out=small)  # now in [0, 2**55)
    np.left_shift(s1.view(np.uint64), _U32, out=word)  # l << 32 <= p - 1
    gl64.add_into(word, small.view(np.uint64), states, ws)


def permute_into(states: np.ndarray, ws: gl64.Workspace | None = None) -> np.ndarray:
    """The Poseidon permutation, in place on a writable (..., 12) buffer
    with contiguous rows.

    This is the zero-copy engine behind :func:`permute` and the fused
    Merkle level sweep: every layer is an S-box (all lanes in the full
    rounds, lane 0 in the partial block) followed by one
    :func:`_matmul_into`, with all round constants folded into the
    layer tables, and every intermediate lives in the workspace arena.
    Small batches dispatch to the Python-int scalar path (extensionally
    equal).
    """
    if states.shape[-1] != WIDTH:
        raise ValueError(f"state width must be {WIDTH}, got {states.shape[-1]}")
    flat = states.reshape(-1, WIDTH)
    if flat.shape[0] <= _SCALAR_ROWS:
        for i in range(flat.shape[0]):
            flat[i] = permute_scalar([int(v) for v in flat[i]])
        return states
    ws = ws or gl64.default_workspace()
    if flat.shape[0] > _PERMUTE_ROWS:
        for start in range(0, flat.shape[0], _PERMUTE_ROWS):
            permute_into(flat[start : start + _PERMUTE_ROWS], ws)
        return states
    rc0, weights = _fused_tables()
    lane0 = flat[:, 0]
    gl64.add_into(flat, rc0, flat, ws)
    for layer in range(_LAYERS):
        partial = HALF_FULL <= layer < HALF_FULL + PARTIAL_ROUNDS
        sbox = lane0 if partial else flat
        gl64.pow7_into(sbox, sbox, ws)
        _matmul_into(flat, weights[layer], ws)
    return states


def permute(states: np.ndarray) -> np.ndarray:
    """The Poseidon permutation, optimised form (default for the sponge).

    Extensionally equal to :func:`repro.hashing.poseidon.permute_naive`.
    Allocates a fresh output; the hot paths call :func:`permute_into`
    on a reused buffer.
    """
    states = np.array(states, dtype=np.uint64, copy=True)
    return permute_into(states)
