"""Sparse (HADES) Poseidon rounds: the partial-round block refactored
into one dense pre-matrix and 22 sparse matrices.

The naive permutation (:mod:`.poseidon`) multiplies by the dense MDS
matrix in every one of the 22 partial rounds although only lane 0
passes through an S-box there.  :func:`optimized_params` derives the
equivalent sparse form for the Poseidon AIR and the in-circuit gadget,
where a multiply or a constraint is the unit of cost; nothing on the
prove or verify path derives it (both permutation paths in
:mod:`.optimized` run the lane-0 chain).  The 22 dense multiplies are
refactored into one dense *pre-matrix* (``PreMDSMatrix``) followed by
22 *sparse* matrices (``SparseMDSMatrix``) whose non-zeros sit only in
the first row, first column, and diagonal -- precisely the structure
UniZK's partial-round mapping exploits with its ``u`` / ``v`` /
diagonal decomposition and reverse links (Figure 5b).  Equivalence
with the naive permutation is property-tested.  Derivation (row-vector
convention, ``state <- state @ M``):

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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..field import goldilocks as gl, matrix as fm
from .constants import PARTIAL_ROUNDS, WIDTH, mds_matrix, round_constants


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
