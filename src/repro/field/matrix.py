"""Dense matrix algebra over the Goldilocks field.

Used to construct and factor the Poseidon MDS matrices: the HADES
optimisation that turns the 22 partial rounds' dense MDS multiplies into
sparse matrices (Figure 5b's ``u`` / ``v`` / diagonal decomposition)
requires exact matrix inversion over GF(p).  Matrices are small (12x12),
so we favour clarity: Python-int Gauss-Jordan elimination.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from . import goldilocks as gl


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact field matrix product (Python ints; fine for small sizes)."""
    n, k = a.shape
    k2, m = b.shape
    if k != k2:
        raise ValueError("matmul dimension mismatch")
    a_int = a.tolist()
    b_int = b.tolist()
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        row = a_int[i]
        for j in range(m):
            acc = 0
            for t in range(k):
                acc += row[t] * b_int[t][j]
            out[i][j] = acc % gl.P
    return np.array(out, dtype=np.uint64)


def matvec(a: np.ndarray, v: Sequence[int]) -> List[int]:
    """Exact field matrix-vector product returning Python ints."""
    a_int = a.tolist()
    v_int = [int(x) for x in v]
    return [sum(r * x for r, x in zip(row, v_int)) % gl.P for row in a_int]


def inverse(a: np.ndarray) -> np.ndarray:
    """Invert a square matrix over GF(p) by Gauss-Jordan elimination.

    Raises :class:`ValueError` if the matrix is singular.
    """
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("inverse requires a square matrix")
    m = [[int(x) for x in row] for row in a.tolist()]
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular over GF(p)")
        m[col], m[pivot] = m[pivot], m[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        pinv = gl.inverse(m[col][col])
        m[col] = [v * pinv % gl.P for v in m[col]]
        inv[col] = [v * pinv % gl.P for v in inv[col]]
        for r in range(n):
            if r == col or m[r][col] == 0:
                continue
            factor = m[r][col]
            m[r] = [(v - factor * w) % gl.P for v, w in zip(m[r], m[col])]
            inv[r] = [(v - factor * w) % gl.P for v, w in zip(inv[r], inv[col])]
    return np.array(inv, dtype=np.uint64)


def cauchy_mds(n: int) -> np.ndarray:
    """Construct an n x n MDS matrix via the Cauchy construction.

    ``M[i][j] = 1 / (x_i + y_j)`` with all ``x_i + y_j`` distinct and
    non-zero.  Every square submatrix of a Cauchy matrix is non-singular,
    which is the defining property of an MDS matrix -- the diffusion layer
    Poseidon requires.  We use ``x_i = i``, ``y_j = n + j``.
    """
    xs = list(range(n))
    ys = list(range(n, 2 * n))
    rows = [[gl.inverse(x + y) for y in ys] for x in xs]
    return np.array(rows, dtype=np.uint64)
