"""Slow reference forms the tests compare shipped kernels against.

Each is the obviously-correct version of something ``src/repro``
computes another way: one polynomial at a time, one node pair at a
time, Python ints.  Nothing under ``src/repro`` imports this module;
``tests/reference_verifiers.py`` builds its scalar verifiers on it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import parallel
from repro.context import RUN
from repro.field import gl64, goldilocks as gl
from repro.fri import PolynomialBatch
from repro.hashing import optimized, sponge
from repro.hashing.constants import WIDTH
from repro.merkle import MerkleTree
from repro.parallel import ops as par_ops


class Polynomial:
    """A dense polynomial with Goldilocks coefficients, lowest degree
    first: the evaluation side the transform and FRI tests check
    against."""

    def __init__(self, coeffs) -> None:
        self.coeffs = np.atleast_1d(np.asarray(coeffs, dtype=np.uint64))

    def eval(self, x: int) -> int:
        """Evaluate at a base-field point (Horner, Python ints)."""
        acc = 0
        for c in reversed(self.coeffs.tolist()):
            acc = gl.canonical(acc * x + int(c))
        return acc

    def shift_args(self, s: int) -> "Polynomial":
        """``q(X) = p(s * X)``: coefficient ``i`` scaled by ``s**i`` (the
        coset trick)."""
        return Polynomial(gl64.mul(self.coeffs, gl64.powers(s, len(self.coeffs))))


def hash_or_noop(values: np.ndarray) -> np.ndarray:
    """Plonky2-style leaf hashing of each row: rows shorter than a digest
    are padded into the digest directly, longer rows are hashed."""
    values = np.atleast_2d(np.asarray(values, dtype=np.uint64))
    out = np.empty((values.shape[0], sponge.DIGEST_LEN), dtype=np.uint64)
    return sponge.hash_leaves_into(values, out)


def two_to_one(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Compress two digests into one (an internal Merkle node): one
    counted sponge permutation per pair.

    Batched: ``left`` and ``right`` are (..., DIGEST_LEN).
    """
    left = gl64.asarray(left, trusted=True)  # digests are canonical
    right = gl64.asarray(right, trusted=True)
    if left.shape != right.shape or left.shape[-1] != sponge.DIGEST_LEN:
        raise ValueError("two_to_one expects matching (..., 4) digests")
    lead = left.shape[:-1]
    batch = int(np.prod(lead, dtype=np.int64))
    state = np.zeros((batch, WIDTH), dtype=np.uint64)
    state[:, : sponge.DIGEST_LEN] = left.reshape(batch, sponge.DIGEST_LEN)
    state[:, sponge.DIGEST_LEN : 2 * sponge.DIGEST_LEN] = right.reshape(
        batch, sponge.DIGEST_LEN
    )
    RUN.counters.sponge_permutations += batch
    optimized.permute_into(state)
    return state[:, : sponge.DIGEST_LEN].reshape(lead + (sponge.DIGEST_LEN,))


def inter_dim_twiddles(log_n: int, rows: int, cols: int) -> np.ndarray:
    """The (rows x cols) matrix of decomposed-NTT twiddles ``w_N^(k1*j2)``
    (paper Figure 4b): ``rows`` indexes ``k1``, the first dimension's
    output, and ``cols`` indexes ``j2``, the position along the rest."""
    omega = gl.primitive_root_of_unity(log_n)
    row_bases = gl64.powers(omega, rows)  # w^k1
    out = np.empty((rows, cols), dtype=np.uint64)
    for k in range(rows):
        out[k] = gl64.powers(int(row_bases[k]), cols)
    return out


def individual_paths_bytes(tree: MerkleTree, indices: Sequence[int]) -> int:
    """Digest payload of separate per-index proofs: what a Merkle
    multiproof replaces."""
    return (len(tree.levels) - 1) * 32 * len(set(indices))


def commit_coeffs(coeffs: np.ndarray, rate_bits: int, cap_height: int) -> PolynomialBatch:
    """Commit polynomials given by coefficient rows (num_polys, n) on the
    current pool: the coefficient-form LDE -> Merkle graph the race
    analysis checks (``commit:from_coeffs``)."""
    return par_ops.from_coeffs_graph(
        parallel.current_pool(), coeffs, rate_bits, cap_height, None
    ).run()
