"""The Poseidon permutation, naive (reference) form.

Poseidon processes a 12-lane Goldilocks state through 4 full rounds,
22 partial rounds, and 4 more full rounds (paper Algorithm 1):

* a **full round** adds per-lane constants, applies the ``x**7`` S-box to
  every lane, and multiplies the state (as a row vector) by the MDS
  matrix;
* a **naive partial round** adds per-lane constants, applies the S-box to
  lane 0 only, and multiplies by the same MDS matrix.

The optimised forms are property-tested to be extensionally equal to
this one: the lane-0 chain both software paths run
(:mod:`repro.hashing.optimized`) and the sparse-matrix form UniZK maps to
hardware (:mod:`repro.hashing.sparse`).

All functions are batched: ``states`` has shape ``(..., 12)``.
"""

from __future__ import annotations

import numpy as np

from ..field import gl64
from .constants import (
    FULL_ROUNDS,
    PARTIAL_ROUNDS,
    WIDTH,
    mds_matrix,
    round_constants,
)

#: Full rounds executed before the partial block.
HALF_FULL = FULL_ROUNDS // 2


def apply_mds(states: np.ndarray, matrix: np.ndarray | None = None) -> np.ndarray:
    """Row-vector state times matrix: ``out[j] = sum_i state[i] * M[i][j]``.

    On UniZK this is the weight-stationary systolic matrix multiply that
    keeps VSA utilisation above 95% during hashing (paper Table 4).
    """
    matrix = mds_matrix() if matrix is None else matrix
    # out[..., j] = sum_i state[..., i] * M[i, j], fully vectorised:
    # one broadcast multiply then a log-depth tree reduction over i.
    prods = gl64.mul(states[..., :, None], matrix)  # (..., i, j)
    return gl64.sum_along_axis(prods, axis=-2)


def full_round(states: np.ndarray, rc: np.ndarray) -> np.ndarray:
    """One full round: add constants, S-box every lane, MDS multiply."""
    states = gl64.add(states, rc)
    states = gl64.pow7(states)
    return apply_mds(states)


def partial_round_naive(states: np.ndarray, rc: np.ndarray) -> np.ndarray:
    """One naive partial round: add constants, S-box lane 0, MDS multiply."""
    states = gl64.add(states, rc)
    lane0 = gl64.pow7(states[..., 0])
    states = states.copy()
    states[..., 0] = lane0
    return apply_mds(states)


def permute_naive(states: np.ndarray) -> np.ndarray:
    """The full Poseidon permutation, reference implementation."""
    states = np.asarray(states, dtype=np.uint64)
    if states.shape[-1] != WIDTH:
        raise ValueError(f"state width must be {WIDTH}, got {states.shape[-1]}")
    full_rc, partial_rc = round_constants()
    for r in range(HALF_FULL):
        states = full_round(states, full_rc[r])
    for r in range(PARTIAL_ROUNDS):
        states = partial_round_naive(states, partial_rc[r])
    for r in range(HALF_FULL, FULL_ROUNDS):
        states = full_round(states, full_rc[r])
    return states
